// sharded_db.hpp — the sharded MiniKV serving layer: N hash-
// partitioned shards, per-shard runtime-chosen locks, and epoch-
// protected lock-free reads.
//
// DB<Lock> (db.hpp) reproduces LevelDB's single central mutex — the
// paper's Figure-8 bottleneck. ShardedDB is what a *serving system*
// built on the same storage shape looks like: the keyspace is hash-
// partitioned across shards, each shard is a miniature LevelDB
// (memtable + immutable table version + shared block cache) guarded
// by its own lock, and the default Get() path holds NO lock at all:
//
//   * Writers (put/del/flush/compact) hold the shard lock. They
//     replace the shard's memtable/version by PUBLISHING new pointers
//     (release stores) and retire the old structures to an epoch
//     domain (src/reclaim/epoch.hpp) instead of freeing them.
//   * Readers bracket their traversal with an EpochGuard and load the
//     published pointers (acquire). The publication order is load-
//     bearing: writers store the new version BEFORE the new memtable,
//     readers load the memtable BEFORE the version — so a reader that
//     observes the post-flush (empty) memtable is guaranteed to
//     observe the version holding the flushed table, and no key ever
//     vanishes mid-flush.
//   * A locked fallback (ShardedDbOptions::epoch_reads = false) takes
//     the shard lock in shared mode instead — the direct comparison
//     point for "when does QSBR beat a shared-mode lock" (README).
//
// Deletes exist at this layer (the central DB has none) via a 1-byte
// value tag: 'V' + payload for live values, 'T' for tombstones. The
// tag never touches the memtable/table formats; tombstones are elided
// during a shard's full-merge compaction, which is correct precisely
// because that compaction folds EVERY table of the shard into one
// (there is no older source left for a tombstone to shadow).
//
// Cross-shard Scan() is lazy: one MergeCursor per shard (the cursor
// the central DB drains, scan.hpp) under a min-heap of the shards'
// head keys, popping rows until `limit` and fetching only the table
// blocks those rows live in. Shards partition the keyspace, so the
// heap never sees a key twice. The scan holds one protection
// throughout — an EpochGuard, or in the locked tier every shard lock,
// taken in ascending shard order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/any_lock.hpp"
#include "locks/lockable.hpp"
#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/table.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

/// Tuning knobs for the sharded serving layer.
struct ShardedDbOptions {
  /// Number of hash partitions (each with its own lock + memtable +
  /// table version).
  std::size_t num_shards = 16;
  /// Per-shard memtable budget before an inline flush.
  std::size_t write_buffer_bytes = 1 << 20;  // 1 MiB
  /// Block cache capacity, shared across all shards (table ids are
  /// DB-unique, so one cache serves every shard).
  std::size_t block_cache_bytes = 256 << 20;  // 256 MiB
  /// Entries per table block.
  std::size_t block_fanout = ImmutableTable::kDefaultBlockFanout;
  /// Per-shard full-merge compaction trigger (table count).
  std::size_t compaction_trigger = 8;
  /// true: Get()/Scan() run lock-free under epoch protection (the
  /// point of this layer). false: they take the shard lock in shared
  /// mode instead — the comparison baseline.
  bool epoch_reads = true;
  /// Reclamation work bound per write that triggered a flush.
  std::size_t drain_batch = reclaim::EpochDomain::kDefaultDrainBatch;
};

/// Operation counters + the reclamation domain's view.
struct ShardedDbStats {
  std::uint64_t epoch_gets = 0;   ///< lock-free gets served
  std::uint64_t locked_gets = 0;  ///< shared-mode fallback gets
  std::uint64_t scans = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  reclaim::DomainStats reclaim;
};

/// Sharded MiniKV database. ShardLock is the per-shard lock type;
/// the default AnyLock selects its algorithm at run time by factory
/// name: ShardedDB<> db(opts, "hemlock-futex");
template <BasicLockable ShardLock = AnyLock>
class ShardedDB {
 public:
  /// Default-constructed shard locks; reclamation through `domain`
  /// (nullptr = the process-global EpochDomain).
  explicit ShardedDB(ShardedDbOptions options = ShardedDbOptions{},
                     reclaim::EpochDomain* domain = nullptr)
      : options_(options),
        domain_(domain != nullptr ? domain : &reclaim::EpochDomain::global()),
        cache_(options.block_cache_bytes) {
    shards_.reserve(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// As above, constructing every shard's lock from `lock_args` —
  /// how AnyLock shards name their algorithm:
  /// ShardedDB<> db(opts, nullptr, "mcs"); (args are reused per
  /// shard, hence taken by const reference rather than forwarded; the
  /// domain comes before the pack so the pack stays deducible).
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  ShardedDB(ShardedDbOptions options, reclaim::EpochDomain* domain,
            const LockArgs&... lock_args)
      : options_(options),
        domain_(domain != nullptr ? domain : &reclaim::EpochDomain::global()),
        cache_(options.block_cache_bytes) {
    shards_.reserve(options_.num_shards);
    for (std::size_t i = 0; i < options_.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(lock_args...));
    }
  }

  /// Named/derived shard locks with the process-global domain:
  /// ShardedDB<> db(opts, "mcs"); (A first argument of EpochDomain*
  /// selects the overload above instead — exact non-template match.)
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  explicit ShardedDB(ShardedDbOptions options, const LockArgs&... lock_args)
      : ShardedDB(options, static_cast<reclaim::EpochDomain*>(nullptr),
                  lock_args...) {}

  ShardedDB(const ShardedDB&) = delete;
  ShardedDB& operator=(const ShardedDB&) = delete;

  /// Requires external quiescence (no concurrent operations), like
  /// every destructor in the library. Frees the live structures and
  /// makes a bounded effort to drain this DB's retired garbage; any
  /// remainder (e.g. a stalled reader elsewhere in a shared domain)
  /// stays safely parked in the domain and is freed by later drains.
  ~ShardedDB() {
    for (auto& s : shards_) {
      // mo: relaxed — destructor requires external quiescence; no
      // concurrent publisher or reader exists to order against.
      delete s->mem.load(std::memory_order_relaxed);
      delete s->version.load(std::memory_order_relaxed);
    }
    for (int i = 0; i < 3; ++i) {  // two advances free everything retired
      domain_->drain(~std::size_t{0});
    }
  }

  /// Insert or overwrite key -> value.
  Status put(const Slice& key, const Slice& value) {
    std::string tagged;
    tagged.reserve(value.size() + 1);
    tagged.push_back(kValueTag);
    tagged.append(value.data(), value.size());
    puts_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    return write(key, Slice(tagged));
  }

  /// Delete key (tombstone write; the key disappears from gets and
  /// scans immediately, storage is reclaimed at compaction).
  Status del(const Slice& key) {
    const char tomb[1] = {kTombstoneTag};
    deletes_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    return write(key, Slice(tomb, 1));
  }

  /// Point lookup. Default: lock-free under epoch protection — the
  /// shard lock is untouched, writers retire rather than free, and
  /// the epoch guard keeps every structure this thread can reach
  /// alive. Fallback (epoch_reads=false): shard lock, shared mode.
  Status get(const Slice& key, std::string* value) {
    Shard& s = shard_for(key);
    std::string tagged;
    bool found;
    if (options_.epoch_reads) {
      epoch_gets_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      reclaim::EpochGuard g(*domain_);
      found = search_shard(s, key, &tagged);
    } else if constexpr (SharedLockable<ShardLock>) {
      locked_gets_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      SharedLockGuard<ShardLock> g(s.mu.value);
      found = search_shard(s, key, &tagged);
    } else {  // exclusive-only algorithm: readers serialize
      locked_gets_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      LockGuard<ShardLock> g(s.mu.value);
      found = search_shard(s, key, &tagged);
    }
    if (!found || tagged.empty() || tagged[0] == kTombstoneTag) {
      return Status::not_found();
    }
    value->assign(tagged.data() + 1, tagged.size() - 1);
    return Status::ok();
  }

  /// Range scan: up to `limit` live entries with key >= `start`,
  /// ascending across the whole keyspace. The scan holds one
  /// protection for its whole length: a single EpochGuard, or with
  /// epoch_reads=false every shard lock in ascending shard order
  /// (deadlock-free: writers only ever hold one shard lock). Under it,
  /// a min-heap over the shards' merge cursors pops rows in key order
  /// and stops after `limit`; shards partition the keyspace, so no
  /// row needs a cross-shard dedupe.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    scans_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    if (options_.epoch_reads) {
      reclaim::EpochGuard g(*domain_);
      merge_shards(start, limit, out);
    } else {
      merge_shards_locked(0, start, limit, out);
    }
    return out->size();
  }

  /// Force every shard's memtable into an immutable table.
  void flush() {
    for (auto& sp : shards_) {
      LockGuard<ShardLock> g(sp->mu.value);
      flush_shard_locked(*sp);
    }
    domain_->drain(options_.drain_batch);
  }

  /// Bounded reclamation step (also runs automatically after flushes
  /// triggered by writes). Returns objects freed.
  std::size_t reclaim_drain(std::size_t max_frees) {
    return domain_->drain(max_frees);
  }

  /// Shard count.
  std::size_t num_shards() const { return shards_.size(); }
  /// Total immutable tables across shards (diagnostics).
  std::size_t num_tables() {
    std::size_t n = 0;
    for (auto& sp : shards_) {
      LockGuard<ShardLock> g(sp->mu.value);
      // mo: relaxed — mu is held, so the published pointer is stable.
      n += sp->version.load(std::memory_order_relaxed)->tables.size();
    }
    return n;
  }

  /// Block cache statistics.
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }

  /// Operation + reclamation counters.
  ShardedDbStats stats() const {
    ShardedDbStats st;
    // mo: relaxed — monotonic stats counters; no ordering implied.
    st.epoch_gets = epoch_gets_.load(std::memory_order_relaxed);
    st.locked_gets = locked_gets_.load(std::memory_order_relaxed);
    st.scans = scans_.load(std::memory_order_relaxed);
    st.puts = puts_.load(std::memory_order_relaxed);
    st.deletes = deletes_.load(std::memory_order_relaxed);
    st.flushes = flushes_.load(std::memory_order_relaxed);
    st.compactions = compactions_.load(std::memory_order_relaxed);
    st.reclaim = domain_->stats();
    return st;
  }

  /// The epoch domain this DB retires into.
  reclaim::EpochDomain& domain() { return *domain_; }

  static constexpr char kValueTag = 'V';
  static constexpr char kTombstoneTag = 'T';

 private:
  struct Shard {
    CacheAligned<ShardLock> mu;
    /// Published structures: swung under mu, read lock-free by
    /// epoch-protected readers. Raw pointers (not shared_ptr) because
    /// lifetime is the epoch domain's job — readers must not touch a
    /// contended refcount on the hot path.
    std::atomic<MemTable*> mem;
    std::atomic<TableVersion*> version;
    std::uint64_t next_seq HEMLOCK_GUARDED_BY(mu.value) = 1;  ///< under mu

    Shard() : mem(new MemTable()), version(new TableVersion()) {}
    template <typename... Args>
    explicit Shard(const Args&... args)
        : mu(args...), mem(new MemTable()), version(new TableVersion()) {}
    ~Shard() = default;  // mem/version freed by ShardedDB's destructor
  };

  /// Keyspace router: FNV-1a over the key bytes, splitmix-finalized
  /// so low-entropy key suffixes still spread across shards.
  Shard& shard_for(const Slice& key) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < key.size(); ++i) {
      h ^= static_cast<unsigned char>(key.data()[i]);
      h *= 1099511628211ULL;
    }
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return *shards_[h % shards_.size()];
  }

  Status write(const Slice& key, const Slice& tagged) {
    Shard& s = shard_for(key);
    bool flushed = false;
    {
      LockGuard<ShardLock> g(s.mu.value);
      // mo: relaxed — mu is held; only flush_shard_locked (also
      // under mu) swings this pointer.
      MemTable* mem = s.mem.load(std::memory_order_relaxed);
      mem->add(s.next_seq++, key, tagged);
      if (mem->approximate_memory_usage() >= options_.write_buffer_bytes) {
        flush_shard_locked(s);
        flushed = true;
      }
    }
    // Reclamation piggybacks on the writes that generate garbage,
    // outside the shard lock and bounded, so a put() pays at most
    // drain_batch deleter calls.
    if (flushed) domain_->drain(options_.drain_batch);
    return Status::ok();
  }

  /// Lock-free (or shared-locked) search of one shard. The acquire
  /// loads pair with flush_shard_locked's release stores; mem is
  /// loaded FIRST (see the publication-order comment at the top).
  bool search_shard(Shard& s, const Slice& key, std::string* tagged) {
    // mo: acquire — pairs with the release publish in
    // flush_shard_locked; mem FIRST (publication-order invariant).
    MemTable* mem = s.mem.load(std::memory_order_acquire);
    TableVersion* version = s.version.load(std::memory_order_acquire);
    if (mem->get(key, tagged)) return true;
    for (const auto& table : version->tables) {  // newest first
      if (key.compare(table->smallest()) < 0 ||
          key.compare(table->largest()) > 0) {
        continue;
      }
      const std::int64_t idx = table->block_for(key);
      if (idx < 0) continue;
      if (read_block_cached(*table, static_cast<std::size_t>(idx))
              ->get(key, tagged)) {
        return true;
      }
    }
    return false;
  }

  /// Read-lock shards [i, n) in ascending order, then merge: the
  /// locked tier's whole-scan hold.
  void merge_shards_locked(
      std::size_t i, const Slice& start, std::size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) {
    if (i == shards_.size()) {
      merge_shards(start, limit, out);
    } else if constexpr (SharedLockable<ShardLock>) {
      SharedLockGuard<ShardLock> g(shards_[i]->mu.value);
      merge_shards_locked(i + 1, start, limit, out);
    } else {
      LockGuard<ShardLock> g(shards_[i]->mu.value);
      merge_shards_locked(i + 1, start, limit, out);
    }
  }

  /// REQUIRES: every shard protected (epoch guard or read locks) for
  /// the whole call. Pops the first `limit` live rows >= start off a
  /// min-heap of per-shard merge cursors. A tombstone is dropped when
  /// popped; inside its shard's merge it has already shadowed the
  /// key's older versions.
  void merge_shards(const Slice& start, std::size_t limit,
                    std::vector<std::pair<std::string, std::string>>* out) {
    auto fetch = [this](const ImmutableTable& t, std::size_t b) {
      return read_block_cached(t, b);
    };
    std::vector<MergeCursor<decltype(fetch)>> cursors;
    cursors.reserve(shards_.size());
    std::vector<std::size_t> heap;  // indices into cursors
    heap.reserve(shards_.size());
    for (auto& sp : shards_) {
      // mo: acquire — pairs with flush_shard_locked's release publish;
      // mem FIRST (publication-order invariant, file header).
      MemTable* mem = sp->mem.load(std::memory_order_acquire);
      TableVersion* version = sp->version.load(std::memory_order_acquire);
      cursors.emplace_back(*mem, *version, start, fetch);
      if (cursors.back().valid()) heap.push_back(cursors.size() - 1);
    }
    const auto later = [&](std::size_t a, std::size_t b) {
      return cursors[b].key().compare(cursors[a].key()) < 0;
    };
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty() && out->size() < limit) {
      std::pop_heap(heap.begin(), heap.end(), later);
      auto& c = cursors[heap.back()];
      const Slice v = c.value();
      if (v.size() >= 1 && v.data()[0] == kValueTag) {
        out->emplace_back(c.key().to_string(),
                          std::string(v.data() + 1, v.size() - 1));
      }
      c.next();
      if (c.valid()) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    }
  }

  /// REQUIRES: s.mu held. Freeze the memtable into a table, publish
  /// the new version THEN the new memtable (release order readers
  /// rely on), retire the old structures to the epoch domain.
  void flush_shard_locked(Shard& s) HEMLOCK_REQUIRES(s.mu.value) {
    // mo: relaxed — mu is held; this function is the only writer.
    MemTable* old_mem = s.mem.load(std::memory_order_relaxed);
    if (old_mem->entries() == 0) return;
    TableBuilder builder(options_.block_fanout);
    for (MemTable::Cursor c(*old_mem, Slice()); c.valid(); c.next()) {
      builder.add(c.key(), c.value());
    }
    auto table = builder.finish(
        // mo: relaxed — unique-ID counter; uniqueness, not ordering.
        next_table_id_.fetch_add(1, std::memory_order_relaxed));
    // mo: relaxed — mu is held; the published pointer is stable.
    TableVersion* old_version = s.version.load(std::memory_order_relaxed);
    auto* next = new TableVersion();
    next->tables.reserve(old_version->tables.size() + 1);
    next->tables.push_back(std::move(table));
    for (const auto& t : old_version->tables) next->tables.push_back(t);
    if (next->tables.size() > options_.compaction_trigger) {
      compact_tables(next);
    }
    // mo: release ×2 — publish version THEN empty memtable; readers
    // acquire-load mem first, so seeing the new (empty) memtable
    // implies seeing the version that holds the flushed table.
    s.version.store(next, std::memory_order_release);
    s.mem.store(new MemTable(), std::memory_order_release);
    // Retire AFTER unpublishing: in-epoch readers may still hold
    // these; the domain frees them two epochs from now.
    domain_->retire(old_version);
    domain_->retire(old_mem);
    flushes_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
  }

  /// Full-merge compaction of an unpublished version: fold every
  /// table (newest wins) into one, ELIDING tombstones — correct only
  /// because the merge consumes all of the shard's tables and the
  /// fresh memtable that accompanies this version is empty, so no
  /// older version of an elided key survives anywhere.
  void compact_tables(TableVersion* v) {
    v->tables.assign(
        1, merge_tables(
               *v, options_.block_fanout,
               // mo: relaxed — unique-ID counter; uniqueness, not ordering.
               next_table_id_.fetch_add(1, std::memory_order_relaxed),
               [](const Slice& val) {
                 return val.empty() || val[0] != kTombstoneTag;
               }));
    compactions_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
  }

  std::shared_ptr<Block> read_block_cached(const ImmutableTable& table,
                                           std::size_t idx) {
    const BlockKey bkey{table.id(), static_cast<std::uint32_t>(idx)};
    std::shared_ptr<Block> block = cache_.lookup(bkey);
    if (block == nullptr) {
      block = table.read_block(idx);
      cache_.insert(bkey, block, block->charge());
    }
    return block;
  }

  ShardedDbOptions options_;
  reclaim::EpochDomain* domain_;
  ShardedLruCache<Block> cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_table_id_{1};  ///< DB-unique (cache keys)

  std::atomic<std::uint64_t> epoch_gets_{0}, locked_gets_{0}, scans_{0},
      puts_{0}, deletes_{0}, flushes_{0}, compactions_{0};
};

}  // namespace hemlock::minikv
