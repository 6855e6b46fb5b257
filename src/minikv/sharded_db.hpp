// sharded_db.hpp — the sharded MiniKV front end: N hash-partitioned
// shards, per-shard runtime-chosen locks, and epoch-protected
// lock-free reads.
//
// DB<Lock> (db.hpp) reproduces LevelDB's single central mutex, the
// paper's Figure-8 bottleneck; ShardedDB is a *serving system* on the
// same storage. Flush, compaction, table search and the block cache
// all shards share are the TableSet core (table_set.hpp). ShardedDB
// owns only:
//
//   * Routing: a key hashes to one shard, with its own lock, memtable
//     and table version.
//   * The publication order. Writers hold the shard lock, publish the
//     new version THEN the new memtable (release stores), and retire
//     the old ones to an epoch domain (src/reclaim/epoch.hpp). Readers
//     hold an EpochGuard and load the memtable BEFORE the version
//     (acquire), so a reader that sees the post-flush (empty) memtable
//     also sees the table it was flushed into: no key vanishes.
//   * The locked tier (ShardedDbOptions::epoch_reads = false): reads
//     take the shard lock in shared mode, the comparison point for
//     "when does QSBR beat a shared-mode lock" (README).
//   * Deletes, as a value tag private to this layer: 'V' + payload
//     for live values, 'T' for tombstones. Its compaction keep
//     predicate drops tombstones, which is correct because the fold
//     takes EVERY table of the shard and the shard's fresh memtable is
//     empty: no older version of an elided key survives anywhere.
//   * The cross-shard scan: a min-heap over one TableSet cursor per
//     shard pops rows until `limit`, fetching only the blocks those
//     rows live in; shards partition the keyspace, so no key repeats.
//     One protection covers the whole scan: an EpochGuard, or in the
//     locked tier every shard lock, taken in ascending shard order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/any_lock.hpp"
#include "locks/lockable.hpp"
#include "minikv/memtable.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/table.hpp"
#include "minikv/table_set.hpp"
#include "reclaim/epoch.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

/// Tuning knobs for the sharded serving layer: the storage options
/// (write buffer and compaction trigger apply per shard; the block
/// cache is shared by all shards) plus the two of its own.
struct ShardedDbOptions : StorageOptions {
  /// Number of hash partitions (each with its own lock + memtable +
  /// table version).
  std::size_t num_shards = 16;
  /// true: Get()/Scan() run lock-free under epoch protection (the
  /// point of this layer). false: they take the shard lock in shared
  /// mode instead — the comparison baseline.
  bool epoch_reads = true;
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

/// Sharded MiniKV database. ShardLock is the per-shard lock type; it
/// needs a shared mode for the locked tier. The default AnyLock
/// selects its algorithm at run time by factory name:
/// ShardedDB<> db(opts, "hemlock-futex");
template <SharedLockable ShardLock = AnyLock>
class ShardedDB {
 public:
  /// Reclamation through `domain` (nullptr = the process-global
  /// EpochDomain); every shard's lock is constructed from
  /// `lock_args`: ShardedDB<> db(opts, nullptr, "mcs"). The args are
  /// reused per shard, hence taken by const reference.
  template <typename... LockArgs>
  explicit ShardedDB(ShardedDbOptions options = ShardedDbOptions{},
                     reclaim::EpochDomain* domain = nullptr,
                     const LockArgs&... lock_args)
      : epoch_reads_(options.epoch_reads),
        domain_(domain != nullptr ? domain : &reclaim::EpochDomain::global()),
        tables_(options) {
    shards_.reserve(options.num_shards);
    for (std::size_t i = 0; i < options.num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(lock_args...));
    }
  }

  /// Named shard locks with the process-global domain:
  /// ShardedDB<> db(opts, "mcs"). A first argument that converts to
  /// EpochDomain* — `nullptr` included — selects the overload above.
  template <typename First, typename... Rest>
    requires(!std::is_convertible_v<const First&, reclaim::EpochDomain*>)
  explicit ShardedDB(ShardedDbOptions options, const First& first,
                     const Rest&... rest)
      : ShardedDB(options, nullptr, first, rest...) {}

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
    puts_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    return write(key, kValueTag, value);
  }

  /// Delete key (tombstone write; the key disappears from gets and
  /// scans immediately, storage is reclaimed at compaction).
  Status del(const Slice& key) {
    deletes_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    return write(key, kTombstoneTag, Slice());
  }

  /// Point lookup: lock-free under an EpochGuard, which keeps every
  /// structure this thread can reach alive (writers retire rather than
  /// free); in the locked tier, under the shard lock in shared mode.
  /// The search writes straight into *value, so on NotFound *value is
  /// unchanged for a key never written and empty for a deleted one.
  Status get(const Slice& key, std::string* value) {
    Shard& s = shard_for(key);
    bool found;
    if (epoch_reads_) {
      epoch_gets_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      reclaim::EpochGuard g(*domain_);
      found = search_shard(s, key, value);
    } else {
      locked_gets_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
      SharedLockGuard<ShardLock> g(s.mu.value);
      found = search_shard(s, key, value);
    }
    if (!found) return Status::not_found();
    if (value->empty() || (*value)[0] == kTombstoneTag) {
      value->clear();
      return Status::not_found();
    }
    value->erase(0, 1);  // the value tag
    return Status::ok();
  }

  /// Range scan: up to `limit` live entries with key >= `start`,
  /// ascending across the whole keyspace, under one protection for
  /// its whole length (file header). Taking every shard lock in
  /// ascending order is deadlock-free: writers hold one at a time.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    scans_.fetch_add(1, std::memory_order_relaxed);  // mo: relaxed — stats
    if (epoch_reads_) {
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
    domain_->drain(reclaim::EpochDomain::kDefaultDrainBatch);
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
  std::uint64_t cache_hits() const { return tables_.cache_hits(); }
  std::uint64_t cache_misses() const { return tables_.cache_misses(); }

  /// Operation + reclamation counters.
  ShardedDbStats stats() const {
    ShardedDbStats st;
    // mo: relaxed — monotonic stats counters; no ordering implied.
    st.epoch_gets = epoch_gets_.load(std::memory_order_relaxed);
    st.locked_gets = locked_gets_.load(std::memory_order_relaxed);
    st.scans = scans_.load(std::memory_order_relaxed);
    st.puts = puts_.load(std::memory_order_relaxed);
    st.deletes = deletes_.load(std::memory_order_relaxed);
    st.flushes = tables_.flushes();
    st.compactions = tables_.compactions();
    st.reclaim = domain_->stats();
    return st;
  }

  /// The epoch domain this DB retires into.
  reclaim::EpochDomain& domain() { return *domain_; }

 private:
  static constexpr char kValueTag = 'V';
  static constexpr char kTombstoneTag = 'T';

  /// The compaction keep predicate: drop tombstones (see the header).
  static bool live(const Slice& tagged) {
    return tagged.empty() || tagged[0] != kTombstoneTag;
  }

  struct Shard {
    CacheAligned<ShardLock> mu;
    /// Published structures: swung under mu, read lock-free by
    /// epoch-protected readers. Raw pointers (not shared_ptr) because
    /// lifetime is the epoch domain's job — readers must not touch a
    /// contended refcount on the hot path.
    std::atomic<MemTable*> mem;
    std::atomic<TableVersion*> version;
    std::uint64_t next_seq HEMLOCK_GUARDED_BY(mu.value) = 1;  ///< under mu

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

  /// Store key -> tag + value (the tags in the file header).
  Status write(const Slice& key, char tag, const Slice& value) {
    Shard& s = shard_for(key);
    bool flushed = false;
    {
      LockGuard<ShardLock> g(s.mu.value);
      // mo: relaxed — mu is held; only flush_shard_locked (also
      // under mu) swings this pointer.
      MemTable* mem = s.mem.load(std::memory_order_relaxed);
      mem->add(s.next_seq++, key, Slice(&tag, 1), value);
      if (tables_.full(*mem)) {
        flush_shard_locked(s);
        flushed = true;
      }
    }
    // Reclamation piggybacks on the writes that generate garbage,
    // outside the shard lock and bounded, so a put() pays at most
    // kDefaultDrainBatch deleter calls.
    if (flushed) domain_->drain(reclaim::EpochDomain::kDefaultDrainBatch);
    return Status::ok();
  }

  /// Lock-free (or shared-locked) search of one shard.
  bool search_shard(Shard& s, const Slice& key, std::string* tagged) {
    // mo: acquire — pairs with the release publish in
    // flush_shard_locked; mem FIRST (publication-order invariant).
    MemTable* mem = s.mem.load(std::memory_order_acquire);
    TableVersion* version = s.version.load(std::memory_order_acquire);
    return tables_.get(*mem, *version, key, tagged);
  }

  /// Read-lock shards [i, n) in ascending order, then merge: the
  /// locked tier's whole-scan hold.
  void merge_shards_locked(
      std::size_t i, const Slice& start, std::size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) {
    if (i == shards_.size()) {
      merge_shards(start, limit, out);
    } else {
      SharedLockGuard<ShardLock> g(shards_[i]->mu.value);
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
    std::vector<TableSet::Cursor> cursors;
    cursors.reserve(shards_.size());
    std::vector<std::size_t> heap;  // indices into cursors
    heap.reserve(shards_.size());
    for (auto& sp : shards_) {
      // mo: acquire — pairs with flush_shard_locked's release publish;
      // mem FIRST (publication-order invariant, file header).
      MemTable* mem = sp->mem.load(std::memory_order_acquire);
      TableVersion* version = sp->version.load(std::memory_order_acquire);
      cursors.push_back(tables_.cursor(*mem, *version, start));
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

  /// REQUIRES: s.mu held. Publish the flushed version THEN a fresh
  /// memtable (the release order readers rely on), and retire the
  /// old structures to the epoch domain.
  void flush_shard_locked(Shard& s) HEMLOCK_REQUIRES(s.mu.value) {
    // mo: relaxed ×2 — mu is held; this function is the only writer.
    MemTable* old_mem = s.mem.load(std::memory_order_relaxed);
    TableVersion* old_version = s.version.load(std::memory_order_relaxed);
    std::unique_ptr<TableVersion> next =
        tables_.flushed(*old_mem, *old_version, &live);
    if (next == nullptr) return;
    // mo: release ×2 — publish version THEN empty memtable; readers
    // acquire-load mem first, so seeing the new (empty) memtable
    // implies seeing the version that holds the flushed table.
    s.version.store(next.release(), std::memory_order_release);
    s.mem.store(new MemTable(), std::memory_order_release);
    // Retire AFTER unpublishing: in-epoch readers may still hold
    // these; the domain frees them two epochs from now.
    domain_->retire(old_version);
    domain_->retire(old_mem);
  }

  const bool epoch_reads_;
  reclaim::EpochDomain* domain_;
  TableSet tables_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> epoch_gets_{0}, locked_gets_{0}, scans_{0},
      puts_{0}, deletes_{0};
};

// The runtime-selected configuration is compiled once, in
// sharded_db.cpp; consumers link against that copy. The class
// instantiation leaves out the constructor templates, so the
// default-lock constructor is named on its own; a lock-argument
// list is still instantiated where it is spelled.
extern template class ShardedDB<AnyLock>;
extern template ShardedDB<AnyLock>::ShardedDB(ShardedDbOptions,
                                              reclaim::EpochDomain*);

}  // namespace hemlock::minikv
