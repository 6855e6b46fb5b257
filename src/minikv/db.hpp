// db.hpp — the MiniKV database: LevelDB's locking architecture with a
// pluggable central mutex.
//
// This is the Figure-8 substrate. The paper: "LevelDB uses
// coarse-grained locking, protecting the database with a single
// central mutex: DBImpl::Mutex. Profiling indicates contention on
// that lock via leveldb::DBImpl::Get()." DB<Lock> reproduces that
// architecture faithfully:
//
//  * ONE central mutex (the template parameter — Hemlock, MCS, CLH,
//    Ticket, ... are swapped in exactly where the paper's LD_PRELOAD
//    interposition swapped pthread_mutex implementations);
//  * Get() takes the central mutex *briefly* to snapshot the current
//    memtable + table-version (LevelDB: MakeRoomForWrite/Version
//    refs), then searches OUTSIDE the lock — so the benchmark's
//    critical sections are short and arrival-rate-bound, as in the
//    paper's profile;
//  * Put() serializes whole writes under the mutex (LevelDB's writer
//    queue collapses to this under db_bench's single-writer fill);
//  * memtable flushes happen inline under the mutex when the
//    memtable exceeds its budget (no background threads — determinism
//    for tests; the flush is off the readrandom hot path anyway).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "locks/lockable.hpp"
#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/table.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

/// DB tuning knobs (a small subset of leveldb::Options).
struct DbOptions {
  /// Memtable budget before an inline flush to an immutable table.
  std::size_t write_buffer_bytes = 1 << 20;  // 1 MiB
  /// Block cache capacity. Sized to hold db_bench-scale working sets:
  /// LevelDB's reads are effectively memory-speed in the paper's
  /// Figure-8 runs (the OS page cache holds the whole database), and
  /// the benchmark's subject is the central mutex, not disk I/O.
  std::size_t block_cache_bytes = 256 << 20;  // 256 MiB
  /// Entries per table block.
  std::size_t block_fanout = ImmutableTable::kDefaultBlockFanout;
  /// Merge all immutable tables into one when their count exceeds
  /// this (MiniKV's stand-in for LevelDB's compaction, keeping the
  /// read path's table fan-out bounded).
  std::size_t compaction_trigger = 8;
};

// (TableVersion — the immutable table set snapshotted under the
// central mutex — now lives in minikv/table.hpp, shared with the
// sharded serving layer and the merge cursor.)

/// MiniKV database with central mutex of type CentralLock.
template <BasicLockable CentralLock>
class DB {
 public:
  explicit DB(DbOptions options = DbOptions{})
      : options_(options),
        cache_(options.block_cache_bytes),
        mem_(std::make_shared<MemTable>()),
        version_(std::make_shared<TableVersion>()) {}

  /// As above, forwarding `lock_args` to the central mutex's
  /// constructor — how a type-erased CentralLock (AnyLock) names its
  /// algorithm at run time: DB<AnyLock> db(DbOptions{}, "mcs");
  template <typename... LockArgs>
    requires(sizeof...(LockArgs) > 0)
  explicit DB(DbOptions options, LockArgs&&... lock_args)
      : options_(options),
        mu_(std::forward<LockArgs>(lock_args)...),
        cache_(options.block_cache_bytes),
        mem_(std::make_shared<MemTable>()),
        version_(std::make_shared<TableVersion>()) {}

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Insert or overwrite key -> value.
  Status put(const Slice& key, const Slice& value) {
    LockGuard<CentralLock> g(mu_.value);
    mem_->add(next_seq_++, key, value);
    if (mem_->approximate_memory_usage() >= options_.write_buffer_bytes) {
      flush_memtable_locked();
    }
    return Status::ok();
  }

  /// Point lookup. The central-mutex critical section is only the
  /// snapshot of (memtable, version); the search runs unlocked. When
  /// the central lock has a shared mode (an rwlock, or an AnyLock
  /// naming one), the snapshot is taken as a *reader* — concurrent
  /// gets no longer serialize on the paper's Figure-8 bottleneck; the
  /// two shared_ptr copies are safe under shared holds because every
  /// mutator of mem_/version_ runs under the exclusive mode.
  Status get(const Slice& key, std::string* value) {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<TableVersion> version;
    if constexpr (SharedLockable<CentralLock>) {
      SharedLockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex, shared
      mem = mem_;
      version = version_;
    } else {
      LockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex
      mem = mem_;
      version = version_;
    }
    if (mem->get(key, value)) return Status::ok();
    for (const auto& table : version->tables) {  // newest first
      // Key-range filter, as LevelDB's Version::Get does per table
      // file — fillseq produces disjoint table ranges, so this keeps
      // the read path at ~one candidate table per lookup.
      if (key.compare(table->smallest()) < 0 ||
          key.compare(table->largest()) > 0) {
        continue;
      }
      if (table_get(*table, key, value)) return Status::ok();
    }
    return Status::not_found();
  }

  /// Range scan: up to `limit` entries with key >= `start`, ascending,
  /// newest version per key. Same locking shape as get(): the central
  /// mutex covers only the (memtable, version) snapshot — shared mode
  /// when the lock has one — and the k-way merge runs unlocked over
  /// the immutable snapshot.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<TableVersion> version;
    if constexpr (SharedLockable<CentralLock>) {
      SharedLockGuard<CentralLock> g(mu_.value);
      mem = mem_;
      version = version_;
    } else {
      LockGuard<CentralLock> g(mu_.value);
      mem = mem_;
      version = version_;
    }
    auto fetch = [this](const ImmutableTable& t, std::size_t b) {
      return read_block_cached(t, b);
    };
    for (MergeCursor cur(*mem, *version, start, fetch);
         cur.valid() && out->size() < limit; cur.next()) {
      out->emplace_back(cur.key().to_string(), cur.value().to_string());
    }
    return out->size();
  }

  /// Force the current memtable into an immutable table.
  void flush() {
    LockGuard<CentralLock> g(mu_.value);
    flush_memtable_locked();
  }

  /// Number of immutable tables (diagnostics/tests).
  std::size_t num_tables() {
    LockGuard<CentralLock> g(mu_.value);
    return version_->tables.size();
  }

  /// Entries currently buffered in the active memtable.
  std::size_t memtable_entries() {
    LockGuard<CentralLock> g(mu_.value);
    return mem_->entries();
  }

  /// Block cache statistics (hit ratio sanity in tests/benches).
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  /// Number of merge compactions performed. Takes the central mutex:
  /// compactions_ is mu_-guarded, and a torn unlocked read of a
  /// 64-bit counter is exactly the discipline slip the analysis exists
  /// to catch.
  std::uint64_t compactions() {
    LockGuard<CentralLock> g(mu_.value);
    return compactions_;
  }

 private:
  /// REQUIRES: central mutex held.
  void flush_memtable_locked() HEMLOCK_REQUIRES(mu_.value) {
    if (mem_->entries() == 0) return;
    TableBuilder builder(options_.block_fanout);
    for (MemTable::Cursor c(*mem_, Slice()); c.valid(); c.next()) {
      builder.add(c.key(), c.value());
    }
    auto table = builder.finish(next_table_id_++);
    // Copy-on-write version bump: concurrent readers keep their
    // snapshot; new readers see the new table first.
    auto next = std::make_shared<TableVersion>();
    next->tables.reserve(version_->tables.size() + 1);
    next->tables.push_back(std::move(table));
    for (const auto& t : version_->tables) next->tables.push_back(t);
    if (next->tables.size() > options_.compaction_trigger) {
      compact_locked(next.get());
    }
    version_ = std::move(next);
    mem_ = std::make_shared<MemTable>();
  }

  /// Full merge compaction: fold every table (newest wins per key)
  /// into a single replacement table. REQUIRES: central mutex held;
  /// `v` not yet published (readers keep their old snapshots).
  void compact_locked(TableVersion* v) HEMLOCK_REQUIRES(mu_.value) {
    v->tables.assign(1, merge_tables(*v, options_.block_fanout,
                                     next_table_id_++,
                                     [](const Slice&) { return true; }));
    ++compactions_;
  }

  /// Materialize one table block through the block cache (unlocked;
  /// the cache's own lookup path is a shared acquisition, so this
  /// never re-serializes concurrent shared-mode readers on a hit).
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

  /// Search one table through the block cache (unlocked).
  bool table_get(const ImmutableTable& table, const Slice& key,
                 std::string* value) {
    const std::int64_t idx = table.block_for(key);
    if (idx < 0) return false;
    return read_block_cached(table, static_cast<std::size_t>(idx))
        ->get(key, value);
  }

  DbOptions options_;
  CacheAligned<CentralLock> mu_;  ///< THE central mutex (DBImpl::Mutex)
  ShardedLruCache<Block> cache_;

  // All fields below are protected by mu_ (readers snapshot the two
  // shared_ptrs under mu_ and then operate on immutable state).
  std::shared_ptr<MemTable> mem_ HEMLOCK_GUARDED_BY(mu_.value);
  std::shared_ptr<TableVersion> version_ HEMLOCK_GUARDED_BY(mu_.value);
  std::uint64_t next_seq_ HEMLOCK_GUARDED_BY(mu_.value) = 1;
  std::uint64_t next_table_id_ HEMLOCK_GUARDED_BY(mu_.value) = 1;
  std::uint64_t compactions_ HEMLOCK_GUARDED_BY(mu_.value) = 0;
};

}  // namespace hemlock::minikv
