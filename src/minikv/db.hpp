// db.hpp — the central MiniKV front end: LevelDB's locking
// architecture with a pluggable central mutex.
//
// This is the Figure-8 substrate. The paper: "LevelDB uses
// coarse-grained locking, protecting the database with a single
// central mutex: DBImpl::Mutex. Profiling indicates contention on
// that lock via leveldb::DBImpl::Get()." DB<Lock> owns exactly that
// discipline and nothing else:
//
//  * ONE central mutex (the template parameter — Hemlock, MCS, CLH,
//    Ticket, ... are swapped in exactly where the paper's LD_PRELOAD
//    interposition swapped pthread_mutex implementations);
//  * get() and scan() take the central mutex *briefly* to copy the
//    shared_ptrs to the current memtable and table version (LevelDB's
//    Version refs), shared mode when the lock has one, then search
//    OUTSIDE the lock — so the benchmark's critical sections are
//    short and arrival-rate-bound, as in the paper's profile;
//  * put() serializes whole writes under the mutex (LevelDB's writer
//    queue collapses to this under db_bench's single-writer fill),
//    and flushes inline when the memtable is full: no background
//    threads, so tests stay deterministic.
//
// Storage — the flush, compaction, table search and block cache — is
// the TableSet core (table_set.hpp) that ShardedDB drives too. There
// are no deletes at this layer, so compaction keeps every row.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "locks/lockable.hpp"
#include "minikv/memtable.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/table.hpp"
#include "minikv/table_set.hpp"
#include "runtime/annotations.hpp"
#include "runtime/cacheline.hpp"

namespace hemlock::minikv {

/// DB tuning knobs: the storage options, nothing of its own.
using DbOptions = StorageOptions;

/// MiniKV database with central mutex of type CentralLock.
template <BasicLockable CentralLock>
class DB {
 public:
  /// `lock_args` go to the central mutex's constructor — how a
  /// type-erased CentralLock (AnyLock) names its algorithm at run
  /// time: DB<AnyLock> db(DbOptions{}, "mcs");
  template <typename... LockArgs>
  explicit DB(DbOptions options = DbOptions{}, LockArgs&&... lock_args)
      : mu_(std::forward<LockArgs>(lock_args)...),
        tables_(options),
        mem_(std::make_shared<MemTable>()),
        version_(std::make_shared<TableVersion>()) {}

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Insert or overwrite key -> value.
  Status put(const Slice& key, const Slice& value) {
    LockGuard<CentralLock> g(mu_.value);
    mem_->add(next_seq_++, key, value);
    if (tables_.full(*mem_)) flush_locked();
    return Status::ok();
  }

  /// Point lookup. The central-mutex critical section is only the
  /// snapshot; the search runs unlocked.
  Status get(const Slice& key, std::string* value) {
    const Snapshot s = snapshot();
    return tables_.get(*s.mem, *s.version, key, value) ? Status::ok()
                                                       : Status::not_found();
  }

  /// Range scan: up to `limit` entries with key >= `start`, ascending,
  /// newest version per key. Same locking shape as get(): the k-way
  /// merge runs unlocked over the snapshot.
  std::size_t scan(const Slice& start, std::size_t limit,
                   std::vector<std::pair<std::string, std::string>>* out) {
    out->clear();
    if (limit == 0) return 0;
    const Snapshot s = snapshot();
    for (auto cur = tables_.cursor(*s.mem, *s.version, start);
         cur.valid() && out->size() < limit; cur.next()) {
      out->emplace_back(cur.key().to_string(), cur.value().to_string());
    }
    return out->size();
  }

  /// Force the current memtable into an immutable table.
  void flush() {
    LockGuard<CentralLock> g(mu_.value);
    flush_locked();
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
  std::uint64_t cache_hits() const { return tables_.cache_hits(); }
  std::uint64_t cache_misses() const { return tables_.cache_misses(); }
  /// Number of merge compactions performed.
  std::uint64_t compactions() const { return tables_.compactions(); }

 private:
  struct Snapshot {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<TableVersion> version;
  };

  /// Copy the (memtable, version) pair under the central mutex — as a
  /// *reader* when the lock has a shared mode (an rwlock, or an
  /// AnyLock naming one), so concurrent gets no longer serialize on
  /// the Figure-8 bottleneck. Safe: every mutator of mem_/version_
  /// holds the exclusive mode.
  Snapshot snapshot() {
    if constexpr (SharedLockable<CentralLock>) {
      SharedLockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex, shared
      return {mem_, version_};
    } else {
      LockGuard<CentralLock> g(mu_.value);  // DBImpl::Mutex
      return {mem_, version_};
    }
  }

  /// Swap in the flushed version and a fresh memtable. Readers keep
  /// their snapshots; new readers see the new table first.
  void flush_locked() HEMLOCK_REQUIRES(mu_.value) {
    auto next = tables_.flushed(*mem_, *version_,
                                [](const Slice&) { return true; });
    if (next == nullptr) return;
    version_ = std::move(next);
    mem_ = std::make_shared<MemTable>();
  }

  CacheAligned<CentralLock> mu_;  ///< THE central mutex (DBImpl::Mutex)
  TableSet tables_;

  // Protected by mu_: readers copy the two shared_ptrs under mu_ and
  // then search immutable state.
  std::shared_ptr<MemTable> mem_ HEMLOCK_GUARDED_BY(mu_.value);
  std::shared_ptr<TableVersion> version_ HEMLOCK_GUARDED_BY(mu_.value);
  std::uint64_t next_seq_ HEMLOCK_GUARDED_BY(mu_.value) = 1;
};

}  // namespace hemlock::minikv
