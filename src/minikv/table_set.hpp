// table_set.hpp — the MiniKV storage core both front ends drive.
//
// DB<Lock> (db.hpp) and ShardedDB (sharded_db.hpp) differ only in how
// they protect and publish a (memtable, TableVersion) snapshot. The
// rest lives here once: the storage options, the block cache and the
// cached block fetch, the DB-unique table ids, the point lookup over
// a snapshot (memtable, then tables newest first behind their key
// range filter, as LevelDB's Version::Get, and then their Bloom key
// filter, as LevelDB's FilterPolicy: a table that cannot hold the key
// costs no block fetch) and the flush, which streams a memtable into
// a new table and folds every table into one past compaction_trigger,
// dropping the folded tables' blocks from the cache. Which rows that
// fold keeps is the caller's `keep` predicate: only the front end
// knows how it encodes a delete.
//
// A TableSet holds no snapshot and takes no lock: callers search the
// snapshot they protected and call flushed() under their writer lock.
// Its counters are atomic because ShardedDB flushes shards into one
// TableSet concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "minikv/cache.hpp"
#include "minikv/memtable.hpp"
#include "minikv/scan.hpp"
#include "minikv/slice.hpp"
#include "minikv/table.hpp"

namespace hemlock::minikv {

/// Storage tuning knobs (a small subset of leveldb::Options).
struct StorageOptions {
  /// Memtable budget before an inline flush to an immutable table.
  std::size_t write_buffer_bytes = 1 << 20;  // 1 MiB
  /// Block cache capacity. Sized to hold db_bench-scale working sets:
  /// LevelDB's reads are effectively memory-speed in the paper's
  /// Figure-8 runs (the OS page cache holds the whole database), and
  /// the benchmark's subject is the lock, not disk I/O.
  std::size_t block_cache_bytes = 256 << 20;  // 256 MiB
  /// Entries per table block.
  std::size_t block_fanout = ImmutableTable::kDefaultBlockFanout;
  /// Merge all immutable tables into one when their count exceeds
  /// this (MiniKV's stand-in for LevelDB's compaction, keeping the
  /// read path's table fan-out bounded).
  std::size_t compaction_trigger = 8;
};

/// Flush, compaction, table search and the block cache of one DB.
class TableSet {
 public:
  /// Which rows a compaction keeps, judged by value.
  using Keep = bool (*)(const Slice& value);

  /// The cached block fetch, in the shape MergeCursor takes.
  struct Fetch {
    TableSet* set;
    std::shared_ptr<Block> operator()(const ImmutableTable& table,
                                      std::size_t idx) const {
      return set->block(table, idx);
    }
  };
  using Cursor = MergeCursor<Fetch>;

  explicit TableSet(const StorageOptions& options);
  TableSet(const TableSet&) = delete;
  TableSet& operator=(const TableSet&) = delete;

  /// Whether `mem` has outgrown its budget and should be flushed.
  bool full(const MemTable& mem) const {
    return mem.approximate_memory_usage() >= options_.write_buffer_bytes;
  }

  /// Point lookup in the snapshot (mem, version): the memtable, then
  /// the tables newest first, skipping those whose key range misses
  /// or whose key filter rules the key out. Copies the newest value
  /// into *value; a miss leaves *value untouched.
  bool get(const MemTable& mem, const TableVersion& version,
           const Slice& key, std::string* value);

  /// Newest-wins merge over the snapshot from the first key >= start,
  /// blocks through the cache. The snapshot must outlive the cursor.
  Cursor cursor(const MemTable& mem, const TableVersion& version,
                const Slice& start) {
    return Cursor(mem, version, start, fetch_);
  }

  /// The version that replaces `version` once `mem` is flushed: a new
  /// table from `mem` in front of `version`'s tables, folded into one
  /// table (rows `keep` rejects dropped) past compaction_trigger, in
  /// which case the folded tables' blocks leave the block cache.
  /// nullptr when `mem` is empty. REQUIRES: the caller's writer lock
  /// over (mem, version); the caller publishes the result along with
  /// a fresh memtable.
  std::unique_ptr<TableVersion> flushed(const MemTable& mem,
                                        const TableVersion& version,
                                        Keep keep);

  /// Block `idx` of `table` through the block cache.
  std::shared_ptr<Block> block(const ImmutableTable& table, std::size_t idx);

  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  std::uint64_t flushes() const {
    return flushes_.load(std::memory_order_relaxed);  // mo: stats
  }
  std::uint64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);  // mo: stats
  }

 private:
  std::uint64_t new_table_id() {
    // mo: relaxed — unique-ID counter; uniqueness, not ordering.
    return next_table_id_.fetch_add(1, std::memory_order_relaxed);
  }

  StorageOptions options_;
  ShardedLruCache<Block> cache_;
  Fetch fetch_{this};
  std::atomic<std::uint64_t> next_table_id_{1};  ///< DB-unique (cache keys)
  std::atomic<std::uint64_t> flushes_{0}, compactions_{0};
};

}  // namespace hemlock::minikv
