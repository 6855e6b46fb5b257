// table.hpp — immutable sorted tables ("SSTables") for flushed data.
//
// When the memtable reaches its flush threshold the DB streams it
// through a TableBuilder into an ImmutableTable: entries packed into
// fixed-fanout blocks with a sparse index of block-first-keys. Point
// lookups binary search the index, fetch the block (through the DB's
// block cache — cache.hpp), and binary search inside it. This mirrors
// LevelDB's table/block/cache structure closely enough that the
// Figure-8 readrandom workload exercises the same code shape: a short
// central-mutex critical section, then block-cache + search work
// outside it.
//
// Byte layout. A table is one buffer holding its blocks back to back;
// a block is
//
//   entry[0] .. entry[n-1] | u32 offset[0] .. u32 offset[n-1] | u32 n
//
// where an entry is `varint32 klen | key | varint32 vlen | value`
// (coding.hpp) and offset[i] is entry i's byte offset from the block's
// start. The index is every block's first key packed back to back in
// a second buffer, with an offset array. No key is a separate heap
// object, so a probe touches the buffer and nothing behind a pointer.
//
// Key filter. Each table carries a blocked Bloom filter over its keys
// (LevelDB's FilterPolicy, in the cache-line-blocked shape): an array
// of 64-byte lines, ceil(entries * 10 / 512) of them, so 10 bits per
// key rounded up to a whole line. A key's one 64-bit hash picks its
// line with the high half and its 6 bits inside that line with the low
// half (each probe is the top 9 bits of a running 32-bit product), so
// a lookup costs one cache miss, not one per probe. ~1% of absent
// keys pass; no present key is ever rejected. TableBuilder::add
// hashes each key as it streams in, and the table sets every bit in
// one pass when it is sealed, so flush and compaction build it alike.
//
// Why a miss copies. In LevelDB a block-cache miss is a file read plus
// a decode; here the table's bytes are already in memory, so
// read_block() copies the block's byte range into a fresh buffer (one
// allocation, one memcpy). That keeps the miss dearer than a hit, the
// asymmetry the block cache exists to exploit, without charging a
// malloc per key.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minikv/coding.hpp"
#include "minikv/slice.hpp"

namespace hemlock::minikv {

/// One table block, owning a copy of its encoded bytes. Blocks are
/// immutable and shared via shared_ptr (the block cache hands out
/// references that outlive evictions).
class Block {
 public:
  /// The empty block.
  Block() = default;
  /// Copy of an encoded block (layout in the file header).
  Block(const char* data, std::size_t size);

  /// Number of entries.
  std::size_t size() const { return num_entries_; }
  /// Key of entry i (REQUIRES i < size()); points into the block.
  Slice key(std::size_t i) const { return detail::entry_key(entry(i)); }
  /// Value of entry i (REQUIRES i < size()); points into the block.
  Slice value(std::size_t i) const { return detail::entry_value(entry(i)); }

  /// Index of the first entry with key >= `key` (size() if none).
  std::size_t lower_bound(const Slice& key) const;
  /// Binary search inside the block.
  bool get(const Slice& key, std::string* value) const;

  /// Heap bytes held, for cache accounting.
  std::size_t charge() const { return sizeof(Block) + bytes_; }

 private:
  const char* entry(std::size_t i) const {
    return data_.get() +
           detail::load_u32(offsets_ + sizeof(std::uint32_t) * i);
  }

  std::unique_ptr<char[]> data_;
  std::size_t bytes_ = 0;
  const char* offsets_ = nullptr;  ///< into data_
  std::size_t num_entries_ = 0;
};

class ImmutableTable;

/// Streams ascending (key, value) pairs into an ImmutableTable's
/// buffers. Keys must be strictly ascending (bytewise).
class TableBuilder {
 public:
  explicit TableBuilder(std::size_t block_fanout);

  /// Append the next entry.
  void add(const Slice& key, const Slice& value);

  /// Seal the table, consuming the builder; `id` must be
  /// process-unique (block-cache key space).
  std::shared_ptr<ImmutableTable> finish(std::uint64_t id);

 private:
  friend class ImmutableTable;

  void finish_block();

  std::size_t fanout_;
  std::size_t entries_ = 0;
  std::string data_;                         ///< sealed blocks
  std::vector<std::uint64_t> key_hashes_;    ///< filter input, one per key
  std::vector<std::size_t> block_offsets_;   ///< each block's start
  std::string index_keys_;                   ///< first keys, packed
  std::vector<std::uint32_t> index_offsets_; ///< each first key's start
  std::vector<std::uint32_t> entry_offsets_; ///< open block's entries
  std::size_t last_entry_ = 0;               ///< newest entry's offset
};

/// Immutable sorted table; built by TableBuilder.
class ImmutableTable {
 public:
  /// Takes `built`'s buffers (use TableBuilder::finish).
  ImmutableTable(std::uint64_t id, TableBuilder&& built);

  ImmutableTable(const ImmutableTable&) = delete;
  ImmutableTable& operator=(const ImmutableTable&) = delete;

  /// Process-unique table id.
  std::uint64_t id() const { return id_; }
  /// Number of blocks.
  std::size_t num_blocks() const { return block_offsets_.size() - 1; }
  /// Total number of entries.
  std::size_t num_entries() const { return entries_; }

  /// Index of the block that could contain `key`, or -1 when out of
  /// range (key below the table's first key or table empty).
  std::int64_t block_for(const Slice& key) const;

  /// First key of block `idx`, read from the index: no block fetch.
  Slice block_first_key(std::size_t idx) const {
    return Slice(index_keys_.data() + index_offsets_[idx],
                 index_offsets_[idx + 1] - index_offsets_[idx]);
  }

  /// Materialize block `idx`: the cache-miss path (see the header).
  std::shared_ptr<Block> read_block(std::size_t idx) const;

  /// False when the key filter rules `key` out: the table does not
  /// hold it. True for every key it holds, and ~1% of the others.
  bool may_contain(const Slice& key) const;
  /// Heap bytes of the key filter.
  std::size_t filter_bytes() const {
    return filter_lines_ * sizeof(FilterLine);
  }

  /// First key of the table (empty if no entries).
  Slice smallest() const { return smallest_; }
  /// Last key of the table (empty if no entries).
  Slice largest() const { return largest_; }

  static constexpr std::size_t kDefaultBlockFanout = 16;
  /// Key filter shape (file header).
  static constexpr std::size_t kFilterBitsPerKey = 10;
  static constexpr int kFilterProbes = 6;

 private:
  /// One cache line of filter bits.
  struct alignas(64) FilterLine {
    std::uint64_t words[8];
  };

  std::uint64_t id_;
  std::size_t entries_;
  std::unique_ptr<FilterLine[]> filter_;
  std::size_t filter_lines_ = 0;
  std::string data_;
  std::vector<std::size_t> block_offsets_;  ///< num_blocks() + 1 bounds
  std::string index_keys_;
  std::vector<std::uint32_t> index_offsets_;  ///< num_blocks() + 1 bounds
  // Into data_ and index_keys_, set once those are in place: a moved
  // short string does not keep its address.
  Slice smallest_, largest_;
};

/// Version: the immutable set of tables current at some instant.
/// Snapshotted under a DB's central (or shard) lock, searched outside
/// it — newest table first, exactly LevelDB's read path across
/// levels. (Declared here, next to the tables it aggregates, so the
/// single-lock DB, the sharded DB and the merge cursor all share
/// one definition.)
struct TableVersion {
  std::vector<std::shared_ptr<ImmutableTable>> tables;  // newest first
};

}  // namespace hemlock::minikv
