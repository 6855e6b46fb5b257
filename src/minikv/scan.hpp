// scan.hpp — newest-wins merge cursor over one (memtable, version)
// snapshot, fetching table blocks lazily.
//
// Both DB<Lock>::scan() and ShardedDB::scan() walk the same shape of
// snapshot: one mutable memtable plus a newest-first list of immutable
// tables, each individually sorted and de-duplicated. MergeCursor is
// the single k-way merge over those sources: ascending key order, and
// where several sources carry the same key the newest source wins
// (memtable, then tables in version order) — the scan twin of the
// point-lookup search order. The central DB drains one cursor;
// ShardedDB runs one per shard under a heap. TableSet's compaction
// drains one over the tables alone into a TableBuilder (merge_tables).
//
// Table blocks come through the caller's fetch hook (so they flow
// through the owning DB's block cache), and only when a row needs
// them. A table cursor parked on the first entry of a block reads that
// key from the table's index and fetches the block only to read the
// value or to step past the entry; the merge reads the value of the
// winning source only. A bounded scan therefore fetches the blocks
// whose rows it visits, plus at most one block per table to find the
// first key >= start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "minikv/memtable.hpp"
#include "minikv/slice.hpp"
#include "minikv/table.hpp"

namespace hemlock::minikv {

namespace detail {

/// Forward cursor over one ImmutableTable from the first key >=
/// start. Fetches a block through the caller's hook only when the
/// position inside it is not the block's first entry, or when the
/// value is read or the cursor steps on.
template <typename Fetch>
class TableCursor {
 public:
  TableCursor(const ImmutableTable& table, const Slice& start, Fetch& fetch)
      : table_(&table), fetch_(&fetch) {
    if (table.num_entries() == 0 || start.compare(table.largest()) > 0) {
      block_idx_ = table.num_blocks();  // invalid
      return;
    }
    const std::int64_t idx = table.block_for(start);
    if (idx < 0) return;  // start below the table: its first entry
    block_idx_ = static_cast<std::size_t>(idx);
    if (table.block_first_key(block_idx_) == start) return;
    // start falls inside the block: only the block knows where.
    load_block();
    entry_idx_ = block_->lower_bound(start);
    leave_exhausted_block();
  }

  bool valid() const { return block_idx_ < table_->num_blocks(); }
  /// No fetch: an unfetched position is its block's first entry.
  Slice key() const {
    return block_ != nullptr ? block_->key(entry_idx_)
                             : table_->block_first_key(block_idx_);
  }
  Slice value() {
    load_block();
    return block_->value(entry_idx_);
  }

  void next() {
    load_block();
    ++entry_idx_;
    leave_exhausted_block();
  }

 private:
  void load_block() {
    if (block_ == nullptr) block_ = (*fetch_)(*table_, block_idx_);
  }
  /// Past the block's last entry: park on the next block's first
  /// entry, unfetched (blocks are never empty).
  void leave_exhausted_block() {
    if (entry_idx_ < block_->size()) return;
    ++block_idx_;
    entry_idx_ = 0;
    block_.reset();
  }

  const ImmutableTable* table_;
  Fetch* fetch_;
  std::shared_ptr<Block> block_;  ///< null: at block_idx_'s first entry
  std::size_t block_idx_ = 0;
  std::size_t entry_idx_ = 0;
};

}  // namespace detail

/// Merge cursor over the snapshot (mem, version) from the first key >=
/// `start`, ascending, positioned on the NEWEST version of each key.
/// `fetch(table, block_idx) -> std::shared_ptr<Block>` materializes
/// table blocks (normally via the DB's block cache); it, `mem` and
/// `version` must outlive the cursor.
///
/// Values are handed through verbatim — a layer that encodes
/// tombstones in its values (ShardedDB) filters them itself, where a
/// suppressed key has still shadowed its older versions here.
template <typename Fetch>
class MergeCursor {
 public:
  MergeCursor(const MemTable& mem, const TableVersion& version,
              const Slice& start, Fetch& fetch)
      : mem_(mem, start) {
    tables_.reserve(version.tables.size());
    for (const auto& t : version.tables) {  // newest first
      tables_.emplace_back(*t, start, fetch);
    }
    pick();
  }

  bool valid() const { return cur_ != kDone; }
  /// REQUIRES valid(). Stays valid until next().
  Slice key() const { return key_of(cur_); }
  /// REQUIRES valid(). May fetch the winning table's block.
  Slice value() {
    return cur_ == kMem ? mem_.value() : tables_[cur_ - 1].value();
  }

  /// REQUIRES valid(). Advance to the next key.
  void next() {
    // Older versions of this key sit in sources after the winner (a
    // tie goes to the earliest source). Step them first: the winner's
    // key points into the winner, which has not moved yet.
    const Slice done = key();
    for (std::size_t i = cur_ + 1; i <= tables_.size(); ++i) {
      if (tables_[i - 1].valid() && tables_[i - 1].key() == done) {
        tables_[i - 1].next();
      }
    }
    if (cur_ == kMem) {
      mem_.next();
    } else {
      tables_[cur_ - 1].next();
    }
    pick();
  }

 private:
  // Source i: 0 is the memtable, i >= 1 is tables_[i - 1].
  static constexpr std::size_t kMem = 0;
  static constexpr std::size_t kDone = ~std::size_t{0};

  Slice key_of(std::size_t i) const {
    return i == kMem ? mem_.key() : tables_[i - 1].key();
  }

  /// Make the source with the smallest key current; strict < keeps
  /// the earliest (newest) source on ties.
  void pick() {
    cur_ = mem_.valid() ? kMem : kDone;
    for (std::size_t i = 1; i <= tables_.size(); ++i) {
      if (tables_[i - 1].valid() &&
          (cur_ == kDone || tables_[i - 1].key().compare(key_of(cur_)) < 0)) {
        cur_ = i;
      }
    }
  }

  MemTable::Cursor mem_;
  std::vector<detail::TableCursor<Fetch>> tables_;
  std::size_t cur_ = kDone;
};

/// Full merge compaction: every table of `version` folded newest-wins
/// into one table `id`, keeping the rows whose value `keep` accepts.
template <typename Keep>
std::shared_ptr<ImmutableTable> merge_tables(const TableVersion& version,
                                             std::size_t block_fanout,
                                             std::uint64_t id, Keep keep) {
  const MemTable none;
  auto fetch = [](const ImmutableTable& t, std::size_t b) {
    return t.read_block(b);  // uncached: each block is read once
  };
  TableBuilder builder(block_fanout);
  for (MergeCursor cur(none, version, Slice(), fetch); cur.valid();
       cur.next()) {
    const Slice value = cur.value();
    if (keep(value)) builder.add(cur.key(), value);
  }
  return builder.finish(id);
}

}  // namespace hemlock::minikv
