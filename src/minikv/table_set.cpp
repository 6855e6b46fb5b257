#include "minikv/table_set.hpp"

#include <utility>

namespace hemlock::minikv {

TableSet::TableSet(const StorageOptions& options)
    : options_(options), cache_(options.block_cache_bytes) {}

bool TableSet::get(const MemTable& mem, const TableVersion& version,
                   const Slice& key, std::string* value) {
  if (mem.get(key, value)) return true;
  for (const auto& table : version.tables) {  // newest first
    // Key-range filter, as LevelDB's Version::Get does per table
    // file: fillseq produces disjoint table ranges, so this keeps the
    // read path at ~one candidate table per lookup.
    if (key.compare(table->smallest()) < 0 ||
        key.compare(table->largest()) > 0) {
      continue;
    }
    // Key filter: random puts flush tables that span the whole range,
    // so the range filter passes them all; the Bloom filter skips the
    // ones that do not hold the key before any block is touched.
    if (!table->may_contain(key)) continue;
    const std::int64_t idx = table->block_for(key);
    if (idx >= 0 &&
        block(*table, static_cast<std::size_t>(idx))->get(key, value)) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<TableVersion> TableSet::flushed(const MemTable& mem,
                                                const TableVersion& version,
                                                Keep keep) {
  if (mem.entries() == 0) return nullptr;
  TableBuilder builder(options_.block_fanout);
  for (MemTable::Cursor c(mem, Slice()); c.valid(); c.next()) {
    builder.add(c.key(), c.value());
  }
  auto table = builder.finish(new_table_id());
  // Copy-on-write: readers of `version` keep it; the new table goes
  // first (newest).
  auto next = std::make_unique<TableVersion>();
  next->tables.reserve(version.tables.size() + 1);
  next->tables.push_back(std::move(table));
  for (const auto& t : version.tables) next->tables.push_back(t);
  if (next->tables.size() > options_.compaction_trigger) {
    // Full merge compaction of the unpublished version: every table,
    // newest wins per key, folded into one.
    next->tables.assign(1, merge_tables(*next, options_.block_fanout,
                                        new_table_id(), keep));
    compactions_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
    // The folded tables leave with `version`: drop their cached blocks
    // now instead of waiting for LRU pressure, as LevelDB's
    // TableCache::Evict does for a deleted file. (The new table in
    // front was never published, so none of its blocks is cached.) A
    // reader still on `version` may re-insert a block it fetches; the
    // LRU ages that out.
    for (const auto& t : version.tables) {
      for (std::size_t b = 0; b < t->num_blocks(); ++b) {
        cache_.erase(BlockKey{t->id(), static_cast<std::uint32_t>(b)});
      }
    }
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);  // mo: stats
  return next;
}

std::shared_ptr<Block> TableSet::block(const ImmutableTable& table,
                                       std::size_t idx) {
  const BlockKey bkey{table.id(), static_cast<std::uint32_t>(idx)};
  std::shared_ptr<Block> block = cache_.lookup(bkey);
  if (block == nullptr) {
    block = table.read_block(idx);
    cache_.insert(bkey, block, block->charge());
  }
  return block;
}

}  // namespace hemlock::minikv
