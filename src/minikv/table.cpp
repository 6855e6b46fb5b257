#include "minikv/table.hpp"

#include <cassert>
#include <cstring>

namespace hemlock::minikv {

namespace {

/// The key filter's one hash per key: 8 bytes at a time through a
/// multiply/xor-shift round, then the splitmix64 finalizer. Unrelated
/// to ShardedDB's FNV-1a router, so a shard's keys, which share their
/// router hash modulo the shard count, still spread over the filter.
std::uint64_t filter_hash(const Slice& key) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto round = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 32);
  };
  std::uint64_t h = (key.size() + 1) * kMul;  // the empty key too
  const char* p = key.data();
  std::size_t n = key.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = round(h, w);
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = round(h, w);
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// The line of `lines` that `hash` maps to: its high half, scaled.
std::size_t filter_line(std::uint64_t hash, std::size_t lines) {
  return static_cast<std::size_t>(((hash >> 32) * lines) >> 32);
}

/// Steps a key's probe word from one of its bits to the next. The
/// word starts as the hash's low half; each bit of the 512-bit line is
/// the word's top 9 bits (RocksDB's FastLocalBloom scheme).
constexpr std::uint32_t kProbeMul = 0x9E3779B9U;

}  // namespace

Block::Block(const char* data, std::size_t size)
    : data_(new char[size]), bytes_(size) {
  assert(size >= sizeof(std::uint32_t));
  std::memcpy(data_.get(), data, size);
  num_entries_ = detail::load_u32(data_.get() + size - sizeof(std::uint32_t));
  offsets_ = data_.get() + size - sizeof(std::uint32_t) * (num_entries_ + 1);
}

std::size_t Block::lower_bound(const Slice& key) const {
  std::size_t lo = 0, hi = num_entries_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (this->key(mid).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Block::get(const Slice& key, std::string* value) const {
  const std::size_t i = lower_bound(key);
  if (i == num_entries_ || this->key(i) != key) return false;
  const Slice v = this->value(i);
  value->assign(v.data(), v.size());
  return true;
}

TableBuilder::TableBuilder(std::size_t block_fanout) : fanout_(block_fanout) {
  assert(block_fanout > 0);
}

void TableBuilder::add(const Slice& key, const Slice& value) {
  assert(entries_ == 0 ||
         detail::entry_key(data_.data() + last_entry_).compare(key) < 0);
  if (entry_offsets_.size() == fanout_) finish_block();
  if (entry_offsets_.empty()) {  // key opens a block: index it
    block_offsets_.push_back(data_.size());
    index_offsets_.push_back(static_cast<std::uint32_t>(index_keys_.size()));
    index_keys_.append(key.data(), key.size());
  }
  key_hashes_.push_back(filter_hash(key));
  last_entry_ = data_.size();
  entry_offsets_.push_back(
      static_cast<std::uint32_t>(last_entry_ - block_offsets_.back()));
  data_.resize(last_entry_ + detail::entry_length(key, value));
  detail::encode_entry(data_.data() + last_entry_, key, value);
  ++entries_;
}

void TableBuilder::finish_block() {
  std::size_t at = data_.size();
  data_.resize(at + sizeof(std::uint32_t) * (entry_offsets_.size() + 1));
  for (const std::uint32_t off : entry_offsets_) {
    detail::store_u32(data_.data() + at, off);
    at += sizeof(std::uint32_t);
  }
  detail::store_u32(data_.data() + at,
                    static_cast<std::uint32_t>(entry_offsets_.size()));
  entry_offsets_.clear();
}

std::shared_ptr<ImmutableTable> TableBuilder::finish(std::uint64_t id) {
  return std::make_shared<ImmutableTable>(id, std::move(*this));
}

ImmutableTable::ImmutableTable(std::uint64_t id, TableBuilder&& built)
    : id_(id), entries_(built.entries_) {
  if (!built.entry_offsets_.empty()) built.finish_block();
  data_ = std::move(built.data_);
  block_offsets_ = std::move(built.block_offsets_);
  index_keys_ = std::move(built.index_keys_);
  index_offsets_ = std::move(built.index_offsets_);
  block_offsets_.push_back(data_.size());
  index_offsets_.push_back(static_cast<std::uint32_t>(index_keys_.size()));
  // The builder grew these geometrically; a table lives long.
  data_.shrink_to_fit();
  block_offsets_.shrink_to_fit();
  index_keys_.shrink_to_fit();
  index_offsets_.shrink_to_fit();
  if (entries_ > 0) {
    smallest_ = block_first_key(0);
    largest_ = detail::entry_key(data_.data() + built.last_entry_);
  }
  filter_lines_ = (entries_ * kFilterBitsPerKey + 511) / 512;
  filter_ = std::make_unique<FilterLine[]>(filter_lines_);  // zeroed
  for (const std::uint64_t h : built.key_hashes_) {
    FilterLine& line = filter_[filter_line(h, filter_lines_)];
    std::uint32_t probe = static_cast<std::uint32_t>(h);
    for (int i = 0; i < kFilterProbes; ++i, probe *= kProbeMul) {
      const std::uint32_t bit = probe >> 23;
      line.words[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
}

bool ImmutableTable::may_contain(const Slice& key) const {
  if (filter_lines_ == 0) return false;  // no keys
  const std::uint64_t h = filter_hash(key);
  const FilterLine& line = filter_[filter_line(h, filter_lines_)];
  std::uint32_t probe = static_cast<std::uint32_t>(h);
  for (int i = 0; i < kFilterProbes; ++i, probe *= kProbeMul) {
    const std::uint32_t bit = probe >> 23;
    if ((line.words[bit / 64] >> (bit % 64) & 1) == 0) return false;
  }
  return true;
}

std::int64_t ImmutableTable::block_for(const Slice& key) const {
  // Last block whose first key is <= key: count the blocks whose
  // first key is <= key, then step back one.
  std::size_t lo = 0, hi = num_blocks();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key.compare(block_first_key(mid)) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<std::int64_t>(lo) - 1;  // -1: below the table
}

std::shared_ptr<Block> ImmutableTable::read_block(std::size_t idx) const {
  assert(idx < num_blocks());
  return std::make_shared<Block>(data_.data() + block_offsets_[idx],
                                 block_offsets_[idx + 1] - block_offsets_[idx]);
}

}  // namespace hemlock::minikv
