#include "minikv/table.hpp"

#include <cassert>
#include <cstring>

namespace hemlock::minikv {

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
