// coding.hpp — byte encodings shared by the memtable and table
// formats: LevelDB's varint32, host-order fixed32, and the entry
// encoding both formats store,
//   varint32 key_size | key bytes | varint32 value_size | value bytes
#pragma once

#include <cstdint>
#include <cstring>

#include "minikv/slice.hpp"

namespace hemlock::minikv::detail {

/// Varint32 encode (LevelDB wire format); returns past-the-end.
inline char* encode_varint32(char* dst, std::uint32_t v) {
  auto* ptr = reinterpret_cast<std::uint8_t*>(dst);
  static constexpr int kMsb = 128;
  while (v >= kMsb) {
    *(ptr++) = static_cast<std::uint8_t>(v | kMsb);
    v >>= 7;
  }
  *(ptr++) = static_cast<std::uint8_t>(v);
  return reinterpret_cast<char*>(ptr);
}

/// Varint32 decode; advances *p.
inline std::uint32_t decode_varint32(const char** p) {
  const auto* ptr = reinterpret_cast<const std::uint8_t*>(*p);
  std::uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    const std::uint32_t byte = *ptr++;
    result |= (byte & 127) << shift;
    if ((byte & 128) == 0) break;
  }
  *p = reinterpret_cast<const char*>(ptr);
  return result;
}

/// Bytes needed to varint32-encode v.
inline std::size_t varint32_length(std::uint32_t v) {
  std::size_t len = 1;
  while (v >= 128) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Unaligned host-order u32 load/store (tables never leave the
/// process, so no byte swap).
inline std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store_u32(char* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Encoded size of the entry (key, value).
inline std::size_t entry_length(const Slice& key, const Slice& value) {
  return varint32_length(static_cast<std::uint32_t>(key.size())) +
         key.size() +
         varint32_length(static_cast<std::uint32_t>(value.size())) +
         value.size();
}

/// Encode (key, value) at dst; returns past-the-end.
inline char* encode_entry(char* dst, const Slice& key, const Slice& value) {
  char* p = encode_varint32(dst, static_cast<std::uint32_t>(key.size()));
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  p = encode_varint32(p, static_cast<std::uint32_t>(value.size()));
  std::memcpy(p, value.data(), value.size());
  return p + value.size();
}

/// Key view of an encoded entry.
inline Slice entry_key(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  return Slice(p, klen);
}

/// Value view of an encoded entry.
inline Slice entry_value(const char* entry) {
  const char* p = entry;
  const std::uint32_t klen = decode_varint32(&p);
  p += klen;
  const std::uint32_t vlen = decode_varint32(&p);
  return Slice(p, vlen);
}

}  // namespace hemlock::minikv::detail
