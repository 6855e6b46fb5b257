// test_minikv.cpp — unit and integration tests for the MiniKV
// substrate (the Figure-8 LevelDB substitute): slice, varint
// encoding, arena, skiplist, memtable, immutable tables and their key
// filters, the sharded LRU cache, the TableSet storage core, and the
// DB facade with its pluggable central mutex.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hemlock.hpp"
#include "locks/mcs.hpp"
#include "locks/std_adapter.hpp"
#include "locks/system.hpp"
#include "minikv/arena.hpp"
#include "minikv/cache.hpp"
#include "minikv/db.hpp"
#include "minikv/db_bench.hpp"
#include "minikv/memtable.hpp"
#include "minikv/skiplist.hpp"
#include "minikv/slice.hpp"
#include "minikv/status.hpp"
#include "minikv/table.hpp"
#include "minikv/table_set.hpp"

namespace hemlock::minikv {
namespace {

// ---------------------------------------------------------- Slice --
TEST(Slice, BasicViewsAndCompare) {
  Slice a("abc");
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.to_string(), "abc");
  EXPECT_TRUE(Slice("") .empty());
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);   // prefix sorts first
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
  Slice b("hello world");
  b.remove_prefix(6);
  EXPECT_EQ(b.to_string(), "world");
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

// --------------------------------------------------------- varint --
TEST(Varint, RoundTripsAllWidths) {
  for (std::uint32_t v : {0u, 1u, 127u, 128u, 300u, 16383u, 16384u,
                          2097151u, 268435455u, 4294967295u}) {
    char buf[8];
    char* end = detail::encode_varint32(buf, v);
    EXPECT_EQ(static_cast<std::size_t>(end - buf),
              detail::varint32_length(v));
    const char* p = buf;
    EXPECT_EQ(detail::decode_varint32(&p), v);
    EXPECT_EQ(p, end);
  }
}

// ----------------------------------------------------------- Arena --
TEST(Arena, AllocatesAndAccountsMemory) {
  Arena arena;
  EXPECT_EQ(arena.memory_usage(), 0u);
  char* p1 = arena.allocate(100);
  ASSERT_NE(p1, nullptr);
  std::memset(p1, 0xAB, 100);
  EXPECT_GT(arena.memory_usage(), 0u);
  // Aligned allocations are pointer-aligned.
  for (int i = 0; i < 50; ++i) {
    arena.allocate(3);  // misalign the bump pointer
    char* q = arena.allocate_aligned(16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(void*), 0u);
  }
  // Large allocations get dedicated blocks.
  char* big = arena.allocate(8192);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 8192);
}

// -------------------------------------------------------- SkipList --
struct IntCmp {
  int operator()(std::uint64_t a, std::uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  std::mt19937 rng(42);
  std::set<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng() % 10000 + 1;  // avoid 0 (head key)
    if (inserted.insert(v).second) list.insert(v);
  }
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    EXPECT_EQ(list.contains(v), inserted.count(v) == 1) << v;
  }
}

TEST(SkipListTest, IterationIsSorted) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  for (std::uint64_t v : {5u, 1u, 9u, 3u, 7u}) list.insert(v);
  SkipList<std::uint64_t, IntCmp>::Iterator it(&list);
  std::vector<std::uint64_t> got;
  for (it.seek_to_first(); it.valid(); it.next()) got.push_back(it.key());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 3, 5, 7, 9}));
  it.seek(4);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 5u);
  it.seek(10);
  EXPECT_FALSE(it.valid());
}

TEST(SkipListTest, AppendsInterleaveWithOrderedInserts) {
  // Ascending runs take the append path; the smaller and interleaved
  // keys between them take the search path and must leave the
  // per-level tails right for the next run.
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  std::set<std::uint64_t> model;
  auto insert = [&](std::uint64_t v) {
    if (model.insert(v).second) list.insert(v);
  };
  for (std::uint64_t v = 1000; v < 3000; v += 2) insert(v);  // ascending
  for (std::uint64_t v = 1; v < 1000; v += 3) insert(v);     // below
  for (std::uint64_t v = 2999; v > 1000; v -= 10) insert(v); // interleaved
  insert(2999 + 2);                                          // new tail
  for (std::uint64_t v = 5000; v < 8000; ++v) insert(v);     // ascending
  SkipList<std::uint64_t, IntCmp>::Iterator it(&list);
  std::vector<std::uint64_t> got;
  for (it.seek_to_first(); it.valid(); it.next()) got.push_back(it.key());
  EXPECT_EQ(got, std::vector<std::uint64_t>(model.begin(), model.end()));
  for (std::uint64_t v = 1; v <= 8001; ++v) {
    ASSERT_EQ(list.contains(v), model.count(v) == 1) << v;
  }
}

TEST(SkipListTest, ConcurrentReadersWithOneWriter) {
  Arena arena;
  SkipList<std::uint64_t, IntCmp> list(IntCmp{}, &arena);
  constexpr std::uint64_t kMax = 20000;
  std::atomic<std::uint64_t> watermark{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    // r by value: the thread outlives the loop iteration's scope.
    readers.emplace_back([&, r] {
      std::mt19937 rng(r + 1);
      while (watermark.load(std::memory_order_acquire) < kMax) {
        const std::uint64_t w = watermark.load(std::memory_order_acquire);
        if (w == 0) continue;
        const std::uint64_t probe = rng() % w + 1;
        // Everything at or below the watermark must be present.
        if (!list.contains(probe)) failed.store(true);
      }
    });
  }
  for (std::uint64_t v = 1; v <= kMax; ++v) {
    list.insert(v);
    watermark.store(v, std::memory_order_release);
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

// -------------------------------------------------------- MemTable --
TEST(MemTableTest, AddGetNewestWins) {
  MemTable mem;
  std::string v;
  EXPECT_FALSE(mem.get("k", &v));
  mem.add(1, "k", "v1");
  ASSERT_TRUE(mem.get("k", &v));
  EXPECT_EQ(v, "v1");
  mem.add(2, "k", "v2");  // overwrite: newest must win
  ASSERT_TRUE(mem.get("k", &v));
  EXPECT_EQ(v, "v2");
  EXPECT_FALSE(mem.get("other", &v));
  EXPECT_EQ(mem.entries(), 2u);
}

TEST(MemTableTest, DistinctKeysAndEmptyValues) {
  MemTable mem;
  mem.add(1, "a", "");
  mem.add(2, "ab", "x");
  mem.add(3, "b", std::string(1000, 'z'));
  std::string v;
  ASSERT_TRUE(mem.get("a", &v));
  EXPECT_EQ(v, "");
  ASSERT_TRUE(mem.get("ab", &v));
  EXPECT_EQ(v, "x");
  ASSERT_TRUE(mem.get("b", &v));
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_FALSE(mem.get("aa", &v));
}

TEST(MemTableTest, CursorYieldsNewestValuePerKeyAscending) {
  MemTable mem;
  mem.add(1, "b", "old-b");
  mem.add(2, "a", "va");
  mem.add(3, "b", "new-b");
  mem.add(4, "c", "vc");
  std::vector<std::pair<std::string, std::string>> got;
  for (MemTable::Cursor c(mem, Slice()); c.valid(); c.next()) {
    got.emplace_back(c.key().to_string(), c.value().to_string());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::string>{"a", "va"}));
  EXPECT_EQ(got[1], (std::pair<std::string, std::string>{"b", "new-b"}));
  EXPECT_EQ(got[2], (std::pair<std::string, std::string>{"c", "vc"}));
}

TEST(MemTableTest, LongKeysSeekPastTheInlineProbe) {
  // Keys longer than the probe's stack buffer take its heap path.
  MemTable mem;
  const std::string a(200, 'a'), b = std::string(200, 'a') + "b";
  mem.add(1, b, "vb");
  mem.add(2, a, "va");
  std::string v;
  ASSERT_TRUE(mem.get(a, &v));
  EXPECT_EQ(v, "va");
  ASSERT_TRUE(mem.get(b, &v));
  EXPECT_EQ(v, "vb");
  EXPECT_FALSE(mem.get(std::string(199, 'a'), &v));
  MemTable::Cursor c(mem, std::string(200, 'a') + "\x01");
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.key(), Slice(b));
}

TEST(MemTableTest, PrefixedAddStoresTheJoinedValue) {
  MemTable mem;
  mem.add(1, "k", "V", "payload");
  mem.add(2, "t", "T", "");
  std::string v = "kept";
  EXPECT_FALSE(mem.get("absent", &v));
  EXPECT_EQ(v, "kept");  // a miss leaves *value alone
  ASSERT_TRUE(mem.get("k", &v));
  EXPECT_EQ(v, "Vpayload");
  ASSERT_TRUE(mem.get("t", &v));
  EXPECT_EQ(v, "T");
}

// --------------------------------------------------- ImmutableTable --
using Entries = std::vector<std::pair<std::string, std::string>>;

std::shared_ptr<ImmutableTable> build_table(std::uint64_t id,
                                            const Entries& sorted,
                                            std::size_t block_fanout) {
  TableBuilder builder(block_fanout);
  for (const auto& [k, v] : sorted) builder.add(k, v);
  return builder.finish(id);
}

Entries make_sorted(int n) {
  Entries v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(bench_key(static_cast<std::uint64_t>(i) * 2),
                   "val" + std::to_string(i * 2));
  }
  return v;
}

/// Point lookup through the index and one fetched block.
bool table_lookup(const ImmutableTable& t, const Slice& key,
                  std::string* value) {
  const std::int64_t b = t.block_for(key);
  return b >= 0 && t.read_block(static_cast<std::size_t>(b))->get(key, value);
}

TEST(ImmutableTableTest, BlockLookupFindsEveryKey) {
  const auto t = build_table(1, make_sorted(100), /*block_fanout=*/7);
  EXPECT_EQ(t->num_entries(), 100u);
  EXPECT_EQ(t->num_blocks(), (100 + 6) / 7);
  std::string v;
  for (int i = 0; i < 100; ++i) {
    const auto key = bench_key(static_cast<std::uint64_t>(i) * 2);
    const std::int64_t b = t->block_for(key);
    ASSERT_GE(b, 0);
    auto block = t->read_block(static_cast<std::size_t>(b));
    ASSERT_TRUE(block->get(key, &v)) << key;
    EXPECT_EQ(v, "val" + std::to_string(i * 2));
  }
}

TEST(ImmutableTableTest, MissesFallInTheRightPlaces) {
  const auto t = build_table(2, make_sorted(50), 8);
  std::string v;
  // Key below the smallest: no candidate block.
  EXPECT_EQ(t->block_for("0000000000000000"), 0);  // equals first key -> block 0
  const auto t2 = build_table(3, {{"b", "1"}, {"d", "2"}}, 8);
  EXPECT_EQ(t2->block_for("a"), -1);
  const std::int64_t b = t2->block_for("c");
  ASSERT_GE(b, 0);
  EXPECT_FALSE(t2->read_block(static_cast<std::size_t>(b))->get("c", &v));
  EXPECT_TRUE(t2->read_block(static_cast<std::size_t>(b))->get("b", &v));
}

/// Sorted, distinct binary keys holding '\0' and 0xFF bytes. Raising
/// a key's trailing '\0' to 0x01 gives a key strictly between it and
/// the next one. Every third value is empty; the rest hold a '\0'.
Entries make_binary(int n) {
  Entries v;
  for (int i = 0; i < n; ++i) {
    const auto x = static_cast<std::uint32_t>(2 * i + 2);
    std::string key("\x01\0", 2);
    for (int shift = 24; shift >= 0; shift -= 8) {
      key.push_back(static_cast<char>((x >> shift) & 0xFF));
    }
    key.push_back('\xFF');
    key.push_back('\0');
    std::string value;
    if (i % 3 != 0) value = std::string("v\0", 2) + std::to_string(i);
    v.emplace_back(std::move(key), std::move(value));
  }
  return v;
}

TEST(ImmutableTableTest, RoundTripsAgainstItsInput) {
  for (const std::size_t fanout : {1u, 7u, 16u}) {
    for (const int n : {0, 1, 300}) {
      SCOPED_TRACE("fanout " + std::to_string(fanout) + ", entries " +
                   std::to_string(n));
      const Entries input = make_binary(n);
      const auto t = build_table(9, input, fanout);
      EXPECT_EQ(t->num_entries(), input.size());
      EXPECT_EQ(t->num_blocks(), (input.size() + fanout - 1) / fanout);
      std::string v;
      for (std::size_t i = 0; i < input.size(); ++i) {
        ASSERT_TRUE(table_lookup(*t, input[i].first, &v)) << i;
        EXPECT_EQ(v, input[i].second) << i;
        // Between this key and the next (or above the last one).
        std::string between = input[i].first;
        between.back() = '\x01';
        EXPECT_FALSE(table_lookup(*t, between, &v)) << i;
        if (i % fanout == 0) {
          EXPECT_EQ(t->block_first_key(i / fanout), Slice(input[i].first));
        }
      }
      for (std::size_t b = 0; b < t->num_blocks(); ++b) {
        const auto block = t->read_block(b);
        const std::size_t first = b * fanout;
        ASSERT_EQ(block->size(), std::min(fanout, input.size() - first));
        for (std::size_t i = 0; i < block->size(); ++i) {
          EXPECT_EQ(block->key(i), Slice(input[first + i].first));
          EXPECT_EQ(block->value(i), Slice(input[first + i].second));
        }
      }
      for (const std::string& absent :
           {std::string(), std::string("\x01\0", 2), std::string(1, '\0'),
            std::string("\xFF\xFF")}) {
        EXPECT_FALSE(table_lookup(*t, absent, &v));
      }
      if (n == 0) {
        EXPECT_TRUE(t->smallest().empty());
        EXPECT_TRUE(t->largest().empty());
      } else {
        EXPECT_EQ(t->smallest(), Slice(input.front().first));
        EXPECT_EQ(t->largest(), Slice(input.back().first));
      }
    }
  }
}

TEST(ImmutableTableTest, FilterAdmitsEveryKeyItHolds) {
  for (const int n : {0, 1, 300}) {
    SCOPED_TRACE("entries " + std::to_string(n));
    Entries input = make_binary(n);
    if (n > 0) input.insert(input.begin(), {std::string(), "empty key"});
    const auto t = build_table(10, input, 16);
    for (const auto& [key, value] : input) {
      EXPECT_TRUE(t->may_contain(key)) << testing::PrintToString(key);
    }
    // 10 bits per key, rounded up to whole 64-byte lines.
    const std::size_t bits = input.size() * ImmutableTable::kFilterBitsPerKey;
    EXPECT_EQ(t->filter_bytes(), (bits + 511) / 512 * 64);
  }
}

TEST(ImmutableTableTest, FilterFalsePositiveRateIsLow) {
  // Present: even bench keys. Absent: 20k odd ones, fixed seed.
  constexpr int kPresent = 10000;
  const auto t = build_table(11, make_sorted(kPresent), 16);
  Xoshiro256 prng(17);
  constexpr int kAbsent = 20000;
  int passed = 0;
  for (int i = 0; i < kAbsent; ++i) {
    passed += t->may_contain(bench_key(prng.below(kPresent) * 2 + 1)) ? 1 : 0;
  }
  EXPECT_LE(passed, kAbsent * 3 / 100) << passed << " of " << kAbsent;
}

TEST(ImmutableTableTest, SmallestAndLargestSurviveShortKeys) {
  // One tiny entry: every buffer fits a string's inline storage,
  // which moves with the string's bytes rather than its heap pointer.
  const auto t = build_table(4, {{"k", "v"}}, 16);
  EXPECT_EQ(t->smallest(), Slice("k"));
  EXPECT_EQ(t->largest(), Slice("k"));
  EXPECT_EQ(t->block_first_key(0), Slice("k"));
}

TEST(ImmutableTableTest, BlockChargeIsItsBytes) {
  const Entries input = make_sorted(64);
  const auto t = build_table(5, input, 16);
  std::size_t kv_bytes = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    kv_bytes += input[i].first.size() + input[i].second.size();
  }
  // Per entry: two one-byte length prefixes and a u32 offset.
  constexpr std::size_t kPerEntry = 6;
  const std::size_t charge = t->read_block(0)->charge();
  EXPECT_GE(charge, kv_bytes + kPerEntry * 16);
  EXPECT_LE(charge, kv_bytes + kPerEntry * 16 + sizeof(Block) +
                        sizeof(std::uint32_t));
}

// ------------------------------------------------------------ Cache --
TEST(CacheTest, HitMissPromoteEvict) {
  ShardedLruCache<Block> cache(16 * 1024);
  auto mkblock = [](int tag) {
    return build_table(1, {{"k" + std::to_string(tag), "v"}}, 1)
        ->read_block(0);
  };
  const BlockKey k1{1, 0}, k2{1, 1};
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(k1, mkblock(1), 100);
  auto got = cache.lookup(k1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  cache.insert(k2, mkblock(2), 100);
  EXPECT_NE(cache.lookup(k2), nullptr);
  EXPECT_GT(cache.usage(), 0u);
  cache.erase(k1);
  EXPECT_EQ(cache.lookup(k1), nullptr);
}

TEST(CacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  // Single small capacity: inserting beyond capacity evicts LRU.
  LruShard<Block> shard;
  shard.set_capacity(250);
  auto blk = [] { return std::make_shared<Block>(); };
  shard.insert(BlockKey{1, 0}, blk(), 100);
  shard.insert(BlockKey{1, 1}, blk(), 100);
  // Touch {1,0} so {1,1} is LRU.
  EXPECT_NE(shard.lookup(BlockKey{1, 0}), nullptr);
  shard.insert(BlockKey{1, 2}, blk(), 100);  // forces eviction of {1,1}
  EXPECT_EQ(shard.lookup(BlockKey{1, 1}), nullptr);
  EXPECT_NE(shard.lookup(BlockKey{1, 0}), nullptr);
  EXPECT_NE(shard.lookup(BlockKey{1, 2}), nullptr);
  EXPECT_GE(shard.evictions(), 1u);
}

TEST(CacheTest, ReplacingSameKeyUpdatesCharge) {
  LruShard<Block> shard;
  shard.set_capacity(1000);
  auto blk = [] { return std::make_shared<Block>(); };
  shard.insert(BlockKey{7, 7}, blk(), 400);
  EXPECT_EQ(shard.usage(), 400u);
  shard.insert(BlockKey{7, 7}, blk(), 100);
  EXPECT_EQ(shard.usage(), 100u);
}

// --------------------------------------------------------- TableSet --
bool keep_all(const Slice&) { return true; }

/// A memtable holding bench keys first, first + step, ... (< end).
std::unique_ptr<MemTable> memtable_of(std::uint64_t first, std::uint64_t end,
                                      std::uint64_t step) {
  auto mem = std::make_unique<MemTable>();
  std::uint64_t seq = 1;
  for (std::uint64_t k = first; k < end; k += step) {
    mem->add(seq++, bench_key(k), "v" + std::to_string(k));
  }
  return mem;
}

TEST(TableSetTest, GetFetchesNoBlockOfATableItsFilterRulesOut) {
  // Two overlapping tables: evens (older) and odds (newer). The newer
  // table's range covers every even key, its filter none of them.
  TableSet set(StorageOptions{});
  const auto older = set.flushed(*memtable_of(0, 1000, 2), TableVersion{},
                                 &keep_all);
  const auto both = set.flushed(*memtable_of(1, 1000, 2), *older, &keep_all);
  ASSERT_EQ(both->tables.size(), 2u);
  const MemTable empty;
  std::string v;
  ASSERT_TRUE(set.get(empty, *both, bench_key(500), &v));
  EXPECT_EQ(v, "v500");
  EXPECT_EQ(set.cache_misses(), 1u);  // the older table's block alone
  EXPECT_EQ(set.cache_hits(), 0u);
}

TEST(TableSetTest, CompactionDropsTheFoldedTablesBlocksFromTheCache) {
  StorageOptions opt;
  opt.compaction_trigger = 1;  // the second flush folds both tables
  TableSet set(opt);
  const auto first = set.flushed(*memtable_of(0, 1000, 1), TableVersion{},
                                 &keep_all);
  ASSERT_EQ(first->tables.size(), 1u);
  const ImmutableTable& folded = *first->tables[0];
  for (std::size_t b = 0; b < folded.num_blocks(); ++b) set.block(folded, b);
  ASSERT_EQ(set.cache_misses(), folded.num_blocks());
  const auto merged = set.flushed(*memtable_of(0, 1000, 3), *first, &keep_all);
  ASSERT_EQ(merged->tables.size(), 1u);
  ASSERT_EQ(set.compactions(), 1u);
  // Every block of the folded table must be fetched afresh.
  for (std::size_t b = 0; b < folded.num_blocks(); ++b) {
    const std::uint64_t misses = set.cache_misses();
    set.block(folded, b);
    EXPECT_EQ(set.cache_misses(), misses + 1) << "block " << b;
  }
}

// --------------------------------------------------------------- DB --
TEST(DbTest, PutGetAcrossFlushes) {
  DbOptions opt;
  opt.write_buffer_bytes = 16 * 1024;  // force frequent flushes
  DB<StdMutex> db(opt);
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.put(bench_key(i), "value" + std::to_string(i)).is_ok());
  }
  EXPECT_GT(db.num_tables(), 0u);  // flushes happened
  std::string v;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.get(bench_key(i), &v).is_ok()) << i;
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  EXPECT_TRUE(db.get(bench_key(kKeys + 1), &v).is_not_found());
}

TEST(DbTest, OverwritesResolveToNewestAcrossTables) {
  DbOptions opt;
  opt.write_buffer_bytes = 8 * 1024;
  DB<StdMutex> db(opt);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 500; ++i) {
      db.put(bench_key(i), "r" + std::to_string(round));
    }
    db.flush();
  }
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.get(bench_key(i), &v).is_ok());
    EXPECT_EQ(v, "r4") << "key " << i;
  }
}

TEST(DbTest, CacheServesRepeatedReads) {
  DB<StdMutex> db;
  fill_seq(db, 2000, 64);
  std::string v;
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 2000; i += 50) {
      ASSERT_TRUE(db.get(bench_key(i), &v).is_ok());
    }
  }
  EXPECT_GT(db.cache_hits(), 0u);
}

// The central integration property: concurrent readers + writer with
// a *Hemlock* central mutex return coherent values.
TEST(DbTest, ConcurrentReadersAndWriterWithHemlockMutex) {
  DbOptions opt;
  opt.write_buffer_bytes = 64 * 1024;
  DB<Hemlock> db(opt);
  constexpr std::uint64_t kKeys = 2000;
  fill_seq(db, kKeys, 32);

  std::atomic<bool> stop{false};
  std::atomic<bool> wrong{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 prng(r + 99);
      std::string v;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = prng.below(kKeys);
        if (!db.get(bench_key(k), &v).is_ok()) {
          wrong.store(true);  // every key was pre-populated
        }
      }
    });
  }
  // Writer keeps overwriting (values change but keys never vanish).
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t k = 0; k < kKeys; k += 37) {
      db.put(bench_key(k), "round" + std::to_string(round));
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(wrong.load());
}

TEST(DbBench, FillSeqThenReadRandomFindsEverything) {
  DB<McsLock> db;
  fill_seq(db, 10000, 100);
  ReadRandomConfig cfg;
  cfg.threads = 4;
  cfg.duration_ms = 200;
  cfg.num_keys = 10000;
  const ReadRandomResult res = run_readrandom(db, cfg);
  EXPECT_GT(res.total_reads, 0u);
  EXPECT_EQ(res.total_reads, res.found);  // all keys exist
  EXPECT_GT(res.mops_per_sec(), 0.0);
}

TEST(DbBench, KeyFormatMatchesDbBench) {
  EXPECT_EQ(bench_key(0), "0000000000000000");
  EXPECT_EQ(bench_key(42), "0000000000000042");
  EXPECT_EQ(bench_key(9999999999999999ULL), "9999999999999999");
}

}  // namespace
}  // namespace hemlock::minikv
