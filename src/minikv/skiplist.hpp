// skiplist.hpp — concurrent skiplist, the memtable's index.
//
// Mirrors leveldb::SkipList's concurrency contract, which is what the
// Figure-8 workload depends on: writes are serialized externally (by
// the DB's central mutex — the very lock the benchmark contends on),
// while reads run lock-free and concurrently with one in-flight
// writer. Publication safety comes from release-storing next pointers
// bottom-up so a reader that observes a node at any level sees a
// fully initialized node.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "minikv/arena.hpp"
#include "runtime/prng.hpp"

namespace hemlock::minikv {

/// Skiplist keyed by `Key` (a trivially copyable handle, e.g. a
/// pointer to an arena-resident encoded entry). Comparator is a
/// stateless-ish functor: int operator()(Key a, Key b).
template <typename Key, typename Comparator>
class SkipList {
 public:
  /// `cmp` orders keys; `arena` owns node memory.
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(new_node(Key{}, kMaxHeight)),
        max_height_(1),
        rnd_(0xdeadbeef) {
    for (int i = 0; i < kMaxHeight; ++i) {
      head_->set_next(i, nullptr);
      tail_[i] = head_;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Insert key. REQUIRES: external serialization of writers; key not
  /// already present (MiniKV encodes a sequence number per entry so
  /// duplicates cannot collide, matching LevelDB).
  /// Appends (key above every key present, as in a sequential fill)
  /// skip the search: the predecessors are the per-level tails.
  void insert(const Key& key) {
    Node* prev[kMaxHeight];
    if (tail_[0] == head_ || compare_(tail_[0]->key, key) < 0) {
      for (int i = 0; i < kMaxHeight; ++i) prev[i] = tail_[i];
    } else {
      [[maybe_unused]] Node* x = find_greater_or_equal(key, prev);
      assert(x == nullptr || !equal(key, x->key));  // x unused w/ NDEBUG
    }

    const int height = random_height();
    if (height > max_height()) {
      for (int i = max_height(); i < height; ++i) prev[i] = head_;
      // mo: relaxed — readers tolerate a stale (smaller) height;
      // they simply do not use the new levels yet.
      max_height_.store(height, std::memory_order_relaxed);
    }

    Node* n = new_node(key, height);
    for (int i = 0; i < height; ++i) {
      // Link bottom-up. The store into n's next can be relaxed (n is
      // not yet published); the store into prev's next releases n.
      Node* const succ = prev[i]->next_relaxed(i);
      n->set_next_relaxed(i, succ);
      prev[i]->set_next(i, n);
      if (succ == nullptr) tail_[i] = n;
    }
  }

  /// True iff an entry equal to key exists. Safe concurrently with
  /// one writer.
  bool contains(const Key& key) const {
    Node* x = find_greater_or_equal(key, nullptr);
    return x != nullptr && equal(key, x->key);
  }

  /// Forward iterator over the list (LevelDB-style explicit cursor).
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    /// True when positioned on a node.
    bool valid() const { return node_ != nullptr; }
    /// Key at the current position (REQUIRES valid()).
    const Key& key() const {
      assert(valid());
      return node_->key;
    }
    /// Advance.
    void next() {
      assert(valid());
      node_ = node_->next(0);
    }
    /// Position at the first node >= target.
    void seek(const Key& target) {
      node_ = list_->find_greater_or_equal(target, nullptr);
    }
    /// Position at the first node.
    void seek_to_first() { node_ = list_->head_->next(0); }

   private:
    const SkipList* list_;
    typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr unsigned kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}
    const Key key;

    Node* next(int level) const {
      // mo: acquire — pairs with set_next's release; the pointee's
      // key/links are initialized before we can traverse it.
      return next_[level].load(std::memory_order_acquire);
    }
    void set_next(int level, Node* n) {
      // mo: release publish — see next().
      next_[level].store(n, std::memory_order_release);
    }
    Node* next_relaxed(int level) const {
      // mo: relaxed — writer-side reload where the insert lock (or
      // single-writer phase) already owns the list.
      return next_[level].load(std::memory_order_relaxed);
    }
    void set_next_relaxed(int level, Node* n) {
      // mo: relaxed — initializing a node not yet published; the
      // set_next splice that publishes it carries release.
      next_[level].store(n, std::memory_order_relaxed);
    }

    // Tail array sized by node height at allocation time.
    std::atomic<Node*> next_[1];
  };

  Node* new_node(const Key& key, int height) {
    char* mem = arena_->allocate_aligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int random_height() {
    int height = 1;
    while (height < kMaxHeight && rnd_.below(kBranching) == 0) ++height;
    return height;
  }

  int max_height() const {
    // mo: relaxed — height hint; see insert's store.
    return max_height_.load(std::memory_order_relaxed);
  }

  bool equal(const Key& a, const Key& b) const { return compare_(a, b) == 0; }

  /// First node >= key; fills prev[] with the per-level predecessors
  /// when non-null (used by insert).
  Node* find_greater_or_equal(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = max_height() - 1;
    for (;;) {
      Node* next = x->next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        --level;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  Node* tail_[kMaxHeight];  ///< last node per level; writer-only
  std::atomic<int> max_height_;
  Xoshiro256 rnd_;
};

}  // namespace hemlock::minikv
