// Treap used as the *inner tree* of the augmented structures (Section 7).
// The paper uses red-black trees with O(1) amortized rotations [56] for the
// ordered interval lists and switches to treaps for bulk updates (Section
// 7.3.5); we use treaps throughout: O(1) *expected* rotations per
// insert/delete — hence O(1) expected large-memory writes per update — and
// O(log n) expected search depth, the same cost profile with far less
// machinery.
//
// Keys are doubles with an item id as tiebreaker, so duplicate keys are fully
// supported. Priorities are hashes of (key bits, item): deterministic across
// runs, and a treap's shape depends on its entries alone — never on which
// pool slots hold them.
//
// TreapForest keeps the nodes of many treaps in one index-linked pool; each
// treap is a uint32_t root handle into it, so a structure holding thousands
// of inner trees is a few flat arrays and copies as such. Erased and freed
// nodes go on an intrusive free list threaded through `left`. Treap is the
// single-root wrapper over a forest of its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/primitives/random.h"

namespace weg::augtree {

class TreapForest {
 public:
  static constexpr uint32_t kNull = UINT32_MAX;

  struct Node {
    double key = 0;
    uint32_t item = 0;  // caller-defined payload (e.g. interval id)
    uint32_t left = kNull;
    uint32_t right = kNull;
    uint64_t pri = 0;
  };

  // Root of a new treap over entries sorted ascending by (key, item): O(n)
  // reads/writes via the right-spine Cartesian-tree construction.
  uint32_t from_sorted(const std::vector<std::pair<double, uint32_t>>& es);

  void insert(uint32_t& root, double key, uint32_t item) {
    last_rotations_ = 0;
    uint32_t nu = alloc(key, item);
    root = insert_rec(root, nu);
  }
  // Removes the entry (key, item); returns false if absent.
  bool erase(uint32_t& root, double key, uint32_t item) {
    last_rotations_ = 0;
    bool found = false;
    root = erase_rec(root, key, item, found);
    return found;
  }

  // Returns every node of the treap at root to the free list and empties
  // the handle. Uncounted, O(size), no auxiliary memory: a left child is
  // rotated up until the node has none, then the node is freed.
  void free_tree(uint32_t& root) {
    uint32_t v = root;
    while (v != kNull) {
      Node& nd = nodes_[v];
      if (nd.left == kNull) {
        uint32_t next = nd.right;
        release(v);
        v = next;
      } else {
        uint32_t l = nd.left;
        nd.left = nodes_[l].right;
        nodes_[l].right = v;
        v = l;
      }
    }
    root = kNull;
  }
  // Drops every treap at once (all handles become invalid).
  void clear() {
    nodes_.clear();
    free_head_ = kNull;
  }

  // Pool slots, free ones included (bench hook for pool reuse).
  size_t num_nodes() const { return nodes_.size(); }

  // In-order reporting with early exit. Visits O(k + depth) nodes.
  template <typename F>
  void report_leq(uint32_t root, double k, F emit) const {
    report_leq_rec(root, k, emit);
  }
  template <typename F>
  void report_geq(uint32_t root, double k, F emit) const {
    report_geq_rec(root, k, emit);
  }
  template <typename F>
  void report_range(uint32_t root, double lo, double hi, F emit) const {
    report_range_rec(root, lo, hi, emit);
  }
  template <typename F>
  void for_each(uint32_t root, F emit) const {
    report_leq_rec(root, std::numeric_limits<double>::infinity(), emit);
  }

  // Rotation-equivalent link writes performed by the last insert/erase (test
  // hook for the O(1) expected-writes property).
  size_t last_rotations() const { return last_rotations_; }

  size_t depth(uint32_t root) const { return depth_rec(root); }

  // Heap + BST order invariants (test helper, uncounted).
  bool validate(uint32_t root) const { return validate_rec(root); }

 private:
  static uint64_t make_priority(double key, uint32_t item) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(key));
    __builtin_memcpy(&bits, &key, sizeof(bits));
    return primitives::hash64(bits * 0x9e3779b97f4a7c15ULL + item + 1);
  }

  static bool entry_less(double k1, uint32_t i1, double k2, uint32_t i2) {
    return k1 < k2 || (k1 == k2 && i1 < i2);
  }

  uint32_t alloc(double key, uint32_t item) {
    Node nd{key, item, kNull, kNull, make_priority(key, item)};
    if (free_head_ != kNull) {
      uint32_t v = free_head_;
      free_head_ = nodes_[v].left;
      nodes_[v] = nd;
      return v;
    }
    nodes_.push_back(nd);
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void release(uint32_t v) {
    nodes_[v].left = free_head_;
    free_head_ = v;
  }

  // Classic recursive insert with rotations: O(depth) reads, O(1) expected
  // link writes (one per rotation plus the leaf attach).
  uint32_t insert_rec(uint32_t v, uint32_t nu) {
    if (v == kNull) {
      asym::count_write();  // attach the new node
      return nu;
    }
    asym::count_read();
    bool go_left = entry_less(nodes_[nu].key, nodes_[nu].item, nodes_[v].key,
                              nodes_[v].item);
    if (go_left) {
      uint32_t c = insert_rec(nodes_[v].left, nu);
      nodes_[v].left = c;  // only a real write when the child changed
      if (nodes_[c].pri > nodes_[v].pri) {
        v = rotate_right(v);
      }
    } else {
      uint32_t c = insert_rec(nodes_[v].right, nu);
      nodes_[v].right = c;
      if (nodes_[c].pri > nodes_[v].pri) {
        v = rotate_left(v);
      }
    }
    return v;
  }

  uint32_t rotate_right(uint32_t v) {
    uint32_t l = nodes_[v].left;
    nodes_[v].left = nodes_[l].right;
    nodes_[l].right = v;
    asym::count_write(2);
    ++last_rotations_;
    return l;
  }
  uint32_t rotate_left(uint32_t v) {
    uint32_t r = nodes_[v].right;
    nodes_[v].right = nodes_[r].left;
    nodes_[r].left = v;
    asym::count_write(2);
    ++last_rotations_;
    return r;
  }

  // Joins two treaps where every key in l precedes every key in r. The merge
  // spine has O(1) expected length when called for a deletion.
  uint32_t join(uint32_t l, uint32_t r) {
    if (l == kNull) return r;
    if (r == kNull) return l;
    asym::count_read(2);
    asym::count_write();
    ++last_rotations_;
    if (nodes_[l].pri > nodes_[r].pri) {
      nodes_[l].right = join(nodes_[l].right, r);
      return l;
    }
    nodes_[r].left = join(l, nodes_[r].left);
    return r;
  }

  uint32_t erase_rec(uint32_t v, double key, uint32_t item, bool& found) {
    if (v == kNull) return kNull;
    asym::count_read();
    const Node& nd = nodes_[v];
    if (nd.key == key && nd.item == item) {
      found = true;
      asym::count_write();  // unlink
      uint32_t joined = join(nd.left, nd.right);
      release(v);
      return joined;
    }
    if (entry_less(key, item, nd.key, nd.item)) {
      uint32_t c = erase_rec(nd.left, key, item, found);
      nodes_[v].left = c;
    } else {
      uint32_t c = erase_rec(nd.right, key, item, found);
      nodes_[v].right = c;
    }
    return v;
  }

  template <typename F>
  void report_leq_rec(uint32_t v, double k, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = nodes_[v];
    report_leq_rec(nd.left, k, emit);
    if (nd.key > k) return;
    emit(nd.key, nd.item);
    report_leq_rec(nd.right, k, emit);
  }
  template <typename F>
  void report_geq_rec(uint32_t v, double k, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = nodes_[v];
    report_geq_rec(nd.right, k, emit);
    if (nd.key < k) return;
    emit(nd.key, nd.item);
    report_geq_rec(nd.left, k, emit);
  }
  template <typename F>
  void report_range_rec(uint32_t v, double lo, double hi, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = nodes_[v];
    if (nd.key >= lo) report_range_rec(nd.left, lo, hi, emit);
    if (nd.key >= lo && nd.key <= hi) emit(nd.key, nd.item);
    if (nd.key <= hi) report_range_rec(nd.right, lo, hi, emit);
  }

  size_t depth_rec(uint32_t v) const {
    if (v == kNull) return 0;
    return 1 + std::max(depth_rec(nodes_[v].left), depth_rec(nodes_[v].right));
  }

  bool validate_rec(uint32_t v) const {
    if (v == kNull) return true;
    const Node& nd = nodes_[v];
    bool ok = validate_rec(nd.left) && validate_rec(nd.right);
    if (nd.left != kNull) {
      ok = ok && !entry_less(nd.key, nd.item, nodes_[nd.left].key,
                             nodes_[nd.left].item);
      ok = ok && nodes_[nd.left].pri <= nd.pri;
    }
    if (nd.right != kNull) {
      ok = ok && entry_less(nd.key, nd.item, nodes_[nd.right].key,
                            nodes_[nd.right].item);
      ok = ok && nodes_[nd.right].pri <= nd.pri;
    }
    return ok;
  }

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNull;
  uint32_t last_rotations_ = 0;
};

inline uint32_t TreapForest::from_sorted(
    const std::vector<std::pair<double, uint32_t>>& es) {
  if (free_head_ == kNull) nodes_.reserve(nodes_.size() + es.size());
  asym::count_read(es.size());
  asym::count_write(es.size());
  // Right-spine Cartesian-tree construction: O(n) total.
  uint32_t root = kNull;
  std::vector<uint32_t> spine;
  for (const auto& [key, item] : es) {
    uint32_t nu = alloc(key, item);
    uint32_t last_popped = kNull;
    while (!spine.empty() && nodes_[spine.back()].pri < nodes_[nu].pri) {
      last_popped = spine.back();
      spine.pop_back();
    }
    if (last_popped != kNull) nodes_[nu].left = last_popped;
    if (spine.empty()) {
      root = nu;
    } else {
      nodes_[spine.back()].right = nu;
    }
    spine.push_back(nu);
  }
  return root;
}

// One treap over a forest of its own: the inner tree of AlphaRangeTree.
class Treap {
 public:
  Treap() = default;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Builds from entries sorted ascending by (key, item): O(n) reads/writes.
  static Treap from_sorted(const std::vector<std::pair<double, uint32_t>>& es) {
    Treap t;
    t.root_ = t.forest_.from_sorted(es);
    t.count_ = static_cast<uint32_t>(es.size());
    return t;
  }

  void insert(double key, uint32_t item) {
    forest_.insert(root_, key, item);
    ++count_;
  }
  // Removes the entry (key, item); returns false if absent.
  bool erase(double key, uint32_t item) {
    bool found = forest_.erase(root_, key, item);
    if (found) --count_;
    return found;
  }

  template <typename F>
  void report_leq(double k, F emit) const {
    forest_.report_leq(root_, k, emit);
  }
  template <typename F>
  void report_geq(double k, F emit) const {
    forest_.report_geq(root_, k, emit);
  }
  template <typename F>
  void report_range(double lo, double hi, F emit) const {
    forest_.report_range(root_, lo, hi, emit);
  }
  template <typename F>
  void for_each(F emit) const {
    forest_.for_each(root_, emit);
  }

  size_t last_rotations() const { return forest_.last_rotations(); }
  size_t depth() const { return forest_.depth(root_); }
  bool validate() const { return forest_.validate(root_); }

 private:
  TreapForest forest_;
  uint32_t root_ = TreapForest::kNull;
  uint32_t count_ = 0;
};

}  // namespace weg::augtree
