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
// runs.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/primitives/random.h"

namespace weg::augtree {

class Treap {
 public:
  static constexpr uint32_t kNull = UINT32_MAX;

  struct Node {
    double key = 0;
    uint32_t item = 0;  // caller-defined payload (e.g. interval id)
    uint32_t left = kNull;
    uint32_t right = kNull;
    uint64_t pri = 0;
  };

  Treap() = default;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Builds from entries sorted ascending by (key, item): O(n) reads/writes
  // via the right-spine Cartesian-tree construction.
  static Treap from_sorted(const std::vector<std::pair<double, uint32_t>>& es);

  void insert(double key, uint32_t item);
  // Removes the entry (key, item); returns false if absent.
  bool erase(double key, uint32_t item);

  // In-order reporting with early exit. Visits O(k + depth) nodes.
  template <typename F>
  void report_leq(double k, F emit) const {
    report_leq_rec(root_, k, emit);
  }
  template <typename F>
  void report_geq(double k, F emit) const {
    report_geq_rec(root_, k, emit);
  }
  template <typename F>
  void report_range(double lo, double hi, F emit) const {
    report_range_rec(root_, lo, hi, emit);
  }
  template <typename F>
  void for_each(F emit) const {
    report_leq_rec(root_, std::numeric_limits<double>::infinity(), emit);
  }

  // Rotation-equivalent link writes performed by the last insert/erase (test
  // hook for the O(1) expected-writes property).
  size_t last_rotations() const { return last_rotations_; }

  size_t depth() const { return depth_rec(root_); }

  // Heap + BST order invariants (test helper, uncounted).
  bool validate() const { return validate_rec(root_); }

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
    pool_.push_back(Node{key, item, kNull, kNull, make_priority(key, item)});
    return static_cast<uint32_t>(pool_.size() - 1);
  }

  // Classic recursive insert with rotations: O(depth) reads, O(1) expected
  // link writes (one per rotation plus the leaf attach).
  uint32_t insert_rec(uint32_t v, uint32_t nu) {
    if (v == kNull) {
      asym::count_write();  // attach the new node
      return nu;
    }
    asym::count_read();
    bool go_left = entry_less(pool_[nu].key, pool_[nu].item, pool_[v].key,
                              pool_[v].item);
    if (go_left) {
      uint32_t c = insert_rec(pool_[v].left, nu);
      pool_[v].left = c;  // only a real write when the child changed
      if (pool_[c].pri > pool_[v].pri) {
        v = rotate_right(v);
      }
    } else {
      uint32_t c = insert_rec(pool_[v].right, nu);
      pool_[v].right = c;
      if (pool_[c].pri > pool_[v].pri) {
        v = rotate_left(v);
      }
    }
    return v;
  }

  uint32_t rotate_right(uint32_t v) {
    uint32_t l = pool_[v].left;
    pool_[v].left = pool_[l].right;
    pool_[l].right = v;
    asym::count_write(2);
    ++last_rotations_;
    return l;
  }
  uint32_t rotate_left(uint32_t v) {
    uint32_t r = pool_[v].right;
    pool_[v].right = pool_[r].left;
    pool_[r].left = v;
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
    if (pool_[l].pri > pool_[r].pri) {
      pool_[l].right = join(pool_[l].right, r);
      return l;
    }
    pool_[r].left = join(l, pool_[r].left);
    return r;
  }

  uint32_t erase_rec(uint32_t v, double key, uint32_t item, bool& found) {
    if (v == kNull) return kNull;
    asym::count_read();
    const Node& nd = pool_[v];
    if (nd.key == key && nd.item == item) {
      found = true;
      asym::count_write();  // unlink
      return join(nd.left, nd.right);
    }
    if (entry_less(key, item, nd.key, nd.item)) {
      uint32_t c = erase_rec(nd.left, key, item, found);
      pool_[v].left = c;
    } else {
      uint32_t c = erase_rec(nd.right, key, item, found);
      pool_[v].right = c;
    }
    return v;
  }

  template <typename F>
  void report_leq_rec(uint32_t v, double k, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = pool_[v];
    report_leq_rec(nd.left, k, emit);
    if (nd.key > k) return;
    emit(nd.key, nd.item);
    report_leq_rec(nd.right, k, emit);
  }
  template <typename F>
  void report_geq_rec(uint32_t v, double k, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = pool_[v];
    report_geq_rec(nd.right, k, emit);
    if (nd.key < k) return;
    emit(nd.key, nd.item);
    report_geq_rec(nd.left, k, emit);
  }
  template <typename F>
  void report_range_rec(uint32_t v, double lo, double hi, F& emit) const {
    if (v == kNull) return;
    asym::count_read();
    const Node& nd = pool_[v];
    if (nd.key >= lo) report_range_rec(nd.left, lo, hi, emit);
    if (nd.key >= lo && nd.key <= hi) emit(nd.key, nd.item);
    if (nd.key <= hi) report_range_rec(nd.right, lo, hi, emit);
  }

  size_t depth_rec(uint32_t v) const {
    if (v == kNull) return 0;
    return 1 + std::max(depth_rec(pool_[v].left), depth_rec(pool_[v].right));
  }

  bool validate_rec(uint32_t v) const {
    if (v == kNull) return true;
    const Node& nd = pool_[v];
    bool ok = validate_rec(nd.left) && validate_rec(nd.right);
    if (nd.left != kNull) {
      ok = ok && !entry_less(nd.key, nd.item, pool_[nd.left].key,
                             pool_[nd.left].item);
      ok = ok && pool_[nd.left].pri <= nd.pri;
    }
    if (nd.right != kNull) {
      ok = ok && entry_less(nd.key, nd.item, pool_[nd.right].key,
                            pool_[nd.right].item);
      ok = ok && pool_[nd.right].pri <= nd.pri;
    }
    return ok;
  }

  std::vector<Node> pool_;
  uint32_t root_ = kNull;
  size_t count_ = 0;
  size_t last_rotations_ = 0;
};

inline Treap Treap::from_sorted(
    const std::vector<std::pair<double, uint32_t>>& es) {
  Treap t;
  t.pool_.reserve(es.size());
  asym::count_read(es.size());
  asym::count_write(es.size());
  // Right-spine Cartesian-tree construction: O(n) total.
  std::vector<uint32_t> spine;
  for (const auto& [key, item] : es) {
    uint32_t nu = t.alloc(key, item);
    uint32_t last_popped = kNull;
    while (!spine.empty() && t.pool_[spine.back()].pri < t.pool_[nu].pri) {
      last_popped = spine.back();
      spine.pop_back();
    }
    if (last_popped != kNull) t.pool_[nu].left = last_popped;
    if (spine.empty()) {
      t.root_ = nu;
    } else {
      t.pool_[spine.back()].right = nu;
    }
    spine.push_back(nu);
  }
  t.count_ = es.size();
  return t;
}

inline void Treap::insert(double key, uint32_t item) {
  last_rotations_ = 0;
  uint32_t nu = alloc(key, item);
  root_ = insert_rec(root_, nu);
  ++count_;
}

inline bool Treap::erase(double key, uint32_t item) {
  last_rotations_ = 0;
  bool found = false;
  root_ = erase_rec(root_, key, item, found);
  if (found) --count_;
  return found;
}

}  // namespace weg::augtree
