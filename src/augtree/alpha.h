// α-labeling (Section 7.3.1): a node is *critical* iff for some integer
// i >= 0 its subtree weight w (nodes + 1) satisfies
//    (1) 2α^i <= w <= 4α^i - 2, or
//    (2) w = 2α^i - 1 and its sibling's weight is exactly 2α^i,
// plus the tree root, which is always a virtual critical node. Only critical
// nodes maintain balance information, so an update writes O(log_α n) weights
// instead of O(log n), at the cost of O(α log_α n) reads per root-leaf path
// (Corollaries 7.1/7.2).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/parallel/par_build.h"
#include "src/parallel/parallel_for.h"

namespace weg::augtree {

// True iff a node of weight w whose sibling has weight sw is critical for
// parameter alpha (>= 2). Weights use the paper's convention: subtree node
// count + 1, so a leaf has weight 2.
inline bool is_critical_weight(uint64_t w, uint64_t sibling_w,
                               uint64_t alpha) {
  // Find the band containing w: powers grow geometrically, O(log_α w) steps.
  uint64_t pw = 1;  // alpha^i
  while (true) {
    uint64_t lo = 2 * pw;          // 2 α^i
    uint64_t hi = 4 * pw - 2;      // 4 α^i - 2
    if (w < lo - 1) return false;  // below this band and above the previous
    if (w == lo - 1) return sibling_w == lo;  // rule (2)
    if (w <= hi) return true;                 // rule (1)
    if (pw > w) return false;
    pw *= alpha;
  }
}

// The §7.3.2 exception: after reconstructing a critical node of initial
// weight s into a subtree of weight 2s, the new root must stay unmarked when
// s <= 4α^i - 2 and 2α^(i+1) - 1 <= 2s for some i (marking it would violate
// the Lemma 7.2 weight ratio with its critical parent).
inline bool rebuild_root_exception(uint64_t s, uint64_t alpha) {
  uint64_t pw = 1;
  while (2 * pw - 1 <= 2 * s) {
    if (s <= 4 * pw - 2 && 2 * pw * alpha - 1 <= 2 * s) return true;
    pw *= alpha;
  }
  return false;
}

// Longest root-leaf path of the pool-linked tree at root.
template <typename Node>
size_t tree_height(const std::vector<Node>& pool, uint32_t root) {
  auto rec = [&](auto&& self, uint32_t v) -> size_t {
    if (v == UINT32_MAX) return 0;
    return 1 + std::max(self(self, pool[v].left), self(self, pool[v].right));
  };
  return rec(rec, root);
}

// The α-labelled reconstruction skeleton (Section 7.3) shared by
// DynamicIntervalTree, AlphaRangeTree and DynamicPriorityTree: the node pool
// and free list, the virtual root's weight, critical marking, the weight
// bump with the doubling trigger, and the splice of a rebuilt subtree with
// the §7.3.2 exception. Each tree holds one as a member and keeps only its
// payload (what a node stores, how a subtree is rebuilt from it).
//
// Node must provide `left`, `right` (kNull = none), `critical`,
// `init_weight` and `weight` (critical nodes only). Weights count the
// subtree's weight units + 1 — nodes for the interval and range trees,
// points for the priority tree.
template <typename Node>
class AlphaSkeleton {
 public:
  static constexpr uint32_t kNull = UINT32_MAX;

  // Where a rebuild goes: the subtree at v, hanging below `parent`, whose
  // critical root had initial weight old_init. parent == kNull rebuilds the
  // whole tree; v == kNull asks for no rebuild.
  struct Rebuild {
    uint32_t v = kNull;
    uint32_t parent = kNull;
    uint64_t old_init = 0;
  };

  explicit AlphaSkeleton(uint64_t a) : alpha(a) {}

  Rebuild whole() const { return {root, kNull, root_init}; }

  // A reset slot, recycled from the free list when one is there.
  uint32_t alloc() {
    if (!free_list.empty()) {
      uint32_t v = free_list.back();
      free_list.pop_back();
      pool[v] = Node{};
      return v;
    }
    pool.push_back(Node{});
    return static_cast<uint32_t>(pool.size() - 1);
  }

  // A fresh leaf: critical (weight 2 once counted), at weight 1 because
  // bump adds its own contribution along the insertion path.
  uint32_t alloc_leaf() {
    uint32_t v = alloc();
    pool[v].critical = true;
    pool[v].init_weight = 2;
    pool[v].weight = 1;
    return v;
  }

  // Attaches the fresh leaf nu as a BST leaf, descending left where
  // go_left(node) holds (equal keys go right); returns the path root..nu.
  // One read per step, one write for the attach.
  template <typename GoLeft>
  std::vector<uint32_t> attach_leaf(uint32_t nu, GoLeft&& go_left) {
    asym::count_write();
    std::vector<uint32_t> path;
    if (root == kNull) {
      root = nu;
      path.push_back(nu);
      return path;
    }
    uint32_t v = root;
    while (true) {
      path.push_back(v);
      asym::count_read();
      uint32_t& child = go_left(pool[v]) ? pool[v].left : pool[v].right;
      if (child == kNull) {
        child = nu;
        break;
      }
      v = child;
    }
    path.push_back(nu);
    return path;
  }

  // Returns every node of the subtree at v to the free list (reset), after
  // on_free(node) has released whatever the node's payload holds elsewhere.
  template <typename OnFree>
  void free_subtree(uint32_t v, OnFree&& on_free) {
    if (v == kNull) return;
    std::vector<uint32_t> st{v};
    while (!st.empty()) {
      uint32_t u = st.back();
      st.pop_back();
      if (pool[u].left != kNull) st.push_back(pool[u].left);
      if (pool[u].right != kNull) st.push_back(pool[u].right);
      on_free(pool[u]);
      pool[u] = Node{};
      free_list.push_back(u);
    }
  }
  void free_subtree(uint32_t v) {
    free_subtree(v, [](Node&) {});
  }

  // Iterative in-order walk (deep secondary chains would overflow a
  // recursion): f(node) per node, one read each.
  template <typename F>
  void walk_inorder(uint32_t v, F&& f) const {
    if (v == kNull) return;
    std::vector<std::pair<uint32_t, bool>> st{{v, false}};
    while (!st.empty()) {
      auto [u, expanded] = st.back();
      st.pop_back();
      const Node& nd = pool[u];
      if (expanded) {
        asym::count_read();
        f(nd);
        continue;
      }
      if (nd.right != kNull) st.push_back({nd.right, false});
      st.push_back({u, true});
      if (nd.left != kNull) st.push_back({nd.left, false});
    }
  }

  // Balanced BST over es in order, through the shared id-slice path
  // (src/parallel/par_build.h): forks above the sequential cutoff, inline
  // below it. init(node, entry) fills the payload.
  template <typename Entry, typename Init>
  uint32_t build_balanced(const std::vector<Entry>& es, const Init& init) {
    if (es.empty()) return kNull;
    auto ids = parallel::claim_build_slots(pool, free_list, es.size());
    return parallel::balanced_build_ids(pool, es, 0, es.size(), ids.data(),
                                        init);
  }

  // Applies the α rule to one node given its and its sibling's weight.
  void set_critical(uint32_t v, uint64_t w, uint64_t sibling_w) {
    Node& nd = pool[v];
    nd.critical = is_critical_weight(w, sibling_w, alpha);
    if (nd.critical) {
      nd.init_weight = w;
      nd.weight = w;
      asym::count_write();
    }
  }

  // Post-order weight computation marking v's descendants critical; returns
  // the subtree weight. Forks on two-child nodes while par_depth > 0
  // (children touch disjoint nodes).
  uint64_t mark_rec(uint32_t v, int par_depth) {
    if (v == kNull) return 1;
    asym::count_read();
    uint32_t left = pool[v].left, right = pool[v].right;
    uint64_t wl = 1, wr = 1;
    parallel::par_do_if(par_depth > 0 && left != kNull && right != kNull,
                        [&] { wl = mark_rec(left, par_depth - 1); },
                        [&] { wr = mark_rec(right, par_depth - 1); });
    if (left != kNull) set_critical(left, wl, wr);
    if (right != kNull) set_critical(right, wr, wl);
    return wl + wr;
  }

  void mark_criticals(uint32_t v) {
    uint64_t w = mark_rec(v, parallel::fork_depth_hint());
    // Subtree root: sibling weight unknown here; rule (2) does not apply.
    set_critical(v, w, 0);
  }

  // One insertion below path (root..new leaf): adds one to every critical
  // weight on the path and to the virtual root, one write each, then names
  // the rebuild the doubling rule asks for — the whole tree once the root's
  // weight has doubled (and it holds more than 4 units), else the topmost
  // critical node on the path whose weight has doubled, else none.
  Rebuild bump(const std::vector<uint32_t>& path, size_t units) {
    for (uint32_t v : path) {
      if (pool[v].critical) {
        asym::count_write();
        ++pool[v].weight;
      }
    }
    asym::count_write();
    ++root_weight;
    if (root_weight >= 2 * root_init && units > 4) return whole();
    for (size_t i = 0; i < path.size(); ++i) {
      const Node& nd = pool[path[i]];
      if (nd.critical && nd.weight >= 2 * nd.init_weight) {
        if (i == 0) return whole();  // path[0] is the root itself
        return {path[i], path[i - 1], nd.init_weight};
      }
    }
    return {};
  }

  // Puts the rebuilt subtree `fresh` (weight `units` + 1) where at.v was:
  // as the root, resetting the virtual root's weight, or as at.parent's
  // child (one write). §7.3.2 exception: the fresh root of a subtree rebuild
  // is left unmarked when marking it would break the Lemma 7.2 weight ratio
  // with its critical parent, and may_unmark(root node) agrees.
  template <typename MayUnmark>
  void splice(const Rebuild& at, uint32_t fresh, uint64_t units,
              MayUnmark&& may_unmark) {
    if (at.parent == kNull) {
      root = fresh;
      root_weight = units + 1;
      root_init = root_weight;
      return;
    }
    asym::count_write();
    Node& p = pool[at.parent];
    (p.right == at.v ? p.right : p.left) = fresh;
    if (fresh != kNull && pool[fresh].critical &&
        rebuild_root_exception(at.old_init, alpha) &&
        may_unmark(pool[fresh])) {
      pool[fresh].critical = false;
    }
  }
  void splice(const Rebuild& at, uint32_t fresh, uint64_t units) {
    splice(at, fresh, units, [](const Node&) { return true; });
  }

  size_t height() const { return tree_height(pool, root); }

  std::vector<Node> pool;
  std::vector<uint32_t> free_list;
  uint32_t root = kNull;
  uint64_t root_weight = 1;  // virtual critical root: units + 1
  uint64_t root_init = 1;
  uint64_t alpha;
  size_t rebuilds = 0;
};

}  // namespace weg::augtree
