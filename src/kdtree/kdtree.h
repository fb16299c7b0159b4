// k-d trees (Section 6.1): classic median-split construction (the baseline,
// Θ(n log n) reads and writes) plus range and (1+eps)-approximate
// nearest-neighbor queries shared by every construction variant.
//
// Splitting cycles through the k dimensions (the analysis of Lemma 6.1
// assumes each axis is partitioned once every k consecutive levels).
// Every node stores its subtree's slice [begin, end) of the DFS-ordered
// point array and the tight bounding box of that slice. The slice doubles
// as a live-subtree count (end - begin, free at build time from the
// pre-claimed slice sizes), and the box drives the covered-subtree fast
// path: a query box that fully covers a node's bounding box answers
// range_count in O(1) and range_report by a bulk slice copy, without
// descending further (Lemma 6.1's count bound made concrete). Leaves store
// up to `leaf_size` points.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/asym/counters.h"
#include "src/geom/box.h"
#include "src/geom/point.h"
#include "src/parallel/batch_query.h"

namespace weg::kdtree {

struct BuildStats {
  asym::Counts cost;   // large-memory traffic of the build
  size_t height = 0;   // tree height (nodes on longest root-leaf path)
  size_t nodes = 0;    // total tree nodes
  // p-batched only: number of leaf-settle events and max buffer size seen at
  // settle time (Figure 2 / Lemma 6.3 series).
  size_t settles = 0;
  size_t max_settle_buffer = 0;
};

struct QueryStats {
  size_t nodes_visited = 0;
  size_t points_scanned = 0;
  // Subtrees answered by the covered fast path (query box ⊇ node box): the
  // whole subtree contributed without visiting its nodes.
  size_t covered_subtrees = 0;
};

// The one options bag threaded through every query entry point (serial and
// batch) of the k-d family.
struct QueryOptions {
  QueryStats* stats = nullptr;
  // Kill-switch for the covered-subtree fast path (A/B benching: off
  // reproduces the plain leaf-scan traversal and its asym charges). Results
  // are identical either way.
  bool count_fast_path = true;
};

namespace detail {

// Deterministic stats aggregation for batch entry points: each query writes
// a private QueryStats slot during the parallel batch, and the slots sum
// serially afterwards — the totals are a function of the batch alone, not
// of the work-stealing schedule. When no sink is set, at() hands out
// stat-free options and the scope is free.
class BatchStatsScope {
 public:
  BatchStatsScope(size_t nq, const QueryOptions& opts) : opts_(opts) {
    if (opts_.stats != nullptr) per_.resize(nq);
  }
  BatchStatsScope(const BatchStatsScope&) = delete;
  BatchStatsScope& operator=(const BatchStatsScope&) = delete;
  QueryOptions at(size_t i) {
    QueryOptions o = opts_;
    o.stats = per_.empty() ? nullptr : &per_[i];
    return o;
  }
  ~BatchStatsScope() {
    if (opts_.stats == nullptr) return;
    for (const QueryStats& s : per_) {
      opts_.stats->nodes_visited += s.nodes_visited;
      opts_.stats->points_scanned += s.points_scanned;
      opts_.stats->covered_subtrees += s.covered_subtrees;
    }
  }

 private:
  const QueryOptions opts_;
  std::vector<QueryStats> per_;
};

// True iff V exposes the covered-subtree hook `covered(begin, end)` — the
// visitor-side half of the fast path. Visitors without it (liveness-filtered
// forest levels, plain lambdas) always take the per-point traversal.
template <typename V>
concept CoveredVisitor = requires(V v, size_t b, size_t e) { v.covered(b, e); };

}  // namespace detail

inline constexpr uint32_t kNullNode = UINT32_MAX;

// Exact node count of the classic median-split recursion over m points
// (count(m) = 1 for m <= leaf_size, else 1 + count(floor(m/2)) +
// count(ceil(m/2)); an empty range still makes one leaf node). Splits are at
// the exact median, so the count is a function of (m, leaf_size) alone —
// this is what lets the parallel builds pre-claim deterministic id slices
// instead of drawing from a scheduling-dependent atomic allocator. O(log m):
// subtree sizes at each recursion depth take at most two distinct values.
size_t classic_node_count(size_t m, size_t leaf_size);

template <int K>
class KdTree {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  struct Node {
    int dim = 0;                 // splitting dimension (interior)
    double split = 0;            // splitting coordinate (interior)
    uint32_t left = kNullNode;   // kNullNode for leaves
    uint32_t right = kNullNode;
    // Subtree slice in points_ (leaves partition points_ in DFS order, so
    // every subtree is contiguous). end - begin is the subtree's point
    // count — the count augmentation is free at build time.
    uint32_t begin = 0, end = 0;
    // Tight bounding box of points_[begin, end) (empty() for an empty
    // leaf). Derived bookkeeping maintained by every builder; the covered
    // fast path and the nn short-circuit read it with the node itself.
    Box box = Box::empty();
    bool is_leaf() const { return left == kNullNode; }
  };

  KdTree() = default;

  // Classic construction: recursive exact-median split, cycling dimensions.
  // Charges one read + one write per point per level (Θ(n log n) writes).
  static KdTree build_classic(std::vector<Point> points, size_t leaf_size = 8,
                              BuildStats* stats = nullptr);

  // --- queries ---------------------------------------------------------

  // Count / report points inside the axis-aligned box.
  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;

  // (1+eps)-approximate nearest neighbor; eps = 0 gives the exact NN.
  // Returns the index into points() of the neighbor (SIZE_MAX if empty).
  size_t ann(const Point& q, double eps = 0.0,
             const QueryOptions& opts = {}) const;

  // k nearest neighbors (exact), returned sorted by distance.
  std::vector<size_t> knn(const Point& q, size_t k,
                          const QueryOptions& opts = {}) const;

  // --- batched queries (shared two-phase engine) -----------------------
  //
  // Unified contract shared by every k-d structure family (see
  // docs/ARCHITECTURE.md "Count augmentation & pruning"):
  //   range_count_batch  -> std::vector<size_t>
  //   range_report_batch -> parallel::BatchResult<Point>
  //   knn_batch          -> parallel::BatchResult<Point>
  //   ann_batch          -> std::vector<std::optional<Point>>

  std::vector<size_t> range_count_batch(const std::vector<Box>& qs,
                                        const QueryOptions& opts = {}) const;
  parallel::BatchResult<Point> range_report_batch(
      const std::vector<Box>& qs, const QueryOptions& opts = {}) const;
  // Flat k-NN over all queries: query i's neighbors (points sorted by the
  // canonical (distance^2, coords) order) occupy slice i; every query
  // yields exactly min(k, size()) results, so the count pass is free.
  parallel::BatchResult<Point> knn_batch(const std::vector<Point>& qs,
                                         size_t k,
                                         const QueryOptions& opts = {}) const;
  std::vector<std::optional<Point>> ann_batch(
      const std::vector<Point>& qs, double eps = 0.0,
      const QueryOptions& opts = {}) const;

  // --- templated traversals (the visitor core) -------------------------
  //
  // Each query family has exactly one traversal; the public count/report/
  // batch entry points (and the dynamic structures layered on this tree)
  // instantiate them with different visitors.

  // Calls vis(i) for every point index i inside `query`, in deterministic
  // DFS order (equivalently: ascending i, since leaves partition points_
  // in order). If the visitor models detail::CoveredVisitor and the fast
  // path is enabled, a node whose box is fully inside `query` is answered
  // by one vis.covered(begin, end) call instead of descending — O(1) reads
  // for counting visitors.
  template <typename V>
  void range_visit(const Box& query, V&& vis,
                   const QueryOptions& opts = {}) const {
    if (root_ != kNullNode) range_visit_rec(root_, query, vis, opts);
  }

  // Nearest-neighbor traversal with box pruning and near-side-first order.
  // The visitor owns the candidate set:
  //   vis.bound()      — current squared-distance pruning radius,
  //   vis.offer(i, d2) — consider points_[i] at squared distance d2.
  // Pruning is two-tier: the split-induced region box prunes before the
  // node is fetched (free), and the node's tight bounding box short-circuits
  // after one read — strictly tighter, so whole subtrees farther than the
  // bound cost one read instead of a descent. Both prune strictly (`>`), so
  // distance-tied candidates still reach offer() and the canonical
  // (d2, coords) order decides — results are traversal-independent.
  template <typename V>
  void nn_visit(const Point& q, V&& vis, const QueryOptions& opts = {}) const {
    if (root_ != kNullNode) nn_visit_rec(root_, whole_space(), q, vis, opts);
  }

  // Index of a point equal to p (SIZE_MAX if absent). Descends the splits,
  // exploring both sides when p lies exactly on a splitting hyperplane.
  size_t find(const Point& p) const;

  // --- introspection ------------------------------------------------------

  size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t height() const;

  // Structural invariants: every leaf point lies on the correct side of all
  // ancestor splits; leaf ranges partition points_; every node's [begin,
  // end) slice is the union of its children's and its box bounds the slice.
  // Returns false on any violation (test helper, uncounted).
  bool validate() const;

  // --- internals shared with the other construction algorithms ------------
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  uint32_t& root() { return root_; }
  uint32_t root() const { return root_; }
  std::vector<Point>& mutable_points() { return points_; }

  // Builds a subtree over points_[lo, hi) (reordering in place) and returns
  // its node index. `charge` toggles asym counting (the p-batched finishing
  // step builds small subtrees inside the symmetric memory and charges only
  // the O(p) input reads / output writes itself). The subtree occupies the
  // pre-claimed slice nodes_[id_base, id_base + classic_node_count(hi - lo))
  // in pre-order (nodes_ must be pre-sized); sibling slices are disjoint, so
  // subtrees above the sequential cutoff fork on the scheduler and node ids
  // are identical at every worker count.
  uint32_t build_recursive(size_t lo, size_t hi, int depth, size_t leaf_size,
                           bool charge, uint32_t id_base);

 private:
  static Box whole_space() {
    Box all;
    for (int d = 0; d < K; ++d) {
      all.lo[d] = -std::numeric_limits<double>::infinity();
      all.hi[d] = std::numeric_limits<double>::infinity();
    }
    return all;
  }

  template <typename V>
  void range_visit_rec(uint32_t node, const Box& query, V& vis,
                       const QueryOptions& opts) const {
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();  // fetch the node (split, slice, and box together)
    const Node& nd = nodes_[node];
    if constexpr (detail::CoveredVisitor<V>) {
      if (opts.count_fast_path && nd.box.inside(query)) {
        // Whole subtree inside the query: one covered() call replaces the
        // descent. Counting visitors add end - begin in O(1) reads; the
        // reporting visitor bulk-copies the slice without per-point
        // containment tests.
        if (opts.stats) ++opts.stats->covered_subtrees;
        vis.covered(nd.begin, nd.end);
        return;
      }
    }
    if (nd.is_leaf()) {
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        if (query.contains(points_[i])) vis(i);
      }
      return;
    }
    if (query.lo[nd.dim] <= nd.split) {
      range_visit_rec(nd.left, query, vis, opts);
    }
    if (query.hi[nd.dim] >= nd.split) {
      range_visit_rec(nd.right, query, vis, opts);
    }
  }

  template <typename V>
  void nn_visit_rec(uint32_t node, const Box& region, const Point& q, V& vis,
                    const QueryOptions& opts) const {
    if (region.squared_distance(q) > vis.bound()) return;
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();
    const Node& nd = nodes_[node];
    // Tight-box short-circuit: the subtree's bounding box lower-bounds every
    // point distance in it, and is never looser than the split region.
    if (opts.count_fast_path && nd.box.squared_distance(q) > vis.bound()) {
      if (opts.stats) ++opts.stats->covered_subtrees;
      return;
    }
    if (nd.is_leaf()) {
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        vis.offer(i, geom::squared_distance(points_[i], q));
      }
      return;
    }
    Box left_region = region;
    left_region.hi[nd.dim] = nd.split;
    Box right_region = region;
    right_region.lo[nd.dim] = nd.split;
    if (q[nd.dim] <= nd.split) {
      nn_visit_rec(nd.left, left_region, q, vis, opts);
      nn_visit_rec(nd.right, right_region, q, vis, opts);
    } else {
      nn_visit_rec(nd.right, right_region, q, vis, opts);
      nn_visit_rec(nd.left, left_region, q, vis, opts);
    }
  }

  std::vector<Node> nodes_;
  std::vector<Point> points_;
  uint32_t root_ = kNullNode;
  size_t leaf_size_ = 8;

  template <int K2>
  friend class PBatchedBuilder;
};

using KdTree2 = KdTree<2>;
using KdTree3 = KdTree<3>;

}  // namespace weg::kdtree
