// Dynamic k-d trees (Section 6.2). k-d tree nodes represent subspaces, so
// rotations are impossible; both update strategies in the paper are
// reconstruction-based:
//
//  * LogForest — logarithmic reconstruction [46]: at most log2 n static
//    trees of sizes that are increasing powers of two. An insertion creates
//    a size-1 tree and repeatedly merges equal-sized trees (flatten +
//    rebuild). Queries search all O(log n) trees. Insertion costs
//    O(log^2 n) reads and writes; rebuilding with the p-batched constructor
//    (RebuildMode::PBatched) cuts the *writes* per insertion to O(log n)
//    while reads stay O(log^2 n), exactly the trade the paper describes.
//    Deletions mark points dead and the forest is compacted once half of
//    all points are dead (amortized O(1) writes per deletion).
//
//  * DynamicKdTree — single-tree version: subtree sizes are maintained and a
//    subtree is reconstructed whenever the weights of its two children
//    differ beyond the mode's tolerance. Mode::RangeOptimal keeps the
//    imbalance at O(1/log n) so the height stays log2 n + O(1) (preserving
//    the O(n^((k-1)/k)) range query bound) at O(log^3 n) amortized work per
//    insertion; Mode::AnnOnly tolerates a constant-factor imbalance (height
//    O(log n)) at O(log^2 n) amortized work.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/kdtree/kdtree.h"
#include "src/kdtree/pbatched.h"

namespace weg::kdtree {

namespace detail {

// Forest-level covered hook: vis.covered(pts, b, e) consumes the slice
// pts[b, e) of one fully-covered level subtree wholesale (only sound when
// the level has no dead points). Visitors without it always take the
// per-point path.
template <typename V, typename Point>
concept LevelCoveredVisitor =
    requires(V v, const std::vector<Point>& pts, size_t b, size_t e) {
      v.covered(pts, b, e);
    };

}  // namespace detail

template <int K>
class LogForest {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  enum class RebuildMode { kClassic, kPBatched };

  explicit LogForest(RebuildMode mode = RebuildMode::kClassic,
                     size_t leaf_size = 8)
      : mode_(mode), leaf_size_(leaf_size) {}

  void insert(const Point& p);
  // Batched insertion: gathers the carry chain once for the whole batch and
  // performs a single (parallel, p-batched when large) rebuild at the first
  // level that both clears the occupied prefix and is large enough for the
  // batch — one tree build instead of up to |pts| carry-chain merges.
  // Validates the batch up front (finite coordinates) and checks the
  // "alloc" fault point; any non-OK return happens before the first write,
  // leaving the forest unchanged.
  Status bulk_insert(const std::vector<Point>& pts);
  // Removes one point equal to p; returns false if absent.
  bool erase(const Point& p);
  // Batched deletion: marks every present point of the batch dead, deferring
  // the half-dead forest compaction check to the end — one compaction per
  // batch instead of up to |pts| piecemeal rebuilds. Returns the number of
  // points actually erased; a non-finite record is rejected pre-mutation.
  Expected<size_t> bulk_erase(const std::vector<Point>& pts);

  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;
  // (1+eps)-ANN over the whole forest; returns the point itself. A
  // non-finite query yields nullopt (distances to NaN are unordered).
  std::optional<Point> ann(const Point& q, double eps = 0.0,
                           const QueryOptions& opts = {}) const;
  // Exact k nearest neighbors over the live points of all levels, returned
  // as points sorted by (squared distance, coordinates) — the canonical
  // order the sharded layer's top-k merge assumes. Returns exactly
  // min(k, size()) points; k == 0 or a non-finite query yields none.
  std::vector<Point> knn(const Point& q, size_t k,
                         const QueryOptions& opts = {}) const;

  // Batched queries on the shared two-phase engine (the unified contract —
  // see docs/ARCHITECTURE.md "Count augmentation & pruning").
  std::vector<size_t> range_count_batch(const std::vector<Box>& qs,
                                        const QueryOptions& opts = {}) const;
  parallel::BatchResult<Point> range_report_batch(
      const std::vector<Box>& qs, const QueryOptions& opts = {}) const;
  std::vector<std::optional<Point>> ann_batch(
      const std::vector<Point>& qs, double eps = 0.0,
      const QueryOptions& opts = {}) const;
  // Flat k-NN over all queries: query i's neighbors occupy slice i; every
  // query yields exactly min(k, size()) results, so the count pass is free.
  parallel::BatchResult<Point> knn_batch(const std::vector<Point>& qs,
                                         size_t k,
                                         const QueryOptions& opts = {}) const;

  size_t size() const { return live_; }
  size_t num_trees() const;
  // Every live point, level by level — the record extraction hook the
  // sharded layer's commit-time rebalancing uses.
  std::vector<Point> live_points() const { return flatten_alive(); }

 private:
  struct Level {
    KdTree<K> tree;
    std::vector<uint8_t> alive;  // parallel to tree.points()
    size_t dead = 0;
    bool used = false;
  };

  // The single templated range traversal: calls vis(pt) for every live point
  // inside `query`, level by level (each level delegates to the static
  // tree's range_visit and filters by liveness). range_count, range_report,
  // and the batch variants all instantiate it. A level without dead points
  // keeps the static tree's covered-subtree fast path alive: when the
  // visitor exposes the level hook (detail::LevelCoveredVisitor), covered
  // slices are forwarded wholesale instead of per point. A level with dead
  // points always takes the filtered per-point path (a slice copy would
  // resurrect its dead points).
  template <typename V>
  void range_visit(const Box& query, V&& vis, const QueryOptions& opts) const {
    for (const Level& L : levels_) {
      if (!L.used) continue;
      const auto& tree_pts = L.tree.points();
      if constexpr (detail::LevelCoveredVisitor<std::remove_reference_t<V>,
                                                Point>) {
        if (L.dead == 0) {
          struct Wrap {
            const std::vector<Point>* pts;
            std::remove_reference_t<V>* vis;
            void operator()(size_t i) { (*vis)((*pts)[i]); }
            void covered(size_t b, size_t e) { vis->covered(*pts, b, e); }
          } w{&tree_pts, &vis};
          L.tree.range_visit(query, w, opts);
          continue;
        }
      }
      L.tree.range_visit(
          query,
          [&](size_t i) {
            if (L.dead == 0 || L.alive[i]) vis(tree_pts[i]);
          },
          opts);
    }
  }

  std::vector<Point> flatten_alive() const;
  void rebuild_from(std::vector<Point> pts);
  KdTree<K> build(std::vector<Point> pts);
  // Marks one point dead without the trailing compaction check (erase and
  // bulk_erase share it; only the compaction cadence differs).
  bool erase_mark(const Point& p);
  void maybe_compact();
  // k-NN candidates as (squared distance, point), sorted by (distance,
  // coordinates) and truncated to min(k, size()) entries. knn and knn_batch
  // both instantiate the per-level gathering; output writes are charged by
  // the callers.
  std::vector<std::pair<double, Point>> knn_candidates(
      const Point& q, size_t k, const QueryOptions& opts) const;

  RebuildMode mode_;
  size_t leaf_size_;
  std::vector<Level> levels_;
  size_t live_ = 0;
  size_t dead_ = 0;
};

template <int K>
class DynamicKdTree {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  enum class Mode { kRangeOptimal, kAnnOnly };

  explicit DynamicKdTree(Mode mode = Mode::kRangeOptimal,
                         size_t leaf_size = 8)
      : mode_(mode), leaf_size_(leaf_size) {}

  void insert(const Point& p);
  bool erase(const Point& p);
  // Batched insertion: routes every point to its leaf buffer first (weights
  // maintained along the paths), then runs one top-down restructuring pass
  // that rebuilds every violated subtree — oversized leaf buffers, imbalance
  // beyond the mode's tolerance, dead-point majorities — through the shared
  // pre-claim slot path (parallel::claim_build_slots via rebuild_subtree),
  // instead of the per-element alloc-one-node leaf splits of insert().
  // Validates the batch up front (finite coordinates) and checks the
  // "alloc" fault point; any non-OK return happens before the first write,
  // leaving the tree unchanged.
  Status bulk_insert(const std::vector<Point>& pts);
  // Batched deletion: marks every present point of the batch dead, then runs
  // the same single restructuring pass. Returns the number erased; a
  // non-finite record is rejected pre-mutation.
  Expected<size_t> bulk_erase(const std::vector<Point>& pts);

  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;
  // A non-finite query yields nullopt (distances to NaN are unordered).
  std::optional<Point> ann(const Point& q, double eps = 0.0,
                           const QueryOptions& opts = {}) const;
  // Exact k nearest live neighbors, returned as points sorted by (squared
  // distance, coordinates) — the canonical order the sharded layer's top-k
  // merge assumes. Returns exactly min(k, size()) points; k == 0 or a
  // non-finite query yields none.
  std::vector<Point> knn(const Point& q, size_t k,
                         const QueryOptions& opts = {}) const;

  // Batched queries on the shared two-phase engine (the unified contract —
  // see docs/ARCHITECTURE.md "Count augmentation & pruning").
  std::vector<size_t> range_count_batch(const std::vector<Box>& qs,
                                        const QueryOptions& opts = {}) const;
  parallel::BatchResult<Point> range_report_batch(
      const std::vector<Box>& qs, const QueryOptions& opts = {}) const;
  std::vector<std::optional<Point>> ann_batch(
      const std::vector<Point>& qs, double eps = 0.0,
      const QueryOptions& opts = {}) const;
  // Flat k-NN over all queries: query i's neighbors occupy slice i; every
  // query yields exactly min(k, size()) results, so the count pass is free.
  parallel::BatchResult<Point> knn_batch(const std::vector<Point>& qs,
                                         size_t k,
                                         const QueryOptions& opts = {}) const;

  size_t size() const { return live_; }
  // Every live point, in deterministic DFS order — the record extraction
  // hook the sharded layer's commit-time rebalancing uses.
  std::vector<Point> live_points() const;
  size_t height() const;
  // Number of subtree reconstructions triggered so far (test/bench hook).
  size_t rebuilds() const { return rebuilds_; }
  bool validate() const;

 private:
  struct Node {
    int dim = 0;
    double split = 0;
    int depth = 0;
    uint32_t left = kNullNode;
    uint32_t right = kNullNode;
    uint32_t live = 0;   // live points in subtree
    uint32_t total = 0;  // live + dead points in subtree
    // Conservative bounding box of every point routed into this subtree
    // (exact after a rebuild, extended on insertion paths, never shrunk by
    // erasure — so it always contains all live points). Drives the covered
    // count fast path (box ⊆ query ⇒ contribute `live` in O(1)) and the
    // nn bound short-circuit.
    Box box = Box::empty();
    std::vector<std::pair<Point, bool>> leaf_pts;  // (point, alive)
    bool is_leaf() const { return left == kNullNode; }
  };

  double imbalance_tolerance() const;
  uint32_t alloc_node();
  void free_subtree(uint32_t v);
  // The single templated range traversal: calls vis(pt) for every live point
  // inside `query`, in deterministic DFS order. range_count, range_report,
  // and the batch variants all instantiate it. A visitor exposing
  // `covered(size_t live)` gets the O(1) covered-subtree fast path: a node
  // whose box is inside the query contributes its live weight without a
  // descent (reporting keeps the per-point path — a slice copy would
  // resurrect dead points).
  template <typename V>
  void range_visit(const Box& query, V&& vis, const QueryOptions& opts) const;
  void collect_alive(uint32_t v, std::vector<Point>& out) const;
  // Reconstruction entry point: pre-claims the exact (size-determined) node
  // count through parallel::claim_build_slots, then recurses over id slices
  // so sibling subtrees fork on the scheduler without touching the shared
  // allocator.
  uint32_t rebuild_subtree(std::vector<Point>& pts, size_t lo, size_t hi,
                           int depth);
  uint32_t rebuild_subtree_ids(std::vector<Point>& pts, size_t lo, size_t hi,
                               int depth, const uint32_t* ids);
  void maybe_rebalance(const std::vector<uint32_t>& path);
  // Marks one point dead (decrementing live weights along its path) without
  // rebalancing; erase and the bulk paths share it.
  bool erase_mark(const Point& p, std::vector<uint32_t>* path);
  // The reconstruction trigger shared by maybe_rebalance (per-element) and
  // restructure_rec (bulk): children's live weights differ beyond the
  // mode's tolerance, or dead points outnumber live ones.
  bool interior_violated(const Node& nd) const;
  // Post-bulk restructuring: descends only into subtrees the bulk pass
  // touched (touched[v] != 0 — weights elsewhere are unchanged, so no new
  // violation is possible there), rebuilds every violated subtree via
  // rebuild_subtree (stopping the descent there), and refreshes interior
  // live/total weights on the way back up. Cost: O(batch * height) plus the
  // rebuilt subtree sizes, not O(n). Returns the (possibly fresh) subtree
  // id.
  uint32_t restructure_rec(uint32_t v, const std::vector<uint8_t>& touched);

  Mode mode_;
  size_t leaf_size_;
  std::vector<Node> pool_;
  std::vector<uint32_t> free_list_;
  uint32_t root_ = kNullNode;
  size_t live_ = 0;
  size_t dead_ = 0;
  size_t rebuilds_ = 0;
};

}  // namespace weg::kdtree
