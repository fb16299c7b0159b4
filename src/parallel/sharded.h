// Sharded serving layer over the batched-query engine.
//
// Sharded<Structure> splits the key space across S independent instances of
// one dynamic structure (fanout chosen at run time) with a per-structure
// key extractor (ShardTraits<Structure>): every record routes to exactly
// one shard, so updates touch one instance and the instances share no
// state — shard-level work fans out on the scheduler with no locking.
//
// Routing policies (Routing ctor parameter, hash is the default):
//  * Routing::kHash — route_key(rec) is hashed; records spread uniformly
//    and every query batch is broadcast to all S shards.
//  * Routing::kRange — the ordered partition key (interval left endpoint;
//    point coordinate along ShardTraits::kSplitDim) is split into S
//    contiguous ranges seeded from a sample of the first insert batch.
//    Each shard tracks conservative coverage bounds [lo, hi] along the
//    partition axis (extended on insert, never shrunk by erase, recomputed
//    exactly on rebalance), and the planner routes every query only to the
//    shards whose coverage can answer it: stab point in [lo, hi];
//    query-rectangle slab against the shard slab; kNN/ANN best-first —
//    seed the nearest shard by cover-box distance, then visit every other
//    shard within the current k-th (resp. best) candidate distance. At
//    commit() the layer collects per-shard load stats (live records +
//    queries routed since the previous commit) and rebalances skewed bounds
//    — recomputing the quantile split points over the live key set
//    (splitting overloaded ranges, merging underused neighbors) and
//    migrating the records whose shard changed — before publishing the
//    version.
//
// Queries: every batched query family the structure exposes is re-exposed
// here, and each runs one path. The wrapper routes the batch into a Plan —
// per shard, the sub-batch it answers; per query, the slots its per-shard
// answers land in. Broadcast is the all-shards plan, built directly (every
// shard answers the whole batch, visits = nq * S); range routing semisorts
// the batch by target-shard mask (primitives::semisort) into a planned one.
// run_planned issues one sub-batch per visited shard in parallel, and the
// family's merge folds the per-shard slices into one flat result by pure
// offset arithmetic: merged count(q) = sum over q's slots of count_s(q), an
// exclusive scan turns the counts into slice offsets, and each merged slice
// is filled by concatenating the shard slices. Each merged slice is then
// put into a canonical order — ascending ids for stabbing, lexicographic
// coordinates for range reports, (distance, coordinates) for kNN/ANN — so
// the merged result is a function of the *record set* alone: every routing
// policy, every fanout, and every worker count returns bitwise-identical
// items (shards a planner prunes provably contribute nothing), and the
// merge's and planner's asym read/write charges are bulk functions of the
// batch, the visits and the slice sizes (the same determinism contract the
// per-shard engines provide). kNN/ANN merge via a top-k (top-1) reduce over
// the per-shard candidate slices instead of plain concatenation.
//
// Epoch API: a serving loop alternates write batches and query batches
// without external locking by staging updates on the Sharded layer —
// stage_insert / stage_erase buffer records without touching any shard,
// and commit() partitions the staged batch by shard, applies every shard's
// bulk_insert + bulk_erase in parallel (insertions first, then erasures),
// and publishes the next version. A commit with nothing staged publishes
// nothing: version() is unchanged. Staged records are invisible until
// their commit, so query batches may be freely interleaved with staging.
//
// Versions: everything a query reads — one shared_ptr<const Structure> per
// shard, the range partition's split points and coverage bounds, and the
// version number — is one immutable ShardedVersion. The layer publishes
// one Version at a time by a pointer swap, and snapshot() pins the
// published one (a ShardedSnapshot is a shared_ptr<const ShardedVersion>).
// A commit copies the current Version, replaces only the shards its batch
// touches with applied clones — every untouched shard is shared by pointer
// with the previous Version, so the epoch writes only what changed — and
// publishes the copy. A pinned snapshot therefore keeps answering from its
// own Version across any number of later commits, and the superseded
// Version is freed by whichever thread drops the last reference to it (the
// committing writer, or a reader whose snapshot outlived the commit).
// Concurrency contract: one writer (the staging, commit and bulk calls)
// and any number of concurrent readers (snapshot() and the query
// wrappers, which each pin the published Version for the whole batch, so
// a batch and the version it reports always agree). Staged buffers and
// the routing telemetry live on Sharded, not on the Version.
//
// Transactional commit: commit() returns Expected<uint64_t> (the published
// version number) and is all-or-nothing. Staged records are validated up
// front (finite coordinates, l <= r, no duplicate ids within an epoch);
// then every shard with work applies its sub-batches to a shadow clone
// inside the unpublished next Version, which is published only after every
// shard succeeded. Any failure (validation, a structure-level error such as an
// id already live, an injected fault, or std::bad_alloc mid-apply) drops
// the unpublished Version: version() is unchanged, the published Version
// is the same object, and queries return bitwise-identical results to the
// pre-commit snapshot. The staged buffers are kept on failure so a caller
// can repair and retry, or drop them with discard_staged(). When several
// shards fail in one transaction, the reported Status is the lowest-
// numbered shard's (deterministic at every worker count). bulk_insert /
// bulk_erase run the same transaction, and commit-time rebalancing is its
// own transaction against the unpublished Version (a failed migration
// skips the rebalance and keeps the commit).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/interval_tree.h"
#include "src/core/status.h"
#include "src/geom/point.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/batch_query.h"
#include "src/parallel/fault.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/semisort.h"
#include "src/primitives/sequence.h"

namespace weg::parallel {

// How records and queries map to shards. kHash spreads records uniformly
// and broadcasts queries (the all-shards plan); kRange partitions the
// ordered key space so the planner can prune shards per query.
enum class Routing { kHash, kRange };

// splitmix64 finalizer: the router's hash. Fanout is typically a small
// power of two, so the low bits must already be well mixed.
inline uint64_t shard_mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Canonical bit pattern of a float routing key. -0.0 and +0.0 compare
// equal as doubles but differ bitwise, so hashing the raw bits would send
// records that are equal under operator== to different shards — and a
// staged erase of {-0.0, ...} would silently miss the {+0.0, ...} record
// it targets. Routing must be a pure function of the record's equality
// class, so the zero is canonicalized before std::bit_cast.
inline uint64_t float_key_bits(double x) {
  return std::bit_cast<uint64_t>(x == 0.0 ? 0.0 : x);
}

// Per-structure key extraction. Record is the unit of update routing;
// route_key(rec) is the 64-bit key hash routing uses, partition_key(rec)
// the ordered key range routing splits on, and coverage_hi(rec) how far a
// record extends shard coverage along the partition axis (an interval
// stored by left endpoint answers stabs up to its right endpoint).
// kCoverDims / cover_lo / cover_hi describe the record's extent in the
// shard coverage box: dimension 0 is the partition axis ([partition_key,
// coverage_hi]); point structures cover all K coordinate axes so the
// planner's kNN/ANN pruning and the covered-shard count fast path can use
// the full-dimensional box distance instead of the 1-D slab. extract(s)
// enumerates the live records for commit-time rebalancing. Erasing a
// record must route like inserting it (routing is a pure function of the
// record), which is all the layer needs for correctness; the policy only
// affects balance and planner selectivity.
template <typename Structure>
struct ShardTraits;

template <>
struct ShardTraits<augtree::DynamicIntervalTree> {
  using Record = augtree::Interval;
  static uint64_t route_key(const Record& iv) {
    uint64_t h = shard_mix(float_key_bits(iv.l));
    h = shard_mix(h ^ float_key_bits(iv.r));
    return shard_mix(h ^ iv.id);
  }
  static double partition_key(const Record& iv) { return iv.l; }
  static double coverage_hi(const Record& iv) { return iv.r; }
  static constexpr int kCoverDims = 1;
  static double cover_lo(const Record& iv, int) { return iv.l; }
  static double cover_hi(const Record& iv, int) { return iv.r; }
  static std::vector<Record> extract(const augtree::DynamicIntervalTree& t) {
    return t.live_records();
  }
};

namespace detail {

template <int K>
struct PointRouteTraits {
  using Record = geom::PointK<K>;
  // The fixed split dimension range partitioning orders points by.
  static constexpr int kSplitDim = 0;
  static uint64_t route_key(const Record& p) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int d = 0; d < K; ++d) {
      h = shard_mix(h ^ float_key_bits(p[d]));
    }
    return h;
  }
  static double partition_key(const Record& p) { return p[kSplitDim]; }
  static double coverage_hi(const Record& p) { return p[kSplitDim]; }
  // Points cover all K axes: the planner prunes with the full-dimensional
  // cover-box distance and answers fully-covered shards by count.
  static constexpr int kCoverDims = K;
  static double cover_lo(const Record& p, int d) { return p[d]; }
  static double cover_hi(const Record& p, int d) { return p[d]; }
};

// Canonical slice orders for the merge.
struct IdLess {
  bool operator()(uint32_t a, uint32_t b) const { return a < b; }
};
struct CoordLess {
  template <typename P>
  bool operator()(const P& a, const P& b) const {
    return a.coords < b.coords;
  }
};

// Routing telemetry shared by a layer and every Version it publishes:
// queries planned and shard visits issued, plus per-shard sub-batches
// routed since the last commit. Relaxed atomics: any number of readers
// plan batches concurrently; the counters are stats, not asym charges.
struct RoutingTelemetry {
  explicit RoutingTelemetry(size_t fanout)
      : routed(new std::atomic<uint64_t>[fanout]) {
    for (size_t s = 0; s < fanout; ++s) {
      routed[s].store(0, std::memory_order_relaxed);
    }
  }
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> visits{0};
  std::unique_ptr<std::atomic<uint64_t>[]> routed;
};

}  // namespace detail

template <int K>
struct ShardTraits<kdtree::LogForest<K>> : detail::PointRouteTraits<K> {
  static std::vector<geom::PointK<K>> extract(const kdtree::LogForest<K>& t) {
    return t.live_points();
  }
};
template <int K>
struct ShardTraits<kdtree::DynamicKdTree<K>> : detail::PointRouteTraits<K> {
  static std::vector<geom::PointK<K>> extract(
      const kdtree::DynamicKdTree<K>& t) {
    return t.live_points();
  }
};

template <typename Structure>
class Sharded;

// One published, immutable state of a Sharded layer: the shards (each
// shared by pointer with every other Version that did not touch it), the
// range partition, and the version number. Every batched query family runs
// here, so a query batch reads exactly one Version from start to finish.
// Only Sharded builds Versions; readers hold them through ShardedSnapshot.
template <typename Structure>
class ShardedVersion {
 public:
  using Traits = ShardTraits<Structure>;
  using Record = typename Traits::Record;

  size_t fanout() const { return shards_.size(); }
  Routing routing() const { return routing_; }
  uint64_t version() const { return version_; }
  size_t shard_of(const Record& rec) const {
    if (routing_ == Routing::kRange && bounds_built_) {
      return shard_by_key(Traits::partition_key(rec));
    }
    return Traits::route_key(rec) % shards_.size();
  }
  const Structure& shard(size_t s) const { return *shards_[s]; }
  size_t size() const {
    size_t total = 0;
    for (const auto& s : shards_) total += s->size();
    return total;
  }
  // Whether the range partition has been seeded (first non-empty insert).
  bool bounds_built() const { return bounds_built_; }
  // The S-1 ordered split points: shard 0 owns (-inf, splits()[0]), shard
  // s owns [splits()[s-1], splits()[s]), shard S-1 owns the tail.
  const std::vector<double>& splits() const { return splits_; }

  // --- batched queries --------------------------------------------------
  //
  // All wrappers are member templates constrained on the wrapped structure
  // actually exposing the family, so a Version of DynamicIntervalTree shards
  // has stab entry points and one of LogForest<2> the spatial ones. Each
  // wrapper routes its batch into a Plan (the all-shards plan under hash
  // routing, the planner's under range routing), runs it with run_planned,
  // and merges the per-shard slices with its family's merge.

  template <typename Q>
  auto stab_batch(const std::vector<Q>& qs) const
    requires requires(const Structure& s) { s.stab_batch(qs); }
  {
    Plan plan = route(qs.size(), [&](size_t i) { return stab_mask(qs[i]); });
    auto round = run_planned(std::move(plan), qs,
                             [](const Structure& s, const std::vector<Q>& sub) {
                               return s.stab_batch(sub);
                             });
    return merge_planned_report(round, qs.size(), detail::IdLess{});
  }

  template <typename Q>
  auto stab_count_batch(const std::vector<Q>& qs) const
    requires requires(const Structure& s) { s.stab_count_batch(qs); }
  {
    Plan plan = route(qs.size(), [&](size_t i) { return stab_mask(qs[i]); });
    auto round = run_planned(std::move(plan), qs,
                             [](const Structure& s, const std::vector<Q>& sub) {
                               return s.stab_count_batch(sub);
                             });
    return merge_planned_count(round, qs.size());
  }

  template <typename B>
  auto range_count_batch(const std::vector<B>& qs) const
    requires requires(const Structure& s) { s.range_count_batch(qs); }
  {
    constexpr int d0 = Traits::kSplitDim;
    size_t nq = qs.size();
    // Covered-shard fast path (planned batches): a query box that fully
    // covers a shard's cover box is answered by that shard's live-record
    // count up front — the query is never routed there, so the shard's trees
    // are not read at all. The remaining (partially overlapping) shards are
    // planned as before. cover ⊇ live records, so the summed result is exact.
    std::vector<size_t> covered_base(use_planner() ? nq : 0, 0);
    Plan plan = route(nq, [&](size_t i) {
      uint64_t m = slab_mask(qs[i].lo[d0], qs[i].hi[d0]);
      uint64_t rest = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (!((m >> s) & 1)) continue;
        if (covers_shard(qs[i], s)) {
          covered_base[i] += shards_[s]->size();
        } else {
          rest |= uint64_t{1} << s;
        }
      }
      return rest;
    });
    auto round = run_planned(std::move(plan), qs,
                             [](const Structure& s, const std::vector<B>& sub) {
                               return s.range_count_batch(sub);
                             });
    auto out = merge_planned_count(round, nq);
    if (use_planner()) {
      // One write per query for its covered-shard base count (the coverage
      // tests ride plan_batch's nq * S bulk read), then one read + write to
      // add it in.
      asym::count_read(nq);
      asym::count_write(2 * nq);
      for (size_t q = 0; q < nq; ++q) out[q] += covered_base[q];
    }
    return out;
  }

  template <typename B>
  auto range_report_batch(const std::vector<B>& qs) const
    requires requires(const Structure& s) { s.range_report_batch(qs); }
  {
    constexpr int d0 = Traits::kSplitDim;
    Plan plan = route(qs.size(), [&](size_t i) {
      return slab_mask(qs[i].lo[d0], qs[i].hi[d0]);
    });
    auto round = run_planned(std::move(plan), qs,
                             [](const Structure& s, const std::vector<B>& sub) {
                               return s.range_report_batch(sub);
                             });
    return merge_planned_report(round, qs.size(), detail::CoordLess{});
  }

  // k-NN: each visited shard reports its min(k, shard-live) nearest
  // candidates in the canonical (distance, coordinates) order; the merge
  // keeps the k best per query, so the merged slice equals the unsharded
  // structure's min(k, live) nearest in the same order. Routing is
  // best-first (run_best_first), pruned by the seed's k-th candidate
  // distance.
  template <typename P>
  auto knn_batch(const std::vector<P>& qs, size_t k) const
    requires requires(const Structure& s) { s.knn_batch(qs, k); }
  {
    using Result =
        std::decay_t<decltype(std::declval<const Structure&>().knn_batch(
            qs, k))>;
    using T = typename Result::value_type;
    size_t nq = qs.size();
    auto run = [&](const Structure& s, const std::vector<P>& sub) {
      return s.knn_batch(sub, k);
    };
    // Infinity when the seed shard cannot supply k candidates: then no
    // shard may be pruned.
    auto kth_d2 = [&](const Result& r, size_t j, const P& q) {
      if (k > 0 && r.count(j) == k) {
        return geom::squared_distance(*(r.end(j) - 1), q);
      }
      return std::numeric_limits<double>::infinity();
    };
    auto rounds = run_best_first(qs, run, kth_d2);
    size_t visits = 0, gathered = 0;
    for (const auto& round : rounds) {
      if (Status poison = first_poison(round.per); !poison.ok()) {
        return BatchResult<T>(std::move(poison));
      }
      visits += round.plan.visits;
      for (const Result& r : round.per) gathered += r.total();
    }

    std::vector<size_t> offsets(nq + 1, 0);
    for (size_t q = 0; q < nq; ++q) {
      size_t total = 0;
      auto add = [&](const Result& r, size_t j) { total += r.count(j); };
      for_each_answer(rounds, q, add);
      offsets[q] = std::min(k, total);
    }
    asym::count_read(visits);
    asym::count_write(nq);
    primitives::scan_exclusive(offsets);
    std::vector<T> items(offsets[nq]);
    parallel_for(
        0, nq,
        [&](size_t q) {
          T* out = items.data() + offsets[q];
          // Single-shard pass-through: with exactly one visited shard, that
          // shard's slice already is the merged answer in canonical order —
          // copy it, skipping the distance recompute and the merge sort.
          size_t visited = 0;
          auto visit = [&](const Result&, size_t) { ++visited; };
          for_each_answer(rounds, q, visit);
          if (visited == 1) {
            for_each_answer(rounds, q, [&](const Result& r, size_t j) {
              std::copy(r.begin(j), r.end(j), out);
            });
            return;
          }
          std::vector<std::pair<double, T>> cand;
          for_each_answer(rounds, q, [&](const Result& r, size_t j) {
            for (const T* it = r.begin(j); it != r.end(j); ++it) {
              cand.emplace_back(geom::squared_distance(*it, qs[q]), *it);
            }
          });
          top_k_into(cand, out, offsets[q + 1] - offsets[q]);
        },
        1);
    // Candidate gather + winner writes, charged in bulk (deterministic:
    // slice sizes are functions of the record set and k alone).
    asym::count_read(gathered);
    asym::count_write(items.size());
    return BatchResult<T>(std::move(items), std::move(offsets));
  }

  // ANN: top-1 reduce — the best shard answer by (distance, coordinates).
  // Each shard answer is a (1+eps)-ANN of its subset, so the reduced answer
  // is a (1+eps)-ANN of the union; eps = 0 gives the exact NN. Routing is
  // best-first (run_best_first), pruned by the seed answer's distance — a
  // pruned shard's answer would lose the reduce, so the routed answer
  // equals the broadcast one.
  template <typename P>
  auto ann_batch(const std::vector<P>& qs, double eps = 0.0) const
    requires requires(const Structure& s) { s.ann_batch(qs, eps); }
  {
    using Vec =
        std::decay_t<decltype(std::declval<const Structure&>().ann_batch(
            qs, eps))>;
    size_t nq = qs.size();
    auto dist = [](const typename Vec::value_type& a, const P& q) {
      if (!a.has_value()) return std::numeric_limits<double>::infinity();
      return geom::squared_distance(*a, q);
    };
    auto run = [&](const Structure& s, const std::vector<P>& sub) {
      return s.ann_batch(sub, eps);
    };
    auto seed_d2 = [&](const Vec& r, size_t j, const P& q) {
      return dist(r[j], q);
    };
    auto rounds = run_best_first(qs, run, seed_d2);
    Vec out(nq);
    parallel_for(
        0, nq,
        [&](size_t q) {
          for_each_answer(rounds, q, [&](const Vec& r, size_t j) {
            const auto& alt = r[j];
            if (!alt.has_value()) return;
            double da = dist(alt, qs[q]), dc = dist(out[q], qs[q]);
            if (!out[q].has_value() || da < dc ||
                (da == dc && (*alt).coords < (*out[q]).coords)) {
              out[q] = alt;
            }
          });
        },
        1);
    size_t visits = 0;
    for (const auto& round : rounds) visits += round.plan.visits;
    asym::count_read(visits);
    asym::count_write(nq);
    return out;
  }

 private:
  // Conservative per-shard data coverage box (Traits::kCoverDims axes;
  // dimension 0 is the partition axis). Extended on insert, never shrunk by
  // erase, recomputed exactly on rebalance — so it always contains every
  // live record's extent.
  struct Cover {
    std::array<double, Traits::kCoverDims> lo;
    std::array<double, Traits::kCoverDims> hi;
  };
  static Cover empty_cover() {
    Cover c;
    c.lo.fill(std::numeric_limits<double>::infinity());
    c.hi.fill(-std::numeric_limits<double>::infinity());
    return c;
  }

  bool use_planner() const {
    return routing_ == Routing::kRange && bounds_built_;
  }
  bool shard_live(size_t s) const { return shards_[s]->size() > 0; }

  static size_t shard_by_key_in(const std::vector<double>& splits,
                                double key) {
    return static_cast<size_t>(
        std::upper_bound(splits.begin(), splits.end(), key) - splits.begin());
  }
  size_t shard_by_key(double key) const {
    return shard_by_key_in(splits_, key);
  }

  // --- planner predicates over the coverage bounds ---------------------

  uint64_t stab_mask(double x) const {
    uint64_t m = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shard_live(s) && cover_[s].lo[0] <= x && x <= cover_[s].hi[0]) {
        m |= uint64_t{1} << s;
      }
    }
    return m;
  }

  uint64_t slab_mask(double qlo, double qhi) const {
    uint64_t m = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (shard_live(s) && qlo <= cover_[s].hi[0] && qhi >= cover_[s].lo[0]) {
        m |= uint64_t{1} << s;
      }
    }
    return m;
  }

  // Lower bound on the squared distance from query point q to any live
  // point of shard s: the full-dimensional cover-box distance (0 when q is
  // inside the box). Strictly tighter than the old partition-axis slab
  // distance, so kNN/ANN round-2 masks only shrink — and a pruned shard's
  // every point is still provably farther than the threshold.
  template <typename P>
  double cover_d2(size_t s, const P& q) const {
    const Cover& c = cover_[s];
    double d2 = 0;
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      double diff = std::max({c.lo[d] - q[d], 0.0, q[d] - c.hi[d]});
      d2 += diff * diff;
    }
    return d2;
  }

  // True when the query box fully covers shard s's cover box: every live
  // record of the shard is then inside the query, so a count query is
  // answered by the shard's size without routing to it.
  template <typename B>
  bool covers_shard(const B& query, size_t s) const {
    const Cover& c = cover_[s];
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      if (!(query.lo[d] <= c.lo[d] && c.hi[d] <= query.hi[d])) return false;
    }
    return true;
  }

  template <typename P>
  uint64_t nearest_shard_mask(const P& q) const {
    size_t best = shards_.size();
    double best_d2 = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shard_live(s)) continue;
      double d2 = cover_d2(s, q);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = s;
      }
    }
    return best == shards_.size() ? 0 : uint64_t{1} << best;
  }

  // --- the plan ---------------------------------------------------------

  // A routed batch: per shard, the (deterministic) list of query indices
  // it must answer; per query, the (shard, sub-batch position) slots where
  // its per-shard answers land, stored flat — query q owns
  // slots[first[q] .. first[q + 1]), in ascending shard order. `visits` is
  // the total slot count, which the merges charge for.
  struct Slot {
    uint32_t shard;
    uint32_t pos;
  };
  struct Plan {
    // Empty in the all-shards plan: every shard answers the whole batch.
    std::vector<std::vector<uint32_t>> shard_queries;
    std::vector<Slot> slots;
    std::vector<size_t> first;
    size_t visits = 0;
    bool all_shards = false;

    std::span<const Slot> slots_of(size_t q) const {
      return {slots.data() + first[q], slots.data() + first[q + 1]};
    }
    size_t sub_batch_size(size_t s) const {
      return all_shards ? first.size() - 1 : shard_queries[s].size();
    }
  };

  // Routes one batch and records it in the routing telemetry: the
  // all-shards plan under broadcast, else plan_batch over mask_of.
  template <typename MaskFn>
  Plan route(size_t nq, MaskFn&& mask_of) const {
    Plan plan = use_planner() ? plan_batch(nq, mask_of) : all_shards_plan(nq);
    note_plan(plan, nq);
    return plan;
  }

  // Hash-routed broadcast as a plan: query q sits at position q of every
  // shard's sub-batch. Built directly — no masks (hash fanout is not capped
  // at 64), no semisort, and no planner charges; visits = nq * S.
  Plan all_shards_plan(size_t nq) const {
    size_t S = shards_.size();
    Plan plan;
    plan.all_shards = true;
    plan.visits = nq * S;
    plan.slots.resize(plan.visits);
    plan.first.resize(nq + 1);
    for (size_t q = 0; q <= nq; ++q) plan.first[q] = q * S;
    for (size_t q = 0; q < nq; ++q) {
      for (uint32_t s = 0; s < S; ++s) {
        plan.slots[q * S + s] = {s, static_cast<uint32_t>(q)};
      }
    }
    return plan;
  }

  // The planner's plan: mask_of(i) is query i's 64-bit target-shard set.
  // The batch is semisorted by mask, so queries sharing a shard set are
  // contiguous and each group is emitted into its shards' sub-batches in one
  // run.
  template <typename MaskFn>
  Plan plan_batch(size_t nq, MaskFn&& mask_of) const {
    size_t S = shards_.size();
    struct QM {
      uint32_t q;
      uint64_t mask;
    };
    std::vector<QM> qm(nq);
    Plan plan;
    plan.first.assign(nq + 1, 0);
    for (size_t i = 0; i < nq; ++i) {
      qm[i].q = static_cast<uint32_t>(i);
      qm[i].mask = mask_of(i);
      plan.first[i] = static_cast<size_t>(std::popcount(qm[i].mask));
    }
    std::exclusive_scan(plan.first.begin(), plan.first.end(),
                        plan.first.begin(), size_t{0});
    plan.visits = plan.first[nq];
    // Planner bookkeeping is bulk-charged: every query tests every shard's
    // bounds (nq * S reads, nq mask writes), and each (query, shard)
    // routing slot is written once (visits reads + writes below) — all
    // functions of the batch and the bounds alone, identical at every
    // worker count.
    asym::count_read(nq * S);
    asym::count_write(nq);
    // Shard-set masks are a tiny key universe (often one mask for a whole
    // batch): small batches take the classic hash-bucket path, large ones
    // the sampling plan, where every popular mask is a heavy key grouped
    // without any local sort.
    auto groups =
        primitives::semisort_by(qm, [](const QM& x) { return x.mask; });
    plan.shard_queries.assign(S, {});
    plan.slots.resize(plan.visits);
    std::vector<size_t> fill(plan.first.begin(), plan.first.end() - 1);
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
      uint64_t mask = qm[groups[g]].mask;
      for (uint32_t s = 0; s < S; ++s) {
        if (!((mask >> s) & 1)) continue;
        std::vector<uint32_t>& sub = plan.shard_queries[s];
        for (size_t i = groups[g]; i < groups[g + 1]; ++i) {
          plan.slots[fill[qm[i].q]++] = {s, static_cast<uint32_t>(sub.size())};
          sub.push_back(qm[i].q);
        }
      }
    }
    asym::count_read(plan.visits);
    asym::count_write(plan.visits);
    return plan;
  }

  void note_plan(const Plan& plan, size_t new_queries) const {
    tel_->visits.fetch_add(plan.visits, std::memory_order_relaxed);
    if (new_queries > 0) {
      tel_->queries.fetch_add(new_queries, std::memory_order_relaxed);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (size_t n = plan.sub_batch_size(s); n > 0) {
        tel_->routed[s].fetch_add(n, std::memory_order_relaxed);
      }
    }
  }

  // Runs one targeted sub-batch per visited shard, all shards in parallel
  // (each call is itself parallel inside via the two-phase engine). Slot s
  // is written by shard s alone; unvisited shards keep a default result.
  // query_poison fault point (index = shard id): marks a shard's
  // BatchResult sub-batch poisoned so the merge-propagation path can be
  // driven deterministically. Families whose per-shard results carry no
  // Status (counting, ANN) have no poison carrier and skip the check.
  template <typename R>
  static void maybe_poison(R& result, size_t s) {
    if constexpr (requires { result.set_status(Status::Ok()); }) {
      if (fault::should_fail("query_poison", s)) {
        result.set_status(fault::injected("query_poison", s));
      }
    } else {
      (void)result;
      (void)s;
    }
  }

  // One routed round: its plan and the per-shard results it produced.
  template <typename R>
  struct Round {
    Plan plan;
    std::vector<R> per;
  };

  template <typename Q, typename RunSub>
  auto run_planned(Plan plan, const std::vector<Q>& qs, RunSub&& run) const {
    using R =
        std::invoke_result_t<RunSub&, const Structure&, const std::vector<Q>&>;
    Round<R> round{std::move(plan), std::vector<R>(shards_.size())};
    parallel_for(
        0, shards_.size(),
        [&](size_t s) {
          const Plan& p = round.plan;
          if (p.sub_batch_size(s) == 0) return;
          if (p.all_shards) {
            round.per[s] = run(*shards_[s], qs);
          } else {
            const std::vector<uint32_t>& qidx = p.shard_queries[s];
            std::vector<Q> sub(qidx.size());
            for (size_t j = 0; j < qidx.size(); ++j) sub[j] = qs[qidx[j]];
            round.per[s] = run(*shards_[s], sub);
          }
          maybe_poison(round.per[s], s);
        },
        1);
    return round;
  }

  // Calls fn(result, pos) for every per-shard answer of query q, over every
  // round, in round then ascending shard order.
  template <typename R, typename Fn>
  static void for_each_answer(const std::vector<Round<R>>& rounds, size_t q,
                              Fn&& fn) {
    for (const Round<R>& round : rounds) {
      for (Slot sl : round.plan.slots_of(q)) fn(round.per[sl.shard], sl.pos);
    }
  }

  // Best-first routing for the nearest-neighbor families (kNN, ANN). Round
  // 1 seeds each query at its nearest live shard by cover-box distance
  // (ties: lowest id). bound(result, pos, q) turns the seed answer at slot
  // `pos` into the query's pruning threshold, a squared distance (infinity
  // prunes nothing). Round 2 visits every other live shard whose cover box
  // lies within the threshold (<=: a tied candidate can win the canonical
  // order by coordinates), so a pruned shard's every point is provably
  // farther — the routed answer equals the broadcast one. Under broadcast
  // the seed round is the all-shards plan and there is no round 2; a
  // poisoned seed round also ends the search.
  template <typename P, typename RunSub, typename Bound>
  auto run_best_first(const std::vector<P>& qs, RunSub&& run,
                      Bound&& bound) const {
    using R =
        std::invoke_result_t<RunSub&, const Structure&, const std::vector<P>&>;
    size_t nq = qs.size();
    Plan seeds = route(nq, [&](size_t i) { return nearest_shard_mask(qs[i]); });
    std::vector<Round<R>> rounds;
    rounds.push_back(run_planned(std::move(seeds), qs, run));
    const Round<R>& seed = rounds[0];
    if (!use_planner() || !first_poison(seed.per).ok()) return rounds;

    std::vector<double> thr(nq, std::numeric_limits<double>::infinity());
    for (size_t q = 0; q < nq; ++q) {
      for (Slot sl : seed.plan.slots_of(q)) {
        thr[q] = bound(seed.per[sl.shard], sl.pos, qs[q]);
      }
    }
    asym::count_read(nq);
    asym::count_write(nq);
    Plan next = plan_batch(nq, [&](size_t i) {
      std::span<const Slot> sl = seed.plan.slots_of(i);
      uint64_t m = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (!sl.empty() && s == sl[0].shard) continue;
        if (shard_live(s) && cover_d2(s, qs[i]) <= thr[i]) {
          m |= uint64_t{1} << s;
        }
      }
      return m;
    });
    note_plan(next, 0);
    rounds.push_back(run_planned(std::move(next), qs, run));
    return rounds;
  }

  // First non-OK status across the per-shard results (lowest shard id, so
  // the propagated poison is deterministic), or OK.
  template <typename Result>
  static Status first_poison(const std::vector<Result>& per) {
    if constexpr (requires(const Result& r) { r.status(); }) {
      for (const Result& r : per) {
        if (!r.ok()) return r.status();
      }
    }
    return Status::Ok();
  }

  template <typename Result, typename Less>
  auto merge_planned_report(const Round<Result>& round, size_t nq,
                            Less less) const {
    using T = typename Result::value_type;
    const Plan& plan = round.plan;
    const auto& per = round.per;
    if (Status poison = first_poison(per); !poison.ok()) {
      return BatchResult<T>(std::move(poison));
    }
    std::vector<size_t> offsets(nq + 1, 0);
    for (size_t q = 0; q < nq; ++q) {
      for (auto [s, j] : plan.slots_of(q)) offsets[q] += per[s].count(j);
    }
    asym::count_read(plan.visits);
    asym::count_write(nq);
    primitives::scan_exclusive(offsets);
    std::vector<T> items(offsets[nq]);
    parallel_for(
        0, nq,
        [&](size_t q) {
          T* out = items.data() + offsets[q];
          for (auto [s, j] : plan.slots_of(q)) {
            out = std::copy(per[s].begin(j), per[s].end(j), out);
          }
          std::sort(items.data() + offsets[q], out, less);
        },
        1);
    // One read + write per item for the concatenation and one more pair for
    // the canonicalizing sort pass, charged in bulk — a function of the
    // slice sizes alone, identical at every fanout and worker count.
    asym::count_read(2 * items.size());
    asym::count_write(2 * items.size());
    return BatchResult<T>(std::move(items), std::move(offsets));
  }

  std::vector<size_t> merge_planned_count(
      const Round<std::vector<size_t>>& round, size_t nq) const {
    const Plan& plan = round.plan;
    const auto& per = round.per;
    std::vector<size_t> out(nq, 0);
    parallel_for(
        0, nq,
        [&](size_t q) {
          for (auto [s, j] : plan.slots_of(q)) out[q] += per[s][j];
        },
        1);
    asym::count_read(plan.visits);
    asym::count_write(nq);
    return out;
  }

  // Canonical top-k: `take` winners of (squared distance, coordinates).
  template <typename T>
  static void top_k_into(std::vector<std::pair<double, T>>& cand, T* out,
                         size_t take) {
    std::sort(cand.begin(), cand.end(),
              [](const std::pair<double, T>& a, const std::pair<double, T>& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second.coords < b.second.coords;
              });
    for (size_t j = 0; j < take; ++j) out[j] = cand[j].second;
  }

  static void extend_cover_with(Cover& c, const Record& r) {
    for (int d = 0; d < Traits::kCoverDims; ++d) {
      c.lo[d] = std::min(c.lo[d], Traits::cover_lo(r, d));
      c.hi[d] = std::max(c.hi[d], Traits::cover_hi(r, d));
    }
  }

  // Routes one record batch into per-shard sub-batches (the read + write of
  // each record is the routing pass's bookkeeping charge).
  std::vector<std::vector<Record>> partition(
      const std::vector<Record>& recs) const {
    std::vector<std::vector<Record>> by(shards_.size());
    asym::count_read(recs.size());
    asym::count_write(recs.size());
    for (const Record& r : recs) by[shard_of(r)].push_back(r);
    return by;
  }

  friend class Sharded<Structure>;
  ShardedVersion() = default;

  Routing routing_ = Routing::kHash;
  std::vector<std::shared_ptr<const Structure>> shards_;
  uint64_t version_ = 0;

  // Range-partition state (kRange only).
  bool bounds_built_ = false;
  std::vector<double> splits_;
  std::vector<Cover> cover_;

  std::shared_ptr<detail::RoutingTelemetry> tel_;
};

// A reader's pin on one published Version: it stays valid, and keeps
// answering from that Version, across any number of later commits.
template <typename Structure>
using ShardedSnapshot = std::shared_ptr<const ShardedVersion<Structure>>;

// The writer side of the layer: staging, transactional commits and
// rebalancing, all of which build the next Version and publish it by one
// pointer swap (see the file header for the concurrency contract).
template <typename Structure>
class Sharded {
 public:
  using Traits = ShardTraits<Structure>;
  using Record = typename Traits::Record;
  using Version = ShardedVersion<Structure>;

  // Constructs `fanout` hash-routed shards, each as Structure(args...).
  // Fanout 0 is clamped to 1 (the degenerate unsharded layout).
  template <typename... Args>
  explicit Sharded(size_t fanout, const Args&... args)
      : Sharded(Routing::kHash, fanout, args...) {}

  // Routing-policy-selecting constructor; Routing::kHash reproduces the
  // default behavior exactly.
  template <typename... Args>
  Sharded(Routing routing, size_t fanout, const Args&... args) {
    if (fanout == 0) fanout = 1;
    // Planner shard sets are 64-bit masks.
    if (routing == Routing::kRange && fanout > 64) fanout = 64;
    tel_ = std::make_shared<detail::RoutingTelemetry>(fanout);
    Version v;
    v.routing_ = routing;
    v.shards_.reserve(fanout);
    for (size_t s = 0; s < fanout; ++s) {
      v.shards_.push_back(std::make_shared<const Structure>(args...));
    }
    v.cover_.assign(fanout, Version::empty_cover());
    v.tel_ = tel_;
    published_ = std::make_shared<const Version>(std::move(v));
  }

  // Pins the published Version: the handle's queries, size() and version()
  // keep answering from it whatever commits later. Safe from any thread.
  ShardedSnapshot<Structure> snapshot() const {
    std::lock_guard<std::mutex> lk(publish_mu_);
    return published_;
  }

  // Introspection of the published Version. References returned here stay
  // valid until the next commit; a concurrent reader pins a snapshot().
  size_t fanout() const { return snapshot()->fanout(); }
  Routing routing() const { return snapshot()->routing(); }
  size_t shard_of(const Record& rec) const {
    return snapshot()->shard_of(rec);
  }
  const Structure& shard(size_t s) const { return snapshot()->shard(s); }
  size_t size() const { return snapshot()->size(); }
  uint64_t version() const { return snapshot()->version(); }

  // --- range-partition introspection -----------------------------------

  bool bounds_built() const { return snapshot()->bounds_built(); }
  const std::vector<double>& splits() const { return snapshot()->splits(); }
  // Commit-time rebalances performed so far.
  size_t rebalances() const { return rebalances_; }

  // Routing telemetry: queries planned and shard visits issued since
  // construction, over every batch wrapper (broadcast batches visit all S
  // shards per query; planned batches visit each query's overlap set).
  // shards-visited-per-query = planner_shard_visits() / planner_queries().
  uint64_t planner_queries() const {
    return tel_->queries.load(std::memory_order_relaxed);
  }
  uint64_t planner_shard_visits() const {
    return tel_->visits.load(std::memory_order_relaxed);
  }

  // Per-shard load since the last commit: live records now, plus query
  // sub-batches routed to the shard. commit() consumes the query counters
  // (they feed the rebalance trigger).
  struct ShardLoad {
    size_t records = 0;
    uint64_t queries = 0;
  };
  std::vector<ShardLoad> load_stats() const {
    ShardedSnapshot<Structure> v = snapshot();
    std::vector<ShardLoad> out(v->fanout());
    for (size_t s = 0; s < out.size(); ++s) {
      out[s] = {v->shard(s).size(),
                tel_->routed[s].load(std::memory_order_relaxed)};
    }
    return out;
  }

  // Admission-time screening for the serving engine: one record's
  // well-formedness, checked where it can fail its own request instead of
  // poisoning a whole staged epoch. commit() still revalidates the full
  // batch as a backstop. `ordinal` only labels the error message.
  static Status validate(const Record& rec, size_t ordinal = 0) {
    return validate_record(rec, ordinal, "submitted");
  }

  // --- epoch-versioned updates -----------------------------------------

  size_t staged_inserts() const { return staged_ins_.size(); }
  size_t staged_erases() const { return staged_ers_.size(); }
  // Number of staged erasures the last commit() actually applied.
  size_t last_commit_erased() const { return last_commit_erased_; }

  void stage_insert(const Record& rec) { staged_ins_.push_back(rec); }
  void stage_erase(const Record& rec) { staged_ers_.push_back(rec); }
  // Drops the staged batch without applying it (the recovery path after a
  // failed commit when the caller does not want to repair and retry).
  void discard_staged() {
    staged_ins_.clear();
    staged_ers_.clear();
  }

  // Applies the staged batch — every shard's share via bulk_insert then
  // bulk_erase, all shards in parallel — rebalances skewed range bounds,
  // and publishes the next version. A record staged for both insert and
  // erase in one epoch is inserted, then erased: the committed snapshot
  // does not contain it. A commit with nothing staged is a no-op epoch and
  // publishes nothing: version() is unchanged.
  //
  // All-or-nothing (see the file header): on any non-OK return the layer
  // still publishes the same epoch-N Version — including the range
  // partition, so a failed first commit leaves the partition unseeded —
  // and the staged buffers are kept for repair or discard_staged().
  Expected<uint64_t> commit() {
    if (staged_ins_.empty() && staged_ers_.empty()) {
      last_commit_erased_ = 0;
      return version();
    }
    Status valid = validate_staged();
    if (!valid.ok()) return valid;
    Version next = *snapshot();
    ensure_bounds(next, staged_ins_);
    auto ins = next.partition(staged_ins_);
    auto ers = next.partition(staged_ers_);
    Expected<size_t> erased = apply_transaction(next, ins, ers);
    if (!erased.ok()) return erased.status();
    last_commit_erased_ = erased.value();
    extend_covers(next, ins);
    staged_ins_.clear();
    staged_ers_.clear();
    maybe_rebalance(next);
    return publish(std::move(next));
  }

  // Immediate one-batch epochs: route and apply `recs` in one step and
  // publish a version of their own. Records staged for the in-progress
  // epoch (if any) are left staged — only commit() consumes them. An empty
  // batch is a no-op and publishes no version. Both run the same
  // transaction as commit(): a non-OK return publishes nothing.
  Status bulk_insert(const std::vector<Record>& recs) {
    if (recs.empty()) return Status::Ok();
    Status valid = validate_batch(recs, /*inserts=*/true);
    if (!valid.ok()) return valid;
    Version next = *snapshot();
    ensure_bounds(next, recs);
    auto ins = next.partition(recs);
    Expected<size_t> res = apply_transaction(next, ins, {});
    if (!res.ok()) return res.status();
    extend_covers(next, ins);
    publish(std::move(next));
    return Status::Ok();
  }
  Expected<size_t> bulk_erase(const std::vector<Record>& recs) {
    if (recs.empty()) return size_t{0};
    Status valid = validate_batch(recs, /*inserts=*/false);
    if (!valid.ok()) return valid;
    Version next = *snapshot();
    Expected<size_t> res = apply_transaction(next, {}, next.partition(recs));
    if (!res.ok()) return res;
    publish(std::move(next));
    return res;
  }

  // --- batched queries --------------------------------------------------
  //
  // Each wrapper pins the published Version for the whole batch and runs
  // the family there (see ShardedVersion); a wrapper exists exactly when
  // the wrapped structure exposes the family.

  template <typename Q>
  auto stab_batch(const std::vector<Q>& qs) const
    requires requires(const Version& v) { v.stab_batch(qs); }
  {
    return snapshot()->stab_batch(qs);
  }
  template <typename Q>
  auto stab_count_batch(const std::vector<Q>& qs) const
    requires requires(const Version& v) { v.stab_count_batch(qs); }
  {
    return snapshot()->stab_count_batch(qs);
  }
  template <typename B>
  auto range_count_batch(const std::vector<B>& qs) const
    requires requires(const Version& v) { v.range_count_batch(qs); }
  {
    return snapshot()->range_count_batch(qs);
  }
  template <typename B>
  auto range_report_batch(const std::vector<B>& qs) const
    requires requires(const Version& v) { v.range_report_batch(qs); }
  {
    return snapshot()->range_report_batch(qs);
  }
  template <typename P>
  auto knn_batch(const std::vector<P>& qs, size_t k) const
    requires requires(const Version& v) { v.knn_batch(qs, k); }
  {
    return snapshot()->knn_batch(qs, k);
  }
  template <typename P>
  auto ann_batch(const std::vector<P>& qs, double eps = 0.0) const
    requires requires(const Version& v) { v.ann_batch(qs, eps); }
  {
    return snapshot()->ann_batch(qs, eps);
  }

 private:
  using Cover = typename Version::Cover;

  // Numbers `next` (a copy of the published Version) as its successor and
  // swaps it in by one pointer store. The superseded Version leaves the
  // lock in `fresh` and is freed by whichever thread drops its last
  // reference: here, or a reader whose snapshot outlived the swap.
  uint64_t publish(Version next) {
    uint64_t v = ++next.version_;
    auto fresh = std::make_shared<const Version>(std::move(next));
    std::lock_guard<std::mutex> lk(publish_mu_);
    published_.swap(fresh);
    return v;
  }

  // --- range bounds and rebalancing ------------------------------------

  // Equally-spaced quantiles of a sorted key sample become the S-1 split
  // points.
  static std::vector<double> quantile_splits(
      const std::vector<double>& sorted_keys, size_t S) {
    std::vector<double> sp(S - 1, 0.0);
    for (size_t s = 1; s < S; ++s) {
      sp[s - 1] = sorted_keys[s * sorted_keys.size() / S];
    }
    return sp;
  }

  // Seeds the range partition from the first non-empty insert batch: a
  // deterministic evenly-strided sample of its partition keys, sorted, cut
  // at quantiles. Commit-time rebalancing corrects the seed as the record
  // set evolves.
  static void ensure_bounds(Version& next, const std::vector<Record>& recs) {
    if (next.routing_ != Routing::kRange || next.bounds_built_ ||
        recs.empty()) {
      return;
    }
    size_t n = recs.size();
    size_t sample = std::min<size_t>(n, 4096);
    std::vector<double> keys(sample);
    for (size_t i = 0; i < sample; ++i) {
      keys[i] = Traits::partition_key(recs[i * n / sample]);
    }
    std::sort(keys.begin(), keys.end());
    next.splits_ = quantile_splits(keys, next.fanout());
    next.bounds_built_ = true;
    asym::count_read(sample);
    asym::count_write(next.splits_.size() + 1);
  }

  static constexpr uint64_t kRebalanceSlack = 64;

  // Commit-time load balancing (range policy): per-shard load = live
  // records + queries routed since the previous commit. When the heaviest
  // shard exceeds twice the mean load (plus slack so tiny sets never
  // thrash), the split points are recomputed as exact quantiles of the
  // live key set — the general form of splitting overloaded ranges and
  // merging underused neighbors — coverage is recomputed exactly, and the
  // records whose shard assignment changed migrate (each shard erases its
  // leavers and inserts its enterers; the sets are disjoint, so shards
  // migrate in parallel).
  void maybe_rebalance(Version& next) {
    size_t S = next.fanout();
    std::vector<uint64_t> queries(S);
    for (size_t s = 0; s < S; ++s) {
      queries[s] = tel_->routed[s].exchange(0, std::memory_order_relaxed);
    }
    if (next.routing_ != Routing::kRange || !next.bounds_built_ || S == 1) {
      return;
    }
    uint64_t total = 0, max_load = 0;
    for (size_t s = 0; s < S; ++s) {
      uint64_t load = next.shard(s).size() + queries[s];
      total += load;
      max_load = std::max(max_load, load);
    }
    if (max_load <= 2 * (total / S) + kRebalanceSlack) return;

    std::vector<std::vector<Record>> recs(S);
    parallel_for(
        0, S, [&](size_t s) { recs[s] = Traits::extract(next.shard(s)); }, 1);
    size_t n = 0;
    for (const std::vector<Record>& v : recs) n += v.size();
    if (n == 0) return;
    std::vector<double> keys;
    keys.reserve(n);
    for (const std::vector<Record>& v : recs) {
      for (const Record& r : v) keys.push_back(Traits::partition_key(r));
    }
    std::sort(keys.begin(), keys.end());
    asym::count_read(n);
    asym::count_write(n);
    // Stage the new partition locally: `next` is only touched once the
    // migration transaction has succeeded, so a failed migration (injected
    // fault, allocation failure) skips the rebalance and leaves the
    // commit's Version fully intact.
    std::vector<double> new_splits = quantile_splits(keys, S);
    if (new_splits == next.splits_) return;  // degenerate keys: no-op

    std::vector<Cover> new_cover(S, Version::empty_cover());
    std::vector<std::vector<Record>> leave(S), enter(S);
    for (size_t s = 0; s < S; ++s) {
      for (const Record& r : recs[s]) {
        size_t ns =
            Version::shard_by_key_in(new_splits, Traits::partition_key(r));
        Version::extend_cover_with(new_cover[ns], r);
        if (ns != s) {
          leave[s].push_back(r);
          enter[ns].push_back(r);
        }
      }
    }
    asym::count_read(n);
    // Migration order matters within the transaction's per-shard apply:
    // enterers insert first, then leavers erase (the sets are disjoint —
    // a record's old and new shard differ — so the order is safe and the
    // erase cannot miss).
    if (!apply_transaction(next, enter, leave).ok()) return;
    next.splits_ = std::move(new_splits);
    next.cover_ = std::move(new_cover);
    ++rebalances_;
  }

  // Coverage extension over a routed insert batch (the bounds the planner
  // prunes with). Runs only after a transaction succeeded, so a rolled-back
  // commit never widens a shard's pruning bounds.
  static void extend_covers(Version& next,
                            const std::vector<std::vector<Record>>& by) {
    if (next.routing_ != Routing::kRange || !next.bounds_built_ ||
        by.empty()) {
      return;
    }
    size_t n = 0;
    for (size_t s = 0; s < by.size(); ++s) {
      for (const Record& r : by[s]) {
        Version::extend_cover_with(next.cover_[s], r);
      }
      n += by[s].size();
    }
    if (n == 0) return;
    asym::count_read(n);
    asym::count_write(by.size());
  }

  // --- staged-record validation -----------------------------------------

  // One record's well-formedness: finite coordinates, and l <= r for
  // interval-like records. A malformed record would corrupt BST key
  // comparisons inside the shard, so it is rejected before any shard work.
  static Status validate_record(const Record& rec, size_t ordinal,
                                const char* what) {
    if constexpr (requires { rec.l; rec.r; rec.id; }) {
      if (!std::isfinite(rec.l) || !std::isfinite(rec.r)) {
        return Status::InvalidArgument(
            std::string(what) + " record " + std::to_string(ordinal) +
            " (id " + std::to_string(rec.id) + "): non-finite endpoint");
      }
      if (rec.l > rec.r) {
        return Status::InvalidArgument(
            std::string(what) + " record " + std::to_string(ordinal) +
            " (id " + std::to_string(rec.id) + "): inverted interval [" +
            std::to_string(rec.l) + ", " + std::to_string(rec.r) + "]");
      }
    } else {
      for (double c : rec.coords) {
        if (!std::isfinite(c)) {
          return Status::InvalidArgument(std::string(what) + " record " +
                                         std::to_string(ordinal) +
                                         ": non-finite coordinate");
        }
      }
    }
    return Status::Ok();
  }

  // Validates one batch pre-transaction. Insert batches additionally check
  // the "validate" fault point (index = record ordinal) and reject ids
  // duplicated within the batch — the same id twice in one epoch has no
  // well-defined order, and the shard-level insert would silently clobber.
  // Ids already live in a shard are caught by that shard's own bulk_insert
  // during the shadow apply (and roll the transaction back). The scan is an
  // input-only bulk charge, so asym totals stay deterministic.
  Status validate_batch(const std::vector<Record>& recs, bool inserts) const {
    const char* what = inserts ? "staged insert" : "staged erase";
    asym::count_read(recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      Status s = validate_record(recs[i], i, what);
      if (!s.ok()) return s;
      if (inserts && fault::should_fail("validate", i)) {
        return fault::injected("validate", i);
      }
    }
    if constexpr (requires(const Record& r) { r.id; }) {
      if (inserts) {
        std::unordered_set<uint32_t> seen;
        seen.reserve(recs.size());
        for (size_t i = 0; i < recs.size(); ++i) {
          if (!seen.insert(recs[i].id).second) {
            return Status::InvalidArgument(
                "staged insert record " + std::to_string(i) +
                ": duplicate id " + std::to_string(recs[i].id) +
                " within epoch");
          }
        }
      }
    }
    return Status::Ok();
  }

  Status validate_staged() const {
    Status s = validate_batch(staged_ins_, /*inserts=*/true);
    if (!s.ok()) return s;
    return validate_batch(staged_ers_, /*inserts=*/false);
  }

  // --- the transaction --------------------------------------------------

  // Applies per-shard insert then erase sub-batches to the unpublished
  // Version `next`, all-or-nothing: every shard with work stages into a
  // shadow clone, and the clones replace next's shard pointers only after
  // all of them succeeded (shards without work stay shared). Empty outer
  // vectors mean "no batch of that kind". Failure modes per shard — the
  // "shard_apply" fault point (checked before the clone is even made), a
  // structure-level non-OK Status (id already live, "alloc" fault), or
  // std::bad_alloc thrown mid-apply — discard every clone and leave `next`
  // untouched; the first failing shard by id supplies the Status, so the
  // reported error is identical at every worker count. Returns the total
  // number of records actually erased on success.
  //
  // Cost: cloning charges one bulk read + write per live record of the
  // shards with work — the write-cost price of publishing a new Version
  // while readers keep the old one; shards without work are never cloned.
  Expected<size_t> apply_transaction(
      Version& next, const std::vector<std::vector<Record>>& ins,
      const std::vector<std::vector<Record>>& ers) {
    size_t S = next.fanout();
    std::vector<std::shared_ptr<Structure>> shadow(S);
    std::vector<Status> status(S);
    std::vector<size_t> erased(S, 0);
    uint64_t cloned = 0;
    for (size_t s = 0; s < S; ++s) {
      bool has_ins = !ins.empty() && !ins[s].empty();
      bool has_ers = !ers.empty() && !ers[s].empty();
      if (has_ins || has_ers) cloned += next.shard(s).size();
    }
    asym::count_read(cloned);
    asym::count_write(cloned);
    parallel_for(
        0, S,
        [&](size_t s) {
          bool has_ins = !ins.empty() && !ins[s].empty();
          bool has_ers = !ers.empty() && !ers[s].empty();
          if (!has_ins && !has_ers) return;
          if (fault::should_fail("shard_apply", s)) {
            status[s] = fault::injected("shard_apply", s);
            return;
          }
          try {
            shadow[s] = std::make_shared<Structure>(next.shard(s));
            if (has_ins) {
              Status r = shadow[s]->bulk_insert(ins[s]);
              if (!r.ok()) {
                status[s] = Status(r.code(), "shard " + std::to_string(s) +
                                                 ": " + r.message());
                return;
              }
            }
            if (has_ers) {
              Expected<size_t> r = shadow[s]->bulk_erase(ers[s]);
              if (!r.ok()) {
                status[s] =
                    Status(r.status().code(), "shard " + std::to_string(s) +
                                                  ": " + r.status().message());
                return;
              }
              erased[s] = r.value();
            }
          } catch (const std::bad_alloc&) {
            status[s] = Status::ResourceExhausted(
                "shard " + std::to_string(s) + ": allocation failed mid-apply");
          }
        },
        1);
    for (size_t s = 0; s < S; ++s) {
      if (!status[s].ok()) return status[s];  // clones discarded: rollback
    }
    size_t total = 0;
    for (size_t s = 0; s < S; ++s) {
      if (shadow[s] != nullptr) next.shards_[s] = std::move(shadow[s]);
      total += erased[s];
    }
    return total;
  }

  // The published Version; readers copy the pointer under publish_mu_, the
  // writer swaps it there.
  mutable std::mutex publish_mu_;
  ShardedSnapshot<Structure> published_;

  std::vector<Record> staged_ins_;
  std::vector<Record> staged_ers_;
  size_t last_commit_erased_ = 0;
  size_t rebalances_ = 0;
  std::shared_ptr<detail::RoutingTelemetry> tel_;
};

}  // namespace weg::parallel
