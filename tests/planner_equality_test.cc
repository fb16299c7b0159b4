// Range-routed planner vs hash-broadcast vs unsharded equality
// (src/parallel/sharded.h): the shard-pruning planner may only change which
// shards answer a query, never the answer. Every merged slice under
// Routing::kRange must be bitwise-identical to the hash-broadcast merge and
// to the unsharded structure's answer in the canonical order, at every
// fanout — stabbing, range count/report, kNN, and ANN — including queries
// sitting exactly on shard split points and spanning several shards. The
// suite also pins the planner's selectivity (selective batches visit fewer
// than fanout shards per query; broadcast visits exactly fanout), the
// commit-time rebalancing path, the routing-key normalization regression
// (-0.0 must route like +0.0), the no-op-epoch versioning regression, and
// golden read/write counts for the planned paths (captured at
// WEG_NUM_THREADS=1; the CMake registration reruns the suite at p=1/2/8 and
// the totals must not move — planner bookkeeping is charged in bulk).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/geom/box.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::DynamicKdTree;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;

constexpr size_t kN = 30000;  // above the ~2k sequential cutoff
const size_t kFanouts[] = {1, 2, 4, 8};

std::vector<Interval> fixed_intervals(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = Interval{a, a + rng.next_double() * 0.05, uint32_t(i)};
  }
  return ivs;
}

std::vector<double> stab_points(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<double> qs(q);
  for (double& x : qs) x = rng.next_double();
  return qs;
}

std::vector<geom::Box2> box_queries(size_t q, uint64_t seed, double extent) {
  primitives::Rng rng(seed);
  std::vector<geom::Box2> qs(q);
  for (auto& b : qs) {
    b.lo[0] = rng.next_double();
    b.hi[0] = b.lo[0] + rng.next_double() * extent;
    b.lo[1] = rng.next_double();
    b.hi[1] = b.lo[1] + rng.next_double() * extent;
  }
  return qs;
}

std::vector<uint32_t> sorted_ids(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<geom::Point2> sorted_points(std::vector<geom::Point2> v) {
  std::sort(v.begin(), v.end(),
            [](const geom::Point2& a, const geom::Point2& b) {
              return a.coords < b.coords;
            });
  return v;
}

TEST(PlannerEquality, StabRoutedVsBroadcastVsUnsharded) {
  auto ivs = fixed_intervals(kN, 0xA11CE);
  DynamicIntervalTree oracle(4);
  ASSERT_TRUE(oracle.bulk_insert(ivs).ok());
  auto qs = stab_points(256, 0xBEEF);

  for (size_t f : kFanouts) {
    Sharded<DynamicIntervalTree> routed(Routing::kRange, f, 4);
    Sharded<DynamicIntervalTree> broadcast(Routing::kHash, f, 4);
    ASSERT_TRUE(routed.bulk_insert(ivs).ok());
    ASSERT_TRUE(broadcast.bulk_insert(ivs).ok());
    EXPECT_EQ(routed.routing(), Routing::kRange);
    EXPECT_TRUE(routed.bounds_built());
    EXPECT_EQ(routed.splits().size(), f - 1);
    EXPECT_EQ(routed.size(), oracle.size());

    auto r = routed.stab_batch(qs);
    auto b = broadcast.stab_batch(qs);
    auto rc = routed.stab_count_batch(qs);
    ASSERT_EQ(r.num_queries(), qs.size());
    // Bitwise equality of the full flat result, not just per-slice.
    EXPECT_EQ(r.items(), b.items());
    EXPECT_EQ(r.offsets(), b.offsets());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(r.result(i), sorted_ids(oracle.stab(qs[i])));
      EXPECT_EQ(rc[i], oracle.stab_count(qs[i]));
    }
    // The empty batch is one more input: an OK, empty answer under both
    // routings.
    const std::vector<double> none;
    for (const auto* layer : {&routed, &broadcast}) {
      auto empty = layer->stab_batch(none);
      EXPECT_TRUE(empty.ok());
      EXPECT_EQ(empty.num_queries(), 0u);
      EXPECT_TRUE(layer->stab_count_batch(none).empty());
    }
  }
}

TEST(PlannerEquality, ForestRoutedVsBroadcastVsUnsharded) {
  auto pts = testing::random_points<2>(20000, 0xFEED);
  std::vector<geom::Point2> gone(pts.begin(), pts.begin() + 2500);
  LogForest<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());
  ASSERT_EQ(oracle.bulk_erase(gone).value(), gone.size());
  auto boxes = box_queries(96, 0xABBA, 0.2);
  auto nnq = testing::random_points<2>(64, 0xACDC);
  const size_t k = 8;

  for (size_t f : kFanouts) {
    Sharded<LogForest<2>> routed(Routing::kRange, f);
    Sharded<LogForest<2>> broadcast(f);
    ASSERT_TRUE(routed.bulk_insert(pts).ok());
    ASSERT_TRUE(broadcast.bulk_insert(pts).ok());
    EXPECT_EQ(routed.bulk_erase(gone).value(), gone.size());
    EXPECT_EQ(broadcast.bulk_erase(gone).value(), gone.size());
    EXPECT_EQ(routed.size(), oracle.size());

    auto rep_r = routed.range_report_batch(boxes);
    auto rep_b = broadcast.range_report_batch(boxes);
    auto cnt_r = routed.range_count_batch(boxes);
    EXPECT_EQ(rep_r.items(), rep_b.items());
    EXPECT_EQ(rep_r.offsets(), rep_b.offsets());
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_EQ(rep_r.result(i), sorted_points(oracle.range_report(boxes[i])));
      EXPECT_EQ(cnt_r[i], oracle.range_count(boxes[i]));
    }

    auto knn_r = routed.knn_batch(nnq, k);
    auto knn_b = broadcast.knn_batch(nnq, k);
    auto ann_r = routed.ann_batch(nnq, 0.0);
    auto ann_b = broadcast.ann_batch(nnq, 0.0);
    EXPECT_EQ(knn_r.items(), knn_b.items());
    EXPECT_EQ(knn_r.offsets(), knn_b.offsets());
    ASSERT_EQ(knn_r.total(), nnq.size() * k);
    for (size_t i = 0; i < nnq.size(); ++i) {
      EXPECT_EQ(knn_r.result(i), oracle.knn(nnq[i], k));
      ASSERT_TRUE(ann_r[i].has_value());
      EXPECT_EQ(ann_r[i], ann_b[i]);
      EXPECT_EQ(*ann_r[i], oracle.knn(nnq[i], 1).front());
    }

    const std::vector<geom::Box2> no_boxes;
    const std::vector<geom::Point2> no_points;
    for (const auto* layer : {&routed, &broadcast}) {
      auto rep0 = layer->range_report_batch(no_boxes);
      auto knn0 = layer->knn_batch(no_points, k);
      EXPECT_TRUE(rep0.ok());
      EXPECT_TRUE(knn0.ok());
      EXPECT_EQ(rep0.num_queries(), 0u);
      EXPECT_EQ(knn0.num_queries(), 0u);
      EXPECT_TRUE(layer->range_count_batch(no_boxes).empty());
      EXPECT_TRUE(layer->ann_batch(no_points, 0.0).empty());
    }
  }
}

TEST(PlannerEquality, DynamicKdTreeRoutedVsBroadcast) {
  auto pts = testing::random_points<2>(20000, 0xD00D);
  std::vector<geom::Point2> gone(pts.begin(), pts.begin() + 2500);
  DynamicKdTree<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());
  ASSERT_EQ(oracle.bulk_erase(gone).value(), gone.size());
  auto boxes = box_queries(96, 0xF00D, 0.2);
  auto nnq = testing::random_points<2>(32, 0x1DEA);

  for (size_t f : kFanouts) {
    Sharded<DynamicKdTree<2>> routed(Routing::kRange, f);
    ASSERT_TRUE(routed.bulk_insert(pts).ok());
    EXPECT_EQ(routed.bulk_erase(gone).value(), gone.size());
    auto rep = routed.range_report_batch(boxes);
    auto ann = routed.ann_batch(nnq, 0.0);
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_EQ(rep.result(i), sorted_points(oracle.range_report(boxes[i])));
    }
    for (size_t i = 0; i < nnq.size(); ++i) {
      EXPECT_EQ(ann[i], oracle.ann(nnq[i], 0.0));
    }
  }
}

TEST(PlannerEquality, BoundaryStraddlingQueries) {
  // Queries placed exactly on the split points and spanning whole shard
  // slabs: the overlap predicates must include both sides of a boundary.
  auto ivs = fixed_intervals(kN, 0x0B0E);
  DynamicIntervalTree oracle(4);
  ASSERT_TRUE(oracle.bulk_insert(ivs).ok());

  for (size_t f : {size_t{2}, size_t{4}, size_t{8}}) {
    Sharded<DynamicIntervalTree> routed(Routing::kRange, f, 4);
    ASSERT_TRUE(routed.bulk_insert(ivs).ok());
    ASSERT_EQ(routed.splits().size(), f - 1);
    std::vector<double> qs;
    for (double s : routed.splits()) {
      qs.push_back(s);              // exactly on the boundary
      qs.push_back(s - 1e-12);      // just inside the lower shard
      qs.push_back(s + 1e-12);      // just inside the upper shard
    }
    auto r = routed.stab_batch(qs);
    auto c = routed.stab_count_batch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(r.result(i), sorted_ids(oracle.stab(qs[i])));
      EXPECT_EQ(c[i], oracle.stab_count(qs[i]));
    }
  }

  // Boxes spanning several shard slabs along the split dimension.
  auto pts = testing::random_points<2>(16000, 0x57AB);
  LogForest<2> foracle;
  ASSERT_TRUE(foracle.bulk_insert(pts).ok());
  Sharded<LogForest<2>> froutcd(Routing::kRange, 4);
  ASSERT_TRUE(froutcd.bulk_insert(pts).ok());
  std::vector<geom::Box2> wide;
  for (double s : froutcd.splits()) {
    geom::Box2 b;
    b.lo[0] = s - 0.3;
    b.hi[0] = s + 0.3;
    b.lo[1] = 0.2;
    b.hi[1] = 0.8;
    wide.push_back(b);
  }
  auto rep = froutcd.range_report_batch(wide);
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(rep.result(i), sorted_points(foracle.range_report(wide[i])));
  }
}

TEST(PlannerEquality, SelectiveQueriesVisitFewerThanFanoutShards) {
  // The acceptance criterion behind the shards_visited_per_query bench row:
  // at fanout 4/8, selective stab and range batches must touch strictly
  // fewer than fanout shards per query under range routing, while broadcast
  // touches exactly fanout.
  auto ivs = fixed_intervals(kN, 0x5E1);
  auto qs = stab_points(256, 0x5E1F);
  for (size_t f : {size_t{4}, size_t{8}}) {
    Sharded<DynamicIntervalTree> routed(Routing::kRange, f, 4);
    Sharded<DynamicIntervalTree> broadcast(f, 4);
    ASSERT_TRUE(routed.bulk_insert(ivs).ok());
    ASSERT_TRUE(broadcast.bulk_insert(ivs).ok());
    routed.stab_batch(qs);
    broadcast.stab_batch(qs);
    EXPECT_EQ(routed.planner_queries(), qs.size());
    EXPECT_LT(routed.planner_shard_visits(), qs.size() * f);
    EXPECT_EQ(broadcast.planner_queries(), qs.size());
    EXPECT_EQ(broadcast.planner_shard_visits(), qs.size() * f);
  }

  auto pts = testing::random_points<2>(20000, 0x5E1D);
  auto boxes = box_queries(128, 0x51DE, 0.05);  // narrow along the split dim
  for (size_t f : {size_t{4}, size_t{8}}) {
    Sharded<LogForest<2>> routed(Routing::kRange, f);
    ASSERT_TRUE(routed.bulk_insert(pts).ok());
    routed.range_count_batch(boxes);
    EXPECT_EQ(routed.planner_queries(), boxes.size());
    EXPECT_LT(routed.planner_shard_visits(), boxes.size() * f);
    // Per-shard routing stats feed the commit-time rebalancer.
    uint64_t routed_total = 0;
    for (const auto& ls : routed.load_stats()) routed_total += ls.queries;
    EXPECT_EQ(routed_total, routed.planner_shard_visits());
  }
}

TEST(PlannerEquality, SingleShardKnnPassThroughVisitsOneShard) {
  // Four tight clusters, well separated along the routing dimension: each
  // cluster lands in its own range shard, a probe at a cluster center finds
  // all k neighbors inside that shard, and every other shard's cover box is
  // farther than the k-th candidate. The bound-driven planner must never
  // schedule a second round (shards_visited_per_query == 1) and the merge
  // takes the single-shard pass-through, still bitwise-equal to the
  // unsharded forest in the canonical (d2, coords) order.
  primitives::Rng rng(0xC1A5);
  std::vector<geom::Point2> pts;
  std::vector<geom::Point2> probes;
  for (int c = 0; c < 4; ++c) {
    double cx = 0.125 + 0.25 * c;
    for (int i = 0; i < 500; ++i) {
      geom::Point2 p;
      p[0] = cx + (rng.next_double() - 0.5) * 0.02;
      p[1] = 0.5 + (rng.next_double() - 0.5) * 0.02;
      pts.push_back(p);
    }
    probes.push_back(geom::Point2{{cx, 0.5}});
  }
  Sharded<LogForest<2>> sf(Routing::kRange, 4);
  ASSERT_TRUE(sf.bulk_insert(pts).ok());
  LogForest<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());

  auto k = sf.knn_batch(probes, 8);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(sf.planner_queries(), probes.size());
  EXPECT_EQ(sf.planner_shard_visits(), probes.size());  // exactly 1 per query
  auto ok = oracle.knn_batch(probes, 8);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(k.result(i), ok.result(i));
  }
}

TEST(PlannerEquality, FullyCoveredShardsAnswerCountsWithoutRouting) {
  // A range_count query box that contains a shard's whole cover box is
  // answered from the shard's size — the planner routes nothing to it. An
  // all-covering box therefore visits zero shards, and the counts still
  // match the unsharded oracle exactly.
  auto pts = testing::random_points<2>(20000, 0xC0E);
  Sharded<LogForest<2>> sf(Routing::kRange, 4);
  ASSERT_TRUE(sf.bulk_insert(pts).ok());
  LogForest<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());

  geom::Box2 all;
  all.lo[0] = all.lo[1] = -1.0;
  all.hi[0] = all.hi[1] = 2.0;
  geom::Box2 half;  // covers the low shards' covers, clips the rest
  half.lo[0] = half.lo[1] = -1.0;
  half.hi[0] = 0.5;
  half.hi[1] = 2.0;
  std::vector<geom::Box2> boxes = {all, half};
  auto rc = sf.range_count_batch(boxes);
  EXPECT_EQ(rc[0], pts.size());
  EXPECT_EQ(rc[1], oracle.range_count(half));
  EXPECT_EQ(sf.planner_queries(), boxes.size());
  // The all-covering box visits no shard; the half box visits only the
  // shards it clips, so total visits stay under one fanout's worth.
  EXPECT_LT(sf.planner_shard_visits(), 4u);
}

TEST(PlannerEquality, CommitRebalancesSkewedShards) {
  // Seed the partition from a uniform prefix, then commit a heavily skewed
  // batch: one shard ends up with most of the records, the rebalancer must
  // fire at commit, and every query family must still match the oracle
  // (migration may not lose or duplicate records).
  auto uniform = fixed_intervals(4000, 0xBA1A);
  primitives::Rng rng(0x5CE9);
  std::vector<Interval> skew(12000);
  for (size_t i = 0; i < skew.size(); ++i) {
    double a = 0.9 + rng.next_double() * 0.01;
    skew[i] = Interval{a, a + rng.next_double() * 0.01,
                       uint32_t(uniform.size() + i)};
  }

  DynamicIntervalTree oracle(4);
  ASSERT_TRUE(oracle.bulk_insert(uniform).ok());
  ASSERT_TRUE(oracle.bulk_insert(skew).ok());

  Sharded<DynamicIntervalTree> routed(Routing::kRange, 4, 4);
  ASSERT_TRUE(routed.bulk_insert(uniform).ok());
  EXPECT_EQ(routed.rebalances(), 0u);
  for (const Interval& iv : skew) routed.stage_insert(iv);
  ASSERT_TRUE(routed.commit().ok());
  EXPECT_GE(routed.rebalances(), 1u);
  EXPECT_EQ(routed.size(), oracle.size());

  auto qs = stab_points(200, 0x90D);
  qs.push_back(0.905);  // inside the hot range
  auto r = routed.stab_batch(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(r.result(i), sorted_ids(oracle.stab(qs[i])));
  }

  // After rebalancing, no shard should hold more than ~2x the mean load.
  auto loads = routed.load_stats();
  size_t total = 0, max_records = 0;
  for (const auto& ls : loads) {
    total += ls.records;
    max_records = std::max(max_records, ls.records);
  }
  EXPECT_LE(max_records, 2 * (total / loads.size()) + 64);
}

TEST(PlannerEquality, NegativeZeroRoutesLikePositiveZero) {
  // Regression: route_key hashed raw double bits, so -0.0 and +0.0 — equal
  // under operator== — routed to different shards and a bulk_erase of the
  // -0.0 spelling silently missed the +0.0 record. Keys are canonicalized
  // before hashing now; the erase must succeed at every fanout >= 2.
  for (size_t f : {size_t{2}, size_t{4}, size_t{8}}) {
    Sharded<DynamicIntervalTree> si(f, 4);
    ASSERT_TRUE(si.bulk_insert({Interval{0.0, 1.0, 7}}).ok());
    EXPECT_EQ(si.bulk_erase({Interval{-0.0, 1.0, 7}}).value(), 1u)
        << "fanout " << f;
    EXPECT_EQ(si.size(), 0u);

    Sharded<LogForest<2>> sf(f);
    ASSERT_TRUE(sf.bulk_insert({geom::Point2{{0.0, 0.5}}}).ok());
    EXPECT_EQ(sf.bulk_erase({geom::Point2{{-0.0, 0.5}}}).value(), 1u)
        << "fanout " << f;
    EXPECT_EQ(sf.size(), 0u);
  }
}

TEST(PlannerEquality, EmptyBatchesPublishNoVersion) {
  // Regression: empty bulk batches and empty commits used to bump version_,
  // publishing no-op epochs.
  Sharded<DynamicIntervalTree> si(4, 4);
  EXPECT_EQ(si.version(), 0u);
  ASSERT_TRUE(si.bulk_insert({}).ok());
  EXPECT_EQ(si.version(), 0u);
  EXPECT_EQ(si.bulk_erase({}).value(), 0u);
  EXPECT_EQ(si.version(), 0u);
  EXPECT_EQ(si.commit().value(), 0u);  // nothing staged: version unchanged
  EXPECT_EQ(si.version(), 0u);

  auto ivs = fixed_intervals(1000, 0xE00);
  ASSERT_TRUE(si.bulk_insert(ivs).ok());
  EXPECT_EQ(si.version(), 1u);
  EXPECT_EQ(si.commit().value(), 1u);  // still nothing staged
  EXPECT_EQ(si.version(), 1u);

  for (const Interval& iv : ivs) si.stage_erase(iv);
  EXPECT_EQ(si.commit().value(), 2u);
  EXPECT_EQ(si.version(), 2u);
  EXPECT_EQ(si.last_commit_erased(), ivs.size());
  EXPECT_EQ(si.commit().value(), 2u);  // staged sets were consumed
}

TEST(PlannerEquality, RoutedEpochInterleavingMatchesSerialReplay) {
  // The epoch schedule from the sharded suite, replayed under range routing:
  // staging, commit visibility, and erase accounting must be identical to
  // the serial oracle even while commits rebalance bounds.
  auto all = fixed_intervals(24000, 0xEB0C);
  Sharded<DynamicIntervalTree> routed(Routing::kRange, 4, 4);
  DynamicIntervalTree oracle(4);

  size_t next = 0;
  std::vector<Interval> live;
  auto qs = stab_points(128, 0x90D);
  for (int epoch = 0; epoch < 5; ++epoch) {
    uint64_t named = routed.begin_epoch();
    std::vector<Interval> ins(all.begin() + next, all.begin() + next + 4000);
    next += 4000;
    std::vector<Interval> ers;
    for (size_t i = 0; i < live.size(); i += 2) ers.push_back(live[i]);

    for (const Interval& iv : ins) routed.stage_insert(iv);
    for (const Interval& iv : ers) routed.stage_erase(iv);

    auto before = routed.stab_batch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(before.result(i), sorted_ids(oracle.stab(qs[i])));
    }

    EXPECT_EQ(routed.commit().value(), named);
    ASSERT_TRUE(oracle.bulk_insert(ins).ok());
    EXPECT_EQ(routed.last_commit_erased(), oracle.bulk_erase(ers).value());

    auto after = routed.stab_batch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(after.result(i), sorted_ids(oracle.stab(qs[i])));
    }

    std::vector<Interval> still;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 2 != 0) still.push_back(live[i]);
    }
    live.swap(still);
    live.insert(live.end(), ins.begin(), ins.end());
    EXPECT_EQ(routed.size(), oracle.size());
  }
}

TEST(PlannerEquality, PlannedCountsScheduleIndependent) {
  // Repeat-run determinism of the planned path at whatever worker count this
  // process has: semisort grouping, targeted sub-batches, and the
  // entries-driven merge charge the same bulk totals regardless of
  // work-stealing interleavings.
  auto ivs = fixed_intervals(20000, 0x60D);
  Sharded<DynamicIntervalTree> routed(Routing::kRange, 4, 4);
  ASSERT_TRUE(routed.bulk_insert(ivs).ok());
  auto qs = stab_points(200, 0x90D);
  asym::Counts c1, c2;
  {
    asym::Region region;
    routed.stab_batch(qs);
    c1 = region.delta();
  }
  {
    asym::Region region;
    routed.stab_batch(qs);
    c2 = region.delta();
  }
  EXPECT_EQ(c1.reads, c2.reads);
  EXPECT_EQ(c1.writes, c2.writes);
}

TEST(PlannerEquality, PlannedBatchGoldenCounts) {
  // Golden read/write counts for the planned paths, captured from the
  // serial (WEG_NUM_THREADS=1) run. The p=2/8 reruns must charge exactly
  // the same totals: the planner's predicate sweep, semisort, and routing
  // slots are bulk-charged functions of the batch and the bounds alone. If
  // an algorithm's counting legitimately changes, recapture at p=1.
  auto ivs = fixed_intervals(20000, 0x60D);
  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  ASSERT_TRUE(si.bulk_insert(ivs).ok());
  auto sq = stab_points(200, 0x90D);
  {
    asym::Region region;
    auto r = si.stab_batch(sq);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    // Broadcast charges 460387/294247 on this workload (see the sharded
    // suite's golden test): pruning shows up in the asym totals as well.
    // Recaptured for the sampling semisort: a 200-query batch rides the
    // classic small-n path, whose grouping sweep is now read-charged
    // separately from boundary emission (+nq = +200 reads; no bucket held
    // mixed masks, so no new sort writes).
    EXPECT_EQ(c.reads, 411078u);
    EXPECT_EQ(c.writes, 293858u);
  }

  auto pts = testing::random_points<2>(20000, 0x60D);
  Sharded<LogForest<2>> sf(Routing::kRange, 4);
  ASSERT_TRUE(sf.bulk_insert(pts).ok());
  auto boxes = box_queries(96, 0xE66, 0.2);
  auto nnq = testing::random_points<2>(64, 0xE66);
  {
    asym::Region region;
    auto r = sf.range_report_batch(boxes);
    auto k = sf.knn_batch(nnq, 8);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    EXPECT_EQ(k.total(), nnq.size() * 8);
    // Recaptured for the count-augmented traversal: covered-subtree slice
    // reporting plus the full-dimension cover-box knn pruning inside each
    // shard drop reads from the pre-augmentation 113911 (writes unchanged —
    // the same result slices are written once).
    EXPECT_EQ(c.reads, 95685u);
    EXPECT_EQ(c.writes, 53007u);
  }
}

}  // namespace
}  // namespace weg
