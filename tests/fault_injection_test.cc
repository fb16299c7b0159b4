// Transactional epoch commits under deterministic fault injection
// (src/core/status.h, src/parallel/fault.h, src/parallel/sharded.h): a
// failed commit must be a perfect no-op. The suite drives every fault point
// the harness defines — shard_apply at every shard index, alloc at the
// structure level, validate on staged records, query_poison through every
// merge path, steal_stall against the join watchdog — and checks the
// rollback contract each time: version() unchanged, every query family
// bitwise-identical to the pre-commit snapshot, staged buffers kept for
// retry, and the asym read/write totals of a failed commit deterministic
// across repeat runs (the CMake registration reruns the suite at
// WEG_NUM_THREADS=1/2/8). Degenerate serving inputs (fanout 0, k = 0,
// k > n, empty/inverted/NaN rectangles, NaN probes) are pinned to defined
// empty results under both routing policies. The FaultSweep cases re-run
// the serving scenarios — a bare Sharded layer and a trace through the
// serving engine — under whatever WEG_FAULT the environment arms (the CI
// fault sweep's entry point) and assert the invariants hold whether or not
// the armed point trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/geom/box.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/fault.h"
#include "src/parallel/scheduler.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/serve/engine.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::DynamicKdTree;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Interval> fixed_intervals(size_t n, uint64_t seed,
                                      uint32_t id0 = 0) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = Interval{a, a + rng.next_double() * 0.05, id0 + uint32_t(i)};
  }
  return ivs;
}

std::vector<double> stab_points(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<double> qs(q);
  for (double& x : qs) x = rng.next_double();
  return qs;
}

std::vector<geom::Box2> box_queries(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<geom::Box2> qs(q);
  for (auto& b : qs) {
    b.lo[0] = rng.next_double();
    b.hi[0] = b.lo[0] + rng.next_double() * 0.2;
    b.lo[1] = rng.next_double();
    b.hi[1] = b.lo[1] + rng.next_double() * 0.2;
  }
  return qs;
}

// Everything a rollback must preserve, captured from a sharded interval
// index in one call.
struct IntervalSnapshot {
  uint64_t version;
  size_t size;
  std::vector<uint32_t> items;
  std::vector<size_t> offsets;
  std::vector<size_t> counts;
};

IntervalSnapshot snapshot(const Sharded<DynamicIntervalTree>& si,
                          const std::vector<double>& qs) {
  auto r = si.stab_batch(qs);
  return {si.version(), si.size(), r.items(), r.offsets(),
          si.stab_count_batch(qs)};
}

void expect_identical(const IntervalSnapshot& a, const IntervalSnapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.counts, b.counts);
}

// --- the tentpole: all-or-nothing commit --------------------------------

TEST(FaultInjection, CommitRollsBackAtEveryShardIndex) {
  auto qs = stab_points(128, 0xBEEF);
  for (size_t f : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    auto base = fixed_intervals(8000, 0xA11CE);
    Sharded<DynamicIntervalTree> si(Routing::kRange, f, 4);
    ASSERT_TRUE(si.bulk_insert(base).ok());

    // Stage an epoch with insert and erase work on every shard: 4000
    // uniform inserts plus every fourth live record erased.
    auto extra = fixed_intervals(4000, 0xF00D, 8000);
    for (const Interval& iv : extra) si.stage_insert(iv);
    for (size_t i = 0; i < base.size(); i += 4) si.stage_erase(base[i]);
    size_t staged_ins = si.staged_inserts();
    size_t staged_ers = si.staged_erases();

    IntervalSnapshot golden = snapshot(si, qs);
    for (size_t s = 0; s < f; ++s) {
      fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/s);
      auto v = si.commit();
      ASSERT_FALSE(v.ok()) << "fanout " << f << " shard " << s;
      EXPECT_EQ(v.code(), StatusCode::kFaultInjected);
      EXPECT_GE(fault::trips(), 1u);
      // Rollback identity: the failed epoch is invisible.
      expect_identical(snapshot(si, qs), golden);
      // The staged batch is kept for repair/retry.
      EXPECT_EQ(si.staged_inserts(), staged_ins);
      EXPECT_EQ(si.staged_erases(), staged_ers);
    }

    // Disarmed: the identical staged batch commits and publishes.
    auto v = si.commit();
    ASSERT_TRUE(v.ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), golden.version + 1);
    EXPECT_EQ(si.version(), golden.version + 1);
    EXPECT_EQ(si.staged_inserts(), 0u);
    EXPECT_EQ(si.last_commit_erased(), staged_ers);
    EXPECT_EQ(si.size(), golden.size + staged_ins - staged_ers);
  }
}

TEST(FaultInjection, FailedCommitCountsAreDeterministic) {
  // A rolled-back commit's asym totals are a function of the staged batch
  // and the shard sizes alone — identical across repeat runs at any worker
  // count (the p=1/2/8 reruns of this suite check exactly that).
  auto base = fixed_intervals(8000, 0x60D);
  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  ASSERT_TRUE(si.bulk_insert(base).ok());
  for (const Interval& iv : fixed_intervals(2000, 0xD1CE, 8000)) {
    si.stage_insert(iv);
  }
  fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/2);
  asym::Counts c1, c2;
  {
    asym::Region region;
    ASSERT_FALSE(si.commit().ok());
    c1 = region.delta();
  }
  {
    asym::Region region;
    ASSERT_FALSE(si.commit().ok());
    c2 = region.delta();
  }
  EXPECT_EQ(c1.reads, c2.reads);
  EXPECT_EQ(c1.writes, c2.writes);
}

TEST(FaultInjection, ValidationRejectsMalformedStagedRecords) {
  auto qs = stab_points(64, 0x90D);
  Sharded<DynamicIntervalTree> si(4, 4);
  ASSERT_TRUE(si.bulk_insert(fixed_intervals(2000, 0xABBA)).ok());
  IntervalSnapshot golden = snapshot(si, qs);

  auto expect_rejected = [&](const Interval& bad) {
    si.stage_insert(Interval{0.1, 0.2, 90001});  // a valid companion
    si.stage_insert(bad);
    auto v = si.commit();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
    expect_identical(snapshot(si, qs), golden);
    si.discard_staged();
    EXPECT_EQ(si.staged_inserts(), 0u);
  };
  expect_rejected(Interval{kNaN, 0.5, 90002});       // NaN endpoint
  expect_rejected(Interval{0.5, kInf, 90002});       // infinite endpoint
  expect_rejected(Interval{0.7, 0.2, 90002});        // inverted l > r
  expect_rejected(Interval{0.1, 0.2, 90001});        // dup id within epoch

  // Malformed staged erases are rejected too (an absent but well-formed
  // erase is a soft miss, not an error).
  si.stage_erase(Interval{kNaN, 0.5, 123});
  auto v = si.commit();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
  si.discard_staged();
  expect_identical(snapshot(si, qs), golden);

  // The "validate" fault point force-fails a record that would pass.
  si.stage_insert(Interval{0.3, 0.4, 90100});
  si.stage_insert(Interval{0.5, 0.6, 90101});
  {
    fault::ScopedFault guard("validate", /*seed=*/0, /*nth=*/1);
    auto forced = si.commit();
    ASSERT_FALSE(forced.ok());
    EXPECT_EQ(forced.code(), StatusCode::kFaultInjected);
    expect_identical(snapshot(si, qs), golden);
  }
  ASSERT_TRUE(si.commit().ok());  // disarmed: the same batch lands
  EXPECT_EQ(si.size(), golden.size + 2);
}

TEST(FaultInjection, DuplicateIdAgainstLiveRecordRollsBack) {
  // A staged id that is already live fails inside the owning shard's
  // shadow apply — after other shards may have applied their clones — and
  // the transaction still rolls back wholesale.
  auto qs = stab_points(64, 0x51);
  auto base = fixed_intervals(4000, 0xCAFE);
  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  ASSERT_TRUE(si.bulk_insert(base).ok());
  IntervalSnapshot golden = snapshot(si, qs);

  for (const Interval& iv : fixed_intervals(1000, 0xBEAD, 4000)) {
    si.stage_insert(iv);
  }
  si.stage_insert(base[1234]);  // id 1234 is live
  auto v = si.commit();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
  expect_identical(snapshot(si, qs), golden);

  // Same-epoch id reuse via insert+erase is still an error (inserts apply
  // before erases, so the insert clobbers); cross-epoch reuse is fine.
  si.discard_staged();
  ASSERT_EQ(si.bulk_erase({base[7]}).value(), 1u);
  si.stage_insert(Interval{0.4, 0.6, base[7].id});
  EXPECT_TRUE(si.commit().ok());
}

// --- structure-level contract: fail before the first write --------------

TEST(FaultInjection, StructureBulkOpsFailWithoutMutating) {
  auto base = fixed_intervals(3000, 0x7A5);
  DynamicIntervalTree t(4);
  ASSERT_TRUE(t.bulk_insert(base).ok());
  auto probe = t.stab(0.5);

  // seed != 0, nth = 0 selects every index: the alloc gate always trips.
  {
    fault::ScopedFault guard("alloc", /*seed=*/1, /*nth=*/0);
    Status s = t.bulk_insert(fixed_intervals(500, 0x7A6, 3000));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kFaultInjected);
  }
  EXPECT_EQ(t.size(), base.size());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.stab(0.5), probe);

  // Validation errors follow the same pre-mutation contract.
  Status s = t.bulk_insert({Interval{0.2, 0.1, 99999}});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  auto e = t.bulk_erase({Interval{kNaN, 0.5, 1}});
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(t.size(), base.size());
  EXPECT_EQ(t.stab(0.5), probe);

  auto pts = testing::random_points<2>(3000, 0x7A7);
  LogForest<2> forest;
  ASSERT_TRUE(forest.bulk_insert(pts).ok());
  DynamicKdTree<2> kd;
  ASSERT_TRUE(kd.bulk_insert(pts).ok());
  {
    fault::ScopedFault guard("alloc", /*seed=*/1, /*nth=*/0);
    auto more = testing::random_points<2>(500, 0x7A8);
    EXPECT_EQ(forest.bulk_insert(more).code(), StatusCode::kFaultInjected);
    EXPECT_EQ(kd.bulk_insert(more).code(), StatusCode::kFaultInjected);
  }
  EXPECT_EQ(forest.size(), pts.size());
  EXPECT_EQ(kd.size(), pts.size());
  geom::PointK<2> bad{{0.5, kNaN}};
  EXPECT_EQ(forest.bulk_insert({bad}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kd.bulk_insert({bad}).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(forest.bulk_erase({bad}).ok());
  EXPECT_FALSE(kd.bulk_erase({bad}).ok());
  EXPECT_EQ(forest.size(), pts.size());
  EXPECT_EQ(kd.size(), pts.size());
}

// --- poisoned query sub-batches -----------------------------------------

TEST(FaultInjection, QueryPoisonPropagatesThroughEveryMergePath) {
  auto ivs = fixed_intervals(6000, 0xB00);
  auto qs = stab_points(96, 0xB01);
  auto pts = testing::random_points<2>(6000, 0xB02);
  auto boxes = box_queries(48, 0xB03);
  auto probes = testing::random_points<2>(32, 0xB04);

  for (Routing routing : {Routing::kHash, Routing::kRange}) {
    Sharded<DynamicIntervalTree> si(routing, 4, 4);
    ASSERT_TRUE(si.bulk_insert(ivs).ok());
    Sharded<LogForest<2>> sf(routing, 4);
    ASSERT_TRUE(sf.bulk_insert(pts).ok());
    auto count_golden = si.stab_count_batch(qs);

    fault::ScopedFault guard("query_poison", /*seed=*/0, /*nth=*/1);
    auto stab = si.stab_batch(qs);
    ASSERT_FALSE(stab.ok());
    EXPECT_EQ(stab.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(stab.total(), 0u);  // a poisoned result carries no items

    auto rep = sf.range_report_batch(boxes);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kFaultInjected);

    auto knn = sf.knn_batch(probes, 8);
    ASSERT_FALSE(knn.ok());
    EXPECT_EQ(knn.status().code(), StatusCode::kFaultInjected);

    // Families without a Status carrier (counting) have no poison point:
    // the armed spec must not change their results.
    EXPECT_EQ(si.stab_count_batch(qs), count_golden);
  }
}

// --- degenerate serving inputs ------------------------------------------

TEST(FaultInjection, DegenerateServingInputsAreDefined) {
  auto ivs = fixed_intervals(2000, 0xDE6);
  auto pts = testing::random_points<2>(2000, 0xDE7);

  // Fanout 0 clamps to the degenerate unsharded layout.
  Sharded<DynamicIntervalTree> zero(0, 4);
  EXPECT_EQ(zero.fanout(), 1u);
  ASSERT_TRUE(zero.bulk_insert(ivs).ok());
  EXPECT_EQ(zero.size(), ivs.size());

  for (Routing routing : {Routing::kHash, Routing::kRange}) {
    Sharded<DynamicIntervalTree> si(routing, 4, 4);
    ASSERT_TRUE(si.bulk_insert(ivs).ok());
    Sharded<LogForest<2>> sf(routing, 4);
    ASSERT_TRUE(sf.bulk_insert(pts).ok());

    // Empty query batches.
    EXPECT_EQ(si.stab_batch(std::vector<double>{}).num_queries(), 0u);
    EXPECT_EQ(sf.knn_batch(std::vector<geom::Point2>{}, 4).num_queries(),
              0u);

    // NaN stab probes answer empty, not UB.
    std::vector<double> qs = {0.5, kNaN, 0.25};
    auto stab = si.stab_batch(qs);
    ASSERT_TRUE(stab.ok());
    EXPECT_EQ(stab.count(1), 0u);
    EXPECT_GT(stab.count(0), 0u);
    auto cnt = si.stab_count_batch(qs);
    EXPECT_EQ(cnt[1], 0u);
    EXPECT_EQ(cnt[0], stab.count(0));

    // Inverted and NaN rectangles are empty ranges.
    geom::Box2 inverted;
    inverted.lo[0] = 0.8;
    inverted.hi[0] = 0.2;
    inverted.lo[1] = 0.8;
    inverted.hi[1] = 0.2;
    geom::Box2 nanbox;
    nanbox.lo[0] = kNaN;
    nanbox.hi[0] = kNaN;
    nanbox.lo[1] = 0.0;
    nanbox.hi[1] = 1.0;
    std::vector<geom::Box2> degenerate = {inverted, nanbox};
    auto rep = sf.range_report_batch(degenerate);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.total(), 0u);
    auto rc = sf.range_count_batch(degenerate);
    EXPECT_EQ(rc[0], 0u);
    EXPECT_EQ(rc[1], 0u);

    // k = 0, k > n, and NaN probes.
    std::vector<geom::Point2> nn = {geom::Point2{{0.5, 0.5}},
                                    geom::Point2{{kNaN, 0.5}}};
    auto k0 = sf.knn_batch(nn, 0);
    ASSERT_TRUE(k0.ok());
    EXPECT_EQ(k0.total(), 0u);
    auto kbig = sf.knn_batch(nn, pts.size() + 100);
    ASSERT_TRUE(kbig.ok());
    EXPECT_EQ(kbig.count(0), pts.size());  // min(k, live)
    EXPECT_EQ(kbig.count(1), 0u);          // NaN probe: empty slice
    auto ann = sf.ann_batch(nn, 0.0);
    EXPECT_TRUE(ann[0].has_value());
    EXPECT_FALSE(ann[1].has_value());

    // Erasing absent but well-formed records is a soft miss.
    EXPECT_EQ(si.bulk_erase({Interval{0.123, 0.456, 777777}}).value(), 0u);
    EXPECT_EQ(si.size(), ivs.size());
  }
}

// --- scheduler watchdog vs a stalled worker -----------------------------

TEST(FaultInjection, WatchdogSurfacesStalledWorker) {
  auto& sched = parallel::Scheduler::instance();
  if (sched.num_workers() < 2) {
    GTEST_SKIP() << "no steals at p=1: the stall point cannot fire";
  }
  auto ivs = fixed_intervals(30000, 0xA77);
  Sharded<DynamicIntervalTree> si(4, 4);
  ASSERT_TRUE(si.bulk_insert(ivs).ok());
  auto qs = stab_points(256, 0x77);

  uint64_t trips0 = sched.watchdog_trips();
  sched.set_watchdog_ms(5);
  {
    // Every steal by a scheduler worker sleeps kStallMillis before the
    // stolen job runs, so any join on a stolen branch outlives the 5 ms
    // deadline. A few batches make a steal (and thus a trip) overwhelmingly
    // likely at p >= 2; bail out as soon as one lands.
    fault::ScopedFault guard("steal_stall", /*seed=*/1, /*nth=*/0);
    for (int round = 0; round < 30; ++round) {
      si.stab_batch(qs);
      if (sched.watchdog_trips() > trips0) break;
    }
  }
  sched.set_watchdog_ms(0);
  if (fault::trips() == 0) {
    GTEST_SKIP() << "no steal occurred; nothing to observe";
  }
  EXPECT_GT(sched.watchdog_trips(), trips0);
}

// --- the CI fault sweep entry point -------------------------------------

// Runs a full serving scenario under whatever WEG_FAULT the environment
// armed (or none) and asserts the transactional invariants hold either
// way: a failing step must be a perfect no-op, a succeeding run must match
// the fault-free oracle. The CI fault sweep executes exactly this suite
// under a matrix of WEG_FAULT specs.
TEST(FaultSweep, ServingInvariantsHoldUnderEnvFault) {
  auto base = fixed_intervals(6000, 0x5EED);
  auto extra = fixed_intervals(1500, 0x5EEE, 6000);
  auto qs = stab_points(128, 0x5EEF);

  // The oracle is built element-wise: insert() has no fault points, so the
  // oracle is correct under every armed spec.
  DynamicIntervalTree oracle(4);
  for (const Interval& iv : base) oracle.insert(iv);

  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  Status load = si.bulk_insert(base);
  if (!load.ok()) {
    // The initial bulk epoch tripped: nothing may have been published.
    EXPECT_EQ(si.version(), 0u);
    EXPECT_EQ(si.size(), 0u);
    return;
  }
  EXPECT_EQ(si.size(), oracle.size());
  IntervalSnapshot before = snapshot(si, qs);

  for (const Interval& iv : extra) si.stage_insert(iv);
  for (size_t i = 0; i < base.size(); i += 3) si.stage_erase(base[i]);
  auto v = si.commit();
  if (!v.ok()) {
    // Rolled back: epoch N still serves, staged batch kept.
    expect_identical(snapshot(si, qs), before);
    EXPECT_EQ(si.staged_inserts(), extra.size());
    return;
  }
  EXPECT_EQ(si.version(), before.version + 1);
  for (const Interval& iv : extra) oracle.insert(iv);
  std::vector<Interval> gone;
  for (size_t i = 0; i < base.size(); i += 3) gone.push_back(base[i]);
  ASSERT_TRUE(oracle.bulk_erase(gone).ok());
  EXPECT_EQ(si.size(), oracle.size());

  auto r = si.stab_batch(qs);
  if (!r.ok()) {
    // A poisoned sub-batch: the merged result reports, never fabricates.
    EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(r.total(), 0u);
    return;
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    auto expect = oracle.stab(qs[i]);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(r.result(i), expect);
  }
}

// The engine path of the sweep: a fixed trace through Engine::run_trace
// under whatever WEG_FAULT the environment armed. Whether or not the armed
// point trips, a failed epoch publishes nothing (the committed versions are
// gapless), every OK query equals the brute-force stab over the live set of
// the version it reports, and the engine then stops and restarts cleanly.
TEST(FaultSweep, EngineTraceInvariantsHoldUnderEnvFault) {
  using Engine = serve::Engine<DynamicIntervalTree>;
  serve::Config cfg;
  cfg.max_batch = 16;
  cfg.max_delay_us = 200;
  Engine eng(cfg, Routing::kRange, 4, 4);
  auto base = fixed_intervals(2000, 0x5EF0);
  std::vector<Interval> live0;
  if (eng.bulk_load(base).ok()) {
    live0 = base;
  } else {
    EXPECT_EQ(eng.version(), 0u);  // the failed load published nothing
  }
  EXPECT_EQ(eng.size(), live0.size());
  const uint64_t v0 = eng.version();

  std::vector<serve::TraceEvent<DynamicIntervalTree>> trace;
  primitives::Rng rng(0x5EF1);
  uint32_t next_id = 50000;
  size_t next_erase = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    serve::TraceEvent<DynamicIntervalTree> e;
    e.at_us = i * 20;
    if (i % 4 == 1) {
      double a = rng.next_double();
      e.kind = serve::RequestKind::kInsert;
      e.rec = Interval{a, a + 0.02, next_id++};
    } else if (i % 9 == 2 && !live0.empty()) {
      e.kind = serve::RequestKind::kErase;
      e.rec = base[next_erase];
      next_erase += 13;
    } else {
      e.kind = serve::RequestKind::kQuery;
      e.query = rng.next_double();
    }
    trace.push_back(e);
  }
  auto out = eng.run_trace(trace);
  ASSERT_EQ(out.size(), trace.size());

  // Failed epochs publish nothing: the committed versions are exactly
  // v0+1 .. v0+k, and the engine ends at v0+k.
  std::map<uint64_t, std::vector<size_t>> by_version;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind == serve::RequestKind::kQuery) continue;
    if (out[i].status.ok()) {
      by_version[out[i].version].push_back(i);
    } else {
      EXPECT_EQ(out[i].status.code(), StatusCode::kFaultInjected) << i;
    }
  }
  uint64_t expect_v = v0;
  for (const auto& [ver, events] : by_version) EXPECT_EQ(ver, ++expect_v);
  EXPECT_EQ(eng.version(), expect_v);

  // Every OK query matches the oracle at its reported version.
  std::map<uint64_t, std::vector<Interval>> live_at;
  std::vector<Interval> live = live0;
  live_at[v0] = live;
  for (const auto& [ver, events] : by_version) {
    for (size_t i : events) {
      if (trace[i].kind == serve::RequestKind::kInsert) {
        live.push_back(trace[i].rec);
      }
    }
    for (size_t i : events) {
      if (trace[i].kind != serve::RequestKind::kErase) continue;
      live.erase(std::remove(live.begin(), live.end(), trace[i].rec),
                 live.end());
    }
    live_at[ver] = live;
  }
  EXPECT_EQ(eng.size(), live.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != serve::RequestKind::kQuery) continue;
    if (!out[i].status.ok()) {
      EXPECT_EQ(out[i].status.code(), StatusCode::kFaultInjected) << i;
      continue;
    }
    auto it = live_at.find(out[i].version);
    ASSERT_NE(it, live_at.end()) << "query " << i << " at " << out[i].version;
    std::vector<uint32_t> expect;
    for (const Interval& iv : it->second) {
      if (iv.contains(trace[i].query)) expect.push_back(iv.id);
    }
    std::sort(expect.begin(), expect.end());
    std::vector<uint32_t> got = out[i].items;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "query " << i << " at " << out[i].version;
  }

  // Live mode after the trace: start, serve, stop, and restart cleanly.
  for (int round = 0; round < 2; ++round) {
    eng.start();
    ASSERT_TRUE(eng.running());
    auto q = eng.submit_query(0.5);
    auto u = eng.submit_insert(Interval{0.5, 0.51, 90000u + uint32_t(round)});
    auto qr = q.get();
    auto ur = u.get();
    EXPECT_TRUE(qr.ok() || qr.status().code() == StatusCode::kFaultInjected);
    EXPECT_TRUE(ur.ok() || ur.status().code() == StatusCode::kFaultInjected);
    eng.stop();
    EXPECT_FALSE(eng.running());
    if (ur.ok()) {
      EXPECT_EQ(eng.version(), ur.value());
    }
  }
}

}  // namespace
}  // namespace weg
