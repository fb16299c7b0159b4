// The asynchronous serving engine (src/serve/engine.h) on top of the
// sharded epoch layer. Trace mode is the determinism anchor: a fixed
// request trace replayed with the injected logical clock must produce
// bitwise-identical admission decisions, batch boundaries, versions, and
// query results at every worker count (the CMake registration reruns the
// suite at WEG_NUM_THREADS=1/2/8, and the tsan-parallel preset runs it
// under TSan). The suite pins:
//   * fixed-trace determinism against a brute-force per-version oracle,
//   * deterministic admission rejection when the queue capacity is hit,
//   * size- and deadline-triggered flushes on the injected clock,
//   * per-request Status isolation (malformed records, duplicate ids, and
//     query_poison faults fail their own request, batch-mates succeed),
//   * ScopedFault(shard_apply): the engine retries, propagates the failure
//     to exactly the epoch's requests, and serves normally once disarmed,
//   * a golden replay whose outcomes and Stats are fixed values, so a
//     change to the flush core that moves any of them shows,
//   * failures as values: an out-of-order trace event fails alone, and
//     bulk_load / run_trace on a running engine fail without writing,
//   * live-mode snapshot isolation: every concurrent query's reply matches
//     the brute-force oracle at exactly the version it reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/core/status.h"
#include "src/geom/point.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/fault.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/serve/engine.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;
using serve::Config;
using serve::RequestKind;

using IntervalEngine = serve::Engine<DynamicIntervalTree>;
using Event = serve::TraceEvent<DynamicIntervalTree>;
using Outcome = serve::TraceOutcome<DynamicIntervalTree>;

std::vector<Interval> make_intervals(size_t n, uint64_t seed, double lo,
                                     double hi, double len, uint32_t id0) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = lo + rng.next_double() * (hi - lo);
    ivs[i] = Interval{a, a + rng.next_double() * len, id0 + uint32_t(i)};
  }
  return ivs;
}

std::vector<uint32_t> brute_stab(const std::vector<Interval>& live, double q) {
  std::vector<uint32_t> ids;
  for (const Interval& iv : live) {
    if (iv.contains(q)) ids.push_back(iv.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Event q_at(uint64_t t, double q) {
  Event e;
  e.kind = RequestKind::kQuery;
  e.at_us = t;
  e.query = q;
  return e;
}
Event ins_at(uint64_t t, Interval iv) {
  Event e;
  e.kind = RequestKind::kInsert;
  e.at_us = t;
  e.rec = iv;
  return e;
}
Event ers_at(uint64_t t, Interval iv) {
  Event e;
  e.kind = RequestKind::kErase;
  e.at_us = t;
  e.rec = iv;
  return e;
}

// Replays the committed updates of a trace run to reconstruct the live set
// at each published version, then checks every query outcome against a
// brute-force stab of exactly the version it reports — the snapshot an
// engine query sees must be some whole epoch, never a partial apply.
void check_against_oracle(const std::vector<Event>& trace,
                          const std::vector<Outcome>& out,
                          const std::vector<Interval>& base) {
  std::map<uint64_t, std::vector<size_t>> by_version;  // version -> events
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != RequestKind::kQuery && out[i].status.ok()) {
      by_version[out[i].version].push_back(i);
    }
  }
  std::map<uint64_t, std::vector<Interval>> live_at;  // version -> live set
  std::vector<Interval> live = base;
  live_at[1] = live;  // bulk_load publishes version 1
  for (const auto& [ver, events] : by_version) {
    for (size_t i : events) {  // commit order: all inserts, then all erases
      if (trace[i].kind == RequestKind::kInsert) live.push_back(trace[i].rec);
    }
    for (size_t i : events) {
      if (trace[i].kind != RequestKind::kErase) continue;
      live.erase(std::remove(live.begin(), live.end(), trace[i].rec),
                 live.end());
    }
    live_at[ver] = live;
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind != RequestKind::kQuery || !out[i].status.ok()) continue;
    auto it = live_at.find(out[i].version);
    ASSERT_NE(it, live_at.end())
        << "query " << i << " reports unknown version " << out[i].version;
    std::vector<uint32_t> got = out[i].items;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_stab(it->second, trace[i].query))
        << "query " << i << " at version " << out[i].version;
  }
}

// A mixed query/insert/erase trace with timestamps that exercise both size
// and deadline flush triggers. Pure function of the seed.
std::vector<Event> mixed_trace(const std::vector<Interval>& base,
                               uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Event> trace;
  uint64_t t = 0;
  uint32_t next_id = 10000;
  size_t next_erase = 0;
  for (size_t i = 0; i < 220; ++i) {
    t += 17 + rng.next_bounded(60);
    if (i % 5 == 4) {
      double a = rng.next_double();
      trace.push_back(ins_at(t, Interval{a, a + 0.03, next_id++}));
    } else if (i % 11 == 10 && next_erase + 7 < base.size()) {
      trace.push_back(ers_at(t, base[next_erase]));
      next_erase += 7;
    } else {
      trace.push_back(q_at(t, rng.next_double()));
    }
  }
  return trace;
}

TEST(ServingTrace, FixedTraceIsDeterministicAndMatchesOracle) {
  Config cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.max_delay_us = 300;
  const auto base = make_intervals(256, 1, 0.0, 1.0, 0.05, 0);
  const auto trace = mixed_trace(base, 7);

  auto run = [&] {
    IntervalEngine eng(cfg, Routing::kHash, 4);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    auto out = eng.run_trace(trace);
    return std::make_pair(std::move(out), eng.stats());
  };
  auto [out1, st1] = run();
  auto [out2, st2] = run();

  ASSERT_EQ(out1.size(), trace.size());
  for (size_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1[i].status.code(), out2[i].status.code()) << i;
    EXPECT_EQ(out1[i].items, out2[i].items) << i;
    EXPECT_EQ(out1[i].version, out2[i].version) << i;
    EXPECT_EQ(out1[i].completed_at_us, out2[i].completed_at_us) << i;
  }
  EXPECT_EQ(st1.query_batches, st2.query_batches);
  EXPECT_EQ(st1.size_flushes, st2.size_flushes);
  EXPECT_EQ(st1.deadline_flushes, st2.deadline_flushes);
  EXPECT_EQ(st1.epochs_committed, st2.epochs_committed);
  EXPECT_EQ(st1.batch_size_hist, st2.batch_size_hist);

  // The trace commits several epochs and never overruns the queue.
  EXPECT_GT(st1.epochs_committed, 2u);
  EXPECT_EQ(st1.queries_rejected, 0u);
  EXPECT_EQ(st1.updates_rejected, 0u);
  EXPECT_EQ(st1.requests_failed, 0u);
  for (const Outcome& o : out1) EXPECT_TRUE(o.status.ok());
  check_against_oracle(trace, out1, base);
}

TEST(ServingTrace, AdmissionRejectsDeterministicallyWhenQueueFull) {
  Config cfg;
  cfg.queue_capacity = 4;
  cfg.max_batch = 8;
  cfg.max_delay_us = 1000;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(64, 2, 0.0, 1.0, 0.1, 0)).ok());

  std::vector<Event> trace;
  for (int i = 0; i < 6; ++i) trace.push_back(q_at(0, 0.5));
  trace.push_back(q_at(2000, 0.25));
  auto out = eng.run_trace(trace);

  // Exactly the 5th and 6th submissions overflow the capacity-4 queue and
  // are rejected at their own admission time.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(out[i].status.ok()) << i;
    EXPECT_EQ(out[i].completed_at_us, 1000u) << i;  // deadline of t=0
  }
  for (size_t i : {size_t{4}, size_t{5}}) {
    EXPECT_EQ(out[i].status.code(), StatusCode::kResourceExhausted) << i;
    EXPECT_EQ(out[i].completed_at_us, 0u) << i;
    EXPECT_TRUE(out[i].items.empty()) << i;
  }
  // The t=2000 query drains at its own deadline after the trace ends.
  EXPECT_TRUE(out[6].status.ok());
  EXPECT_EQ(out[6].completed_at_us, 3000u);

  auto st = eng.stats();
  EXPECT_EQ(st.queries_admitted, 5u);
  EXPECT_EQ(st.queries_rejected, 2u);
  EXPECT_EQ(st.deadline_flushes, 1u);
  EXPECT_EQ(st.drain_flushes, 1u);
}

TEST(ServingTrace, SizeAndDeadlineTriggersOnInjectedClock) {
  Config cfg;
  cfg.queue_capacity = 100;
  cfg.max_batch = 4;
  cfg.max_delay_us = 500;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(64, 3, 0.0, 1.0, 0.1, 0)).ok());

  // 4 queries at t=0..3 hit max_batch and flush immediately at t=3; the
  // 3 queries at t=1000,1100,1200 flush when the oldest waiter's deadline
  // expires at t=1500 (the t=9000 event advances the clock past it).
  std::vector<Event> trace;
  for (uint64_t t = 0; t < 4; ++t) trace.push_back(q_at(t, 0.5));
  for (uint64_t t : {1000, 1100, 1200}) {
    trace.push_back(q_at(t, 0.5));
  }
  trace.push_back(q_at(9000, 0.5));
  auto out = eng.run_trace(trace);

  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].completed_at_us, 3u) << i;
  for (size_t i = 4; i < 7; ++i) EXPECT_EQ(out[i].completed_at_us, 1500u) << i;
  EXPECT_EQ(out[7].completed_at_us, 9500u);  // end-of-trace drain
  auto st = eng.stats();
  EXPECT_EQ(st.size_flushes, 1u);
  EXPECT_EQ(st.deadline_flushes, 1u);
  EXPECT_EQ(st.drain_flushes, 1u);
  // One batch of 4 (bit_width bucket 3) and two of 3 and 1 (buckets 2, 1).
  EXPECT_EQ(st.batch_size_hist[3], 1u);
  EXPECT_EQ(st.batch_size_hist[2], 1u);
  EXPECT_EQ(st.batch_size_hist[1], 1u);
}

TEST(ServingTrace, MalformedUpdatesFailAloneBatchMatesCommit) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Config cfg;
  cfg.max_batch = 16;
  cfg.max_delay_us = 100;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  const auto base = make_intervals(32, 4, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  std::vector<Event> trace;
  trace.push_back(ins_at(0, Interval{0.1, 0.2, 1000}));   // good
  trace.push_back(ins_at(1, Interval{kNaN, 0.5, 1001}));  // NaN endpoint
  trace.push_back(ins_at(2, Interval{0.9, 0.1, 1002}));   // inverted
  trace.push_back(ins_at(3, Interval{0.3, 0.4, 1003}));   // good
  trace.push_back(ins_at(4, Interval{0.5, 0.6, 1003}));   // dup id in epoch
  trace.push_back(ers_at(5, base[0]));                    // good erase
  trace.push_back(q_at(500, 0.15));
  auto out = eng.run_trace(trace);

  EXPECT_TRUE(out[0].status.ok());
  EXPECT_EQ(out[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out[3].status.ok());
  EXPECT_EQ(out[4].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out[5].status.ok());
  // The good requests rode one epoch: same committed version for all three.
  EXPECT_EQ(out[0].version, 2u);
  EXPECT_EQ(out[3].version, 2u);
  EXPECT_EQ(out[5].version, 2u);
  EXPECT_EQ(eng.stats().requests_failed, 3u);
  check_against_oracle(trace, out, base);
}

TEST(ServingTrace, QueryPoisonFailsOnlyRequestsOnArmedShard) {
  Config cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  IntervalEngine eng(cfg, Routing::kRange, 4);
  // Short intervals across [0,100): under range routing the planner sends a
  // low stab to shard 0 and a high stab to the top shard only.
  const auto base = make_intervals(256, 5, 0.0, 100.0, 0.5, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  // Stab at actual record endpoints so the planner provably visits the
  // shard holding that record: the lowest left endpoint lives in shard 0
  // (the armed shard), the highest in the top shard, whose coverage stays
  // clear of shard 0's.
  auto by_l = [](const Interval& a, const Interval& b) { return a.l < b.l; };
  double lo_q = std::min_element(base.begin(), base.end(), by_l)->l;
  double hi_q = std::max_element(base.begin(), base.end(), by_l)->l;

  fault::ScopedFault poison("query_poison", 0, 0);  // exact pin: shard 0
  std::vector<Event> trace;
  trace.push_back(q_at(0, lo_q));  // routed to the armed shard
  trace.push_back(q_at(1, hi_q));  // routed clear of it
  trace.push_back(q_at(2, hi_q));
  auto out = eng.run_trace(trace);

  EXPECT_EQ(out[0].status.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(out[0].items.empty());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_TRUE(out[2].status.ok());
  std::vector<uint32_t> got = out[1].items;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute_stab(base, hi_q));
  EXPECT_EQ(eng.stats().requests_failed, 1u);
}

TEST(ServingTrace, ShardApplyFaultRetriesPropagatesAndRecovers) {
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.commit_retries = 2;
  IntervalEngine eng(cfg, Routing::kHash, 4);
  const auto base = make_intervals(64, 6, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());

  {
    fault::ScopedFault fail("shard_apply", 0, 0);  // shard 0 always fails
    std::vector<Event> trace;
    trace.push_back(ins_at(0, Interval{0.1, 0.2, 2000}));
    trace.push_back(ins_at(1, Interval{0.3, 0.4, 2001}));
    trace.push_back(ins_at(2, Interval{0.5, 0.6, 2002}));
    auto out = eng.run_trace(trace);
    // All commit attempts trip: the epoch's requests carry the fault, the
    // engine rolls back and keeps serving epoch 1.
    for (const Outcome& o : out) {
      EXPECT_EQ(o.status.code(), StatusCode::kFaultInjected);
    }
    auto st = eng.stats();
    EXPECT_EQ(st.epochs_failed, 1u);
    EXPECT_EQ(st.commit_retries, uint64_t(cfg.commit_retries));
    EXPECT_EQ(eng.version(), 1u);
  }

  // Disarmed: the same engine commits the next epoch — not wedged.
  std::vector<Event> trace;
  trace.push_back(ins_at(0, Interval{0.1, 0.2, 2000}));
  trace.push_back(ins_at(1, Interval{0.3, 0.4, 2001}));
  trace.push_back(q_at(500, 0.15));
  auto out = eng.run_trace(trace);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_EQ(out[0].version, 2u);
  ASSERT_TRUE(out[2].status.ok());
  std::vector<uint32_t> got = out[2].items;
  std::sort(got.begin(), got.end());
  auto live = base;
  live.push_back(Interval{0.1, 0.2, 2000});
  live.push_back(Interval{0.3, 0.4, 2001});
  EXPECT_EQ(got, brute_stab(live, 0.15));
  EXPECT_EQ(eng.version(), 2u);
  EXPECT_EQ(eng.stats().epochs_committed, 1u);
}

// The golden replay: one fixed trace that walks every trigger and failure
// path of the flush core, with its outcomes and Stats pinned to the values
// the engine produced when they were captured. Under `wide` (capacity 64,
// max_batch 4) it hits size flushes for queries and updates, deadline
// flushes and the end-of-trace drain; the armed query_poison fails the
// shard-0 stabs alone, and the screen fails a NaN insert and a duplicate
// id. Trace mode can only reject admission when queue_capacity < max_batch,
// which rules out size flushes, so the same trace is replayed a second time
// under `tight` (capacity 3, max_batch 8) to pin the reject path.
struct Golden {
  StatusCode code;
  uint64_t version;
  uint64_t completed_at_us;
  size_t items;
};

void expect_golden(const std::vector<Outcome>& out,
                   const std::vector<Golden>& want) {
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].status.code(), want[i].code) << "event " << i;
    EXPECT_EQ(out[i].version, want[i].version) << "event " << i;
    EXPECT_EQ(out[i].completed_at_us, want[i].completed_at_us) << "event " << i;
    EXPECT_EQ(out[i].items.size(), want[i].items) << "event " << i;
  }
}

void expect_stats(const serve::Stats& got, const serve::Stats& want) {
  EXPECT_EQ(got.queries_admitted, want.queries_admitted);
  EXPECT_EQ(got.queries_rejected, want.queries_rejected);
  EXPECT_EQ(got.updates_admitted, want.updates_admitted);
  EXPECT_EQ(got.updates_rejected, want.updates_rejected);
  EXPECT_EQ(got.requests_failed, want.requests_failed);
  EXPECT_EQ(got.query_batches, want.query_batches);
  EXPECT_EQ(got.size_flushes, want.size_flushes);
  EXPECT_EQ(got.deadline_flushes, want.deadline_flushes);
  EXPECT_EQ(got.drain_flushes, want.drain_flushes);
  EXPECT_EQ(got.epochs_committed, want.epochs_committed);
  EXPECT_EQ(got.epochs_failed, want.epochs_failed);
  EXPECT_EQ(got.commit_retries, want.commit_retries);
  EXPECT_EQ(got.overlap_batches, want.overlap_batches);
  EXPECT_EQ(got.batch_size_hist, want.batch_size_hist);
}

TEST(ServingTrace, FixedTraceGoldenOutcomes) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto base = make_intervals(128, 61, 0.0, 100.0, 0.5, 0);
  auto by_l = [](const Interval& a, const Interval& b) { return a.l < b.l; };
  const double lo_q = std::min_element(base.begin(), base.end(), by_l)->l;
  const double hi_q = std::max_element(base.begin(), base.end(), by_l)->l;

  std::vector<Event> trace;
  for (uint64_t t = 0; t < 4; ++t) {  // a burst: poisoned, size-flushed
    trace.push_back(q_at(t, t % 2 == 0 ? lo_q : hi_q));
  }
  trace.push_back(ins_at(10, Interval{50.0, 50.4, 5000}));
  trace.push_back(ins_at(11, Interval{kNaN, 60.0, 5001}));  // malformed
  trace.push_back(ins_at(12, Interval{70.0, 70.4, 5000}));  // dup id
  trace.push_back(ers_at(13, base[3]));
  trace.push_back(ins_at(14, Interval{20.0, 20.4, 5002}));
  trace.push_back(q_at(100, hi_q));
  // t=250 runs after the t=14 epoch committed; then an update burst.
  trace.push_back(q_at(250, 50.2));
  for (uint32_t i = 0; i < 4; ++i) {
    trace.push_back(ins_at(500 + i, Interval{30.0 + i, 30.4 + i, 5010 + i}));
  }
  trace.push_back(q_at(520, 31.2));
  trace.push_back(q_at(521, lo_q));
  trace.push_back(ins_at(530, Interval{40.0, 40.4, 5020}));

  auto replay = [&](const Config& cfg) {
    IntervalEngine eng(cfg, Routing::kRange, 4);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    fault::ScopedFault poison("query_poison", 0, 0);
    auto out = eng.run_trace(trace);
    return std::make_pair(std::move(out), eng.stats());
  };
  Config wide;
  wide.queue_capacity = 64;
  wide.max_batch = 4;
  wide.max_delay_us = 200;
  Config tight = wide;
  tight.queue_capacity = 3;
  tight.max_batch = 8;

  constexpr StatusCode kOk = StatusCode::kOk;
  constexpr StatusCode kBad = StatusCode::kInvalidArgument;
  constexpr StatusCode kFull = StatusCode::kResourceExhausted;
  constexpr StatusCode kPoison = StatusCode::kFaultInjected;
  {
    auto [out, st] = replay(wide);
    const std::vector<Golden> golden = {
        {kPoison, 1, 3, 0},
        {kOk, 1, 3, 1},
        {kPoison, 1, 3, 0},
        {kOk, 1, 3, 1},
        {kOk, 2, 13, 0},
        {kBad, 0, 13, 0},
        {kBad, 0, 13, 0},
        {kOk, 2, 13, 0},
        {kOk, 3, 214, 0},
        {kOk, 3, 300, 1},
        {kOk, 3, 300, 3},
        {kOk, 4, 503, 0},
        {kOk, 4, 503, 0},
        {kOk, 4, 503, 0},
        {kOk, 4, 503, 0},
        {kOk, 4, 720, 2},
        {kPoison, 4, 720, 0},
        {kOk, 5, 730, 0},
    };
    expect_golden(out, golden);
    serve::Stats want;
    want.queries_admitted = 8;
    want.updates_admitted = 10;
    want.requests_failed = 5;
    want.query_batches = 3;
    want.size_flushes = 3;
    want.deadline_flushes = 2;
    want.drain_flushes = 2;
    want.epochs_committed = 4;
    want.batch_size_hist[1] = 2;
    want.batch_size_hist[2] = 2;
    want.batch_size_hist[3] = 3;
    expect_stats(st, want);
  }
  {
    auto [out, st] = replay(tight);
    const std::vector<Golden> golden = {
        {kPoison, 1, 200, 0},
        {kOk, 1, 200, 1},
        {kPoison, 1, 200, 0},
        {kFull, 0, 3, 0},
        {kOk, 2, 210, 0},
        {kBad, 0, 210, 0},
        {kBad, 0, 210, 0},
        {kFull, 0, 13, 0},
        {kFull, 0, 14, 0},
        {kFull, 0, 100, 0},
        {kOk, 2, 450, 3},
        {kOk, 3, 700, 0},
        {kOk, 3, 700, 0},
        {kOk, 3, 700, 0},
        {kFull, 0, 503, 0},
        {kOk, 3, 720, 2},
        {kPoison, 3, 720, 0},
        {kFull, 0, 530, 0},
    };
    expect_golden(out, golden);
    serve::Stats want;
    want.queries_admitted = 6;
    want.queries_rejected = 2;
    want.updates_admitted = 6;
    want.updates_rejected = 4;
    want.requests_failed = 5;
    want.query_batches = 3;
    want.deadline_flushes = 3;
    want.drain_flushes = 2;
    want.epochs_committed = 2;
    want.batch_size_hist[1] = 1;
    want.batch_size_hist[2] = 4;
    expect_stats(st, want);
  }
}

// A trace event earlier than the one before it fails alone as a value, in
// Debug and Release builds alike: it completes at its own time with
// InvalidArgument, is never admitted, and every other event's outcome is
// the one it has when the stray event is left out of the trace.
TEST(ServingTrace, OutOfOrderEventFailsAloneAsValue) {
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  const auto base = make_intervals(64, 71, 0.0, 1.0, 0.1, 0);
  std::vector<Event> sorted;
  sorted.push_back(q_at(0, 0.5));
  sorted.push_back(ins_at(50, Interval{0.1, 0.2, 3000}));
  sorted.push_back(q_at(300, 0.15));
  sorted.push_back(q_at(400, 0.15));
  std::vector<Event> trace = sorted;
  // Two strays: a query behind t=300 and an erase behind t=50.
  trace.insert(trace.begin() + 3, q_at(20, 0.5));
  trace.insert(trace.begin() + 2, ers_at(10, base[0]));

  auto replay = [&](const std::vector<Event>& tr) {
    IntervalEngine eng(cfg, Routing::kHash, 2);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    auto out = eng.run_trace(tr);
    return std::make_pair(std::move(out), eng.stats());
  };
  auto [want, want_st] = replay(sorted);
  auto [out, st] = replay(trace);
  ASSERT_EQ(out.size(), trace.size());
  std::vector<Outcome> kept;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i != 2 && i != 4) {
      kept.push_back(out[i]);
      continue;
    }
    EXPECT_EQ(out[i].status.code(), StatusCode::kInvalidArgument) << i;
    EXPECT_EQ(out[i].admitted_at_us, trace[i].at_us) << i;
    EXPECT_EQ(out[i].completed_at_us, trace[i].at_us) << i;
    EXPECT_EQ(out[i].version, 0u) << i;
    EXPECT_TRUE(out[i].items.empty()) << i;
  }
  ASSERT_EQ(kept.size(), want.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_TRUE(kept[i].status.ok()) << i;
    EXPECT_EQ(kept[i].items, want[i].items) << i;
    EXPECT_EQ(kept[i].version, want[i].version) << i;
    EXPECT_EQ(kept[i].admitted_at_us, want[i].admitted_at_us) << i;
    EXPECT_EQ(kept[i].completed_at_us, want[i].completed_at_us) << i;
  }
  EXPECT_EQ(st.requests_failed, 2u);
  EXPECT_EQ(st.queries_admitted, want_st.queries_admitted);
  EXPECT_EQ(st.updates_admitted, want_st.updates_admitted);
  EXPECT_EQ(st.query_batches, want_st.query_batches);
  EXPECT_EQ(st.epochs_committed, want_st.epochs_committed);
}

// A kNN engine over the 2-d log forest: determinism between identical
// engines and membership of every reply in the correct epoch's live set.
TEST(ServingTrace, KnnEngineServesPointFamily) {
  using PointEngine = serve::Engine<LogForest<2>>;
  using PEvent = serve::TraceEvent<LogForest<2>>;
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.knn_k = 4;

  primitives::Rng rng(11);
  std::vector<geom::Point2> base(128);
  for (auto& p : base) p = {rng.next_double(), rng.next_double()};

  std::vector<PEvent> trace;
  for (int i = 0; i < 8; ++i) {  // one query batch against version 1
    PEvent e;
    e.kind = RequestKind::kQuery;
    e.at_us = uint64_t(i);
    e.query = {rng.next_double(), rng.next_double()};
    trace.push_back(e);
  }
  std::vector<geom::Point2> extra(8);
  for (size_t i = 0; i < extra.size(); ++i) {
    extra[i] = {rng.next_double(), rng.next_double()};
    PEvent e;
    e.kind = RequestKind::kInsert;
    e.at_us = 200 + i;
    e.rec = extra[i];
    trace.push_back(e);
  }
  PEvent last;
  last.kind = RequestKind::kQuery;
  last.at_us = 1000;
  last.query = {0.5, 0.5};
  trace.push_back(last);

  auto run = [&] {
    PointEngine eng(cfg, Routing::kHash, 2);
    EXPECT_TRUE(eng.bulk_load(base).ok());
    return eng.run_trace(trace);
  };
  auto out1 = run();
  auto out2 = run();
  ASSERT_EQ(out1.size(), out2.size());
  auto key = [](const geom::Point2& p) { return std::make_pair(p[0], p[1]); };
  std::set<std::pair<double, double>> in_base, in_all;
  for (const auto& p : base) in_base.insert(key(p));
  in_all = in_base;
  for (const auto& p : extra) in_all.insert(key(p));
  for (size_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1[i].status.code(), out2[i].status.code()) << i;
    EXPECT_EQ(out1[i].version, out2[i].version) << i;
    ASSERT_EQ(out1[i].items.size(), out2[i].items.size()) << i;
    for (size_t j = 0; j < out1[i].items.size(); ++j) {
      EXPECT_EQ(key(out1[i].items[j]), key(out2[i].items[j])) << i;
    }
    if (trace[i].kind != RequestKind::kQuery || !out1[i].status.ok()) continue;
    EXPECT_EQ(out1[i].items.size(), cfg.knn_k) << i;
    const auto& members = out1[i].version == 1 ? in_base : in_all;
    for (const auto& p : out1[i].items) {
      EXPECT_TRUE(members.count(key(p))) << i;
    }
  }
  // The final query ran after the insert epoch committed.
  EXPECT_EQ(out1.back().version, 2u);
}

// Live mode: real producer/batcher/committer threads. Every query reply
// must match the brute-force oracle at exactly the version it reports —
// a query that observed a half-applied epoch or a torn flip would mismatch.
TEST(ServingLive, SnapshotIsolationUnderConcurrentCommits) {
  Config cfg;
  cfg.queue_capacity = 8192;
  cfg.max_batch = 64;
  cfg.max_delay_us = 200;
  IntervalEngine eng(cfg, Routing::kHash, 4);
  const auto base = make_intervals(512, 8, 0.0, 1.0, 0.05, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();

  primitives::Rng rng(21);
  std::vector<std::pair<Interval, std::future<Expected<uint64_t>>>> updates;
  std::vector<std::pair<double, std::future<Expected<IntervalEngine::QueryReply>>>>
      queries;
  uint32_t next_id = 50000;
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int j = 0; j < 64; ++j) {
      double a = rng.next_double();
      Interval iv{a, a + 0.03, next_id++};
      updates.emplace_back(iv, eng.submit_insert(iv));
    }
    for (int j = 0; j < 80; ++j) {
      double q = rng.next_double();
      queries.emplace_back(q, eng.submit_query(q));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  eng.stop();

  std::map<uint64_t, std::vector<Interval>> by_version;
  for (auto& [iv, fut] : updates) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_GT(r.value(), 1u);
    by_version[r.value()].push_back(iv);
  }
  std::map<uint64_t, std::vector<Interval>> live_at;
  std::vector<Interval> live = base;
  live_at[1] = live;
  for (auto& [ver, ivs] : by_version) {
    live.insert(live.end(), ivs.begin(), ivs.end());
    live_at[ver] = live;
  }
  size_t checked = 0;
  for (auto& [q, fut] : queries) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    auto it = live_at.find(r.value().version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << r.value().version;
    std::vector<uint32_t> got = r.value().items;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute_stab(it->second, q));
    ++checked;
  }
  EXPECT_EQ(checked, queries.size());
  auto st = eng.stats();
  EXPECT_EQ(st.epochs_committed, by_version.size());
  EXPECT_EQ(eng.version(), 1 + st.epochs_committed);
  EXPECT_EQ(st.requests_failed, 0u);
}

// Concurrent producers from several threads (the TSan target for the
// admission queues and the batcher/committer hand-off), plus the
// stop/restart contract.
TEST(ServingLive, ConcurrentProducersAndRestart) {
  Config cfg;
  cfg.queue_capacity = 4096;
  cfg.max_batch = 32;
  cfg.max_delay_us = 150;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  ASSERT_TRUE(eng.bulk_load(make_intervals(128, 9, 0.0, 1.0, 0.1, 0)).ok());
  eng.start();

  constexpr int kThreads = 4;
  std::vector<std::vector<std::future<Expected<IntervalEngine::QueryReply>>>>
      qfuts(kThreads);
  std::vector<std::vector<std::future<Expected<uint64_t>>>> ufuts(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      primitives::Rng rng(100 + uint64_t(t));
      for (int i = 0; i < 25; ++i) {
        qfuts[t].push_back(eng.submit_query(rng.next_double()));
        if (i % 3 == 0) {
          double a = rng.next_double();
          ufuts[t].push_back(eng.submit_insert(
              Interval{a, a + 0.05, uint32_t(90000 + t * 1000 + i)}));
        }
      }
    });
  }
  for (auto& th : producers) th.join();
  eng.stop();

  for (int t = 0; t < kThreads; ++t) {
    for (auto& f : qfuts[t]) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_GE(r.value().version, 1u);
    }
    for (auto& f : ufuts[t]) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
    }
  }

  // Stopped: a submit completes immediately with FailedPrecondition.
  auto rejected = eng.submit_query(0.5).get();
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  // Restart serves again.
  eng.start();
  auto again = eng.submit_query(0.5).get();
  EXPECT_TRUE(again.ok()) << again.status().to_string();
  eng.stop();
}

// Control calls on a running engine fail as values: the committer stays
// the layer's only writer. bulk_load returns FailedPrecondition, run_trace
// fails every event with it, and neither touches the published Version;
// the engine keeps serving afterwards.
TEST(ServingLive, ControlCallsWhileRunningFailAsValues) {
  Config cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  IntervalEngine eng(cfg, Routing::kHash, 2);
  const auto base = make_intervals(64, 72, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();
  const uint64_t v0 = eng.version();
  const size_t size0 = eng.size();

  Status load = eng.bulk_load(make_intervals(16, 73, 0.0, 1.0, 0.1, 1000));
  EXPECT_EQ(load.code(), StatusCode::kFailedPrecondition);
  std::vector<Event> trace;
  trace.push_back(ins_at(5, Interval{0.1, 0.2, 2000}));
  trace.push_back(ers_at(6, base[0]));
  trace.push_back(q_at(7, 0.15));
  auto out = eng.run_trace(trace);
  ASSERT_EQ(out.size(), trace.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].status.code(), StatusCode::kFailedPrecondition) << i;
    EXPECT_EQ(out[i].completed_at_us, trace[i].at_us) << i;
    EXPECT_EQ(out[i].version, 0u) << i;
    EXPECT_TRUE(out[i].items.empty()) << i;
  }
  EXPECT_EQ(eng.version(), v0);
  EXPECT_EQ(eng.size(), size0);

  auto r = eng.submit_query(0.15).get();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().version, v0);
  std::vector<uint32_t> got = r.value().items;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, brute_stab(base, 0.15));
  eng.stop();
  EXPECT_EQ(eng.version(), v0);
  EXPECT_EQ(eng.stats().epochs_committed, 0u);
}

// Live mode, introspection side: while the engine runs, a second thread
// loops Engine::snapshot() + stab_batch (and the version()/size() getters).
// Each reply must equal the brute-force oracle at the version its snapshot
// reports, reconstructed afterwards from the update futures.
TEST(ServingLive, SnapshotIntrospectionIsRaceFreeWhileRunning) {
  Config cfg;
  cfg.max_batch = 32;
  cfg.max_delay_us = 150;
  IntervalEngine eng(cfg, Routing::kRange, 4, 4);
  const auto base = make_intervals(512, 31, 0.0, 1.0, 0.05, 0);
  ASSERT_TRUE(eng.bulk_load(base).ok());
  eng.start();

  struct Read {
    uint64_t version;
    size_t size;
    std::vector<std::vector<uint32_t>> items;
  };
  const std::vector<double> qs = {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95};
  std::atomic<bool> done{false};
  std::vector<Read> reads;
  std::thread reader([&] {
    uint64_t last = 0;
    do {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      auto snap = eng.snapshot();
      auto r = snap->stab_batch(qs);
      EXPECT_TRUE(r.ok()) << r.status().to_string();
      if (!r.ok()) continue;
      Read rd{snap->version(), snap->size(), {}};
      for (size_t i = 0; i < qs.size(); ++i) rd.items.push_back(r.result(i));
      reads.push_back(std::move(rd));
      uint64_t v = eng.version();
      EXPECT_GE(v, last);  // published versions only move forward
      EXPECT_GT(eng.size(), 0u);
      last = v;
    } while (!done.load(std::memory_order_acquire));
  });

  primitives::Rng rng(32);
  std::vector<std::pair<Interval, std::future<Expected<uint64_t>>>> updates;
  uint32_t next_id = 70000;
  for (int epoch = 0; epoch < 16; ++epoch) {
    for (int j = 0; j < 24; ++j) {
      double a = rng.next_double();
      Interval iv{a, a + 0.03, next_id++};
      updates.emplace_back(iv, eng.submit_insert(iv));
    }
    updates.back().second.wait();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  eng.stop();

  std::map<uint64_t, std::vector<Interval>> by_version;
  for (auto& [iv, fut] : updates) {
    auto r = fut.get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    by_version[r.value()].push_back(iv);
  }
  std::map<uint64_t, std::vector<Interval>> live_at;
  std::vector<Interval> live = base;
  live_at[1] = live;
  for (auto& [ver, ivs] : by_version) {
    live.insert(live.end(), ivs.begin(), ivs.end());
    live_at[ver] = live;
  }
  std::set<uint64_t> seen;
  for (const Read& rd : reads) seen.insert(rd.version);
  EXPECT_GE(seen.size(), 2u);  // the reads straddled commits
  for (const Read& rd : reads) {
    auto it = live_at.find(rd.version);
    ASSERT_NE(it, live_at.end()) << "unknown version " << rd.version;
    EXPECT_EQ(rd.size, it->second.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      std::vector<uint32_t> got = rd.items[i];
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_stab(it->second, qs[i])) << rd.version;
    }
  }
}

// A snapshot pins one Version: across two commits and one rolled-back
// commit it keeps returning the pre-commit results, size and version
// bitwise, while the layer itself moves on.
TEST(ShardedSnapshot, PinsVersionAcrossCommits) {
  Sharded<DynamicIntervalTree> layer(Routing::kRange, 4, 4);
  const auto base = make_intervals(256, 10, 0.0, 1.0, 0.1, 0);
  ASSERT_TRUE(layer.bulk_insert(base).ok());
  std::vector<double> qs(64);
  primitives::Rng rng(40);
  for (double& q : qs) q = rng.next_double();

  auto snap = layer.snapshot();
  ASSERT_NE(snap, nullptr);
  const uint64_t ver0 = snap->version();
  const size_t size0 = snap->size();
  const auto stab0 = snap->stab_batch(qs);
  const auto count0 = snap->stab_count_batch(qs);
  EXPECT_EQ(ver0, layer.version());

  for (const Interval& iv : make_intervals(48, 11, 0.0, 1.0, 0.1, 1000)) {
    layer.stage_insert(iv);
  }
  EXPECT_EQ(layer.snapshot(), snap);  // staging publishes nothing
  ASSERT_TRUE(layer.commit().ok());
  for (size_t i = 0; i < base.size(); i += 5) layer.stage_erase(base[i]);
  ASSERT_TRUE(layer.commit().ok());
  {
    fault::ScopedFault fail("shard_apply", 0, 0);
    for (const Interval& iv : make_intervals(48, 12, 0.0, 1.0, 0.1, 2000)) {
      layer.stage_insert(iv);
    }
    EXPECT_FALSE(layer.commit().ok());
    layer.discard_staged();
  }
  EXPECT_EQ(layer.version(), ver0 + 2);
  EXPECT_NE(layer.size(), size0);

  EXPECT_EQ(snap->version(), ver0);
  EXPECT_EQ(snap->size(), size0);
  const auto stab1 = snap->stab_batch(qs);
  ASSERT_TRUE(stab1.ok());
  EXPECT_EQ(stab1.items(), stab0.items());
  EXPECT_EQ(stab1.offsets(), stab0.offsets());
  EXPECT_EQ(snap->stab_count_batch(qs), count0);

  parallel::ShardedSnapshot<DynamicIntervalTree> empty;
  EXPECT_EQ(empty, nullptr);
}

// Write only what changed: an epoch whose records all fall in one range
// shard replaces that shard alone — the other shards are the very same
// objects in the old and the new Version. A commit that fails leaves the
// published Version pointer and every snapshot's answers unchanged.
TEST(ShardedSnapshot, CommitCopiesOnlyTouchedShards) {
  Sharded<DynamicIntervalTree> layer(Routing::kRange, 4, 4);
  ASSERT_TRUE(
      layer.bulk_insert(make_intervals(1024, 13, 0.0, 1.0, 0.01, 0)).ok());
  const std::vector<double> splits = layer.splits();
  ASSERT_EQ(splits.size(), 3u);
  std::vector<double> qs(64);
  primitives::Rng rng(41);
  for (double& q : qs) q = rng.next_double();

  constexpr size_t kTarget = 2;  // owns [splits[1], splits[2])
  auto in_target = [&](uint32_t id0) {
    std::vector<Interval> ivs;
    for (uint32_t i = 0; i < 16; ++i) {
      double l = splits[1] + (splits[2] - splits[1]) * (i + 0.5) / 16;
      ivs.push_back(Interval{l, l + 0.001, id0 + i});
    }
    return ivs;
  };
  auto old = layer.snapshot();
  for (const Interval& iv : in_target(5000)) {
    ASSERT_EQ(layer.shard_of(iv), kTarget);
    layer.stage_insert(iv);
  }
  ASSERT_TRUE(layer.commit().ok());
  auto now = layer.snapshot();
  ASSERT_EQ(now->version(), old->version() + 1);
  for (size_t s = 0; s < 4; ++s) {
    if (s == kTarget) {
      EXPECT_NE(&old->shard(s), &now->shard(s));
      EXPECT_EQ(now->shard(s).size(), old->shard(s).size() + 16);
    } else {
      EXPECT_EQ(&old->shard(s), &now->shard(s)) << "shard " << s;
    }
  }

  const auto old_stab = old->stab_batch(qs);
  const auto now_stab = now->stab_batch(qs);
  {
    fault::ScopedFault fail("shard_apply", 0, kTarget);
    for (const Interval& iv : in_target(6000)) layer.stage_insert(iv);
    EXPECT_FALSE(layer.commit().ok());
  }
  EXPECT_EQ(layer.snapshot(), now);  // the same published Version object
  EXPECT_EQ(layer.stab_batch(qs).items(), now_stab.items());
  EXPECT_EQ(now->stab_batch(qs).items(), now_stab.items());
  EXPECT_EQ(old->stab_batch(qs).items(), old_stab.items());
  EXPECT_EQ(old->stab_batch(qs).offsets(), old_stab.offsets());
  layer.discard_staged();
}

// One writer, one concurrent reader on a bare Sharded: the reader loops
// snapshot() + stab_batch while the main thread commits 16 epochs, and
// every reply equals the brute-force stab over the live set of the
// version it reports. The writer waits for a fresh read after each commit
// so reads and commits interleave.
TEST(ShardedSnapshot, ConcurrentReaderSeesWholeVersions) {
  constexpr int kEpochs = 16;
  Sharded<DynamicIntervalTree> layer(Routing::kRange, 4, 4);
  const auto base = make_intervals(512, 14, 0.0, 1.0, 0.05, 0);
  ASSERT_TRUE(layer.bulk_insert(base).ok());

  // The live set of every version, fixed before the reader starts.
  std::vector<std::vector<Interval>> ins(kEpochs), ers(kEpochs);
  std::vector<std::vector<Interval>> live_at(kEpochs + 2);
  live_at[1] = base;
  for (int e = 0; e < kEpochs; ++e) {
    ins[e] = make_intervals(24, 100 + e, 0.0, 1.0, 0.05, 10000 + 100 * e);
    for (int j = 0; j < 8; ++j) ers[e].push_back(base[8 * e + j]);
    std::vector<Interval> live = live_at[e + 1];
    live.insert(live.end(), ins[e].begin(), ins[e].end());
    for (const Interval& iv : ers[e]) {
      live.erase(std::remove(live.begin(), live.end(), iv), live.end());
    }
    live_at[e + 2] = std::move(live);
  }

  std::vector<double> qs(32);
  primitives::Rng rng(42);
  for (double& q : qs) q = rng.next_double();
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  size_t mismatches = 0, bad_versions = 0;
  std::thread reader([&] {
    do {
      auto snap = layer.snapshot();
      uint64_t v = snap->version();
      auto r = snap->stab_batch(qs);
      if (!r.ok() || v >= live_at.size() || v == 0) {
        ++bad_versions;
      } else {
        for (size_t i = 0; i < qs.size(); ++i) {
          std::vector<uint32_t> got = r.result(i);
          std::sort(got.begin(), got.end());
          if (got != brute_stab(live_at[v], qs[i])) ++mismatches;
        }
      }
      reads.fetch_add(1, std::memory_order_release);
    } while (!done.load(std::memory_order_acquire));
  });
  for (int e = 0; e < kEpochs; ++e) {
    for (const Interval& iv : ins[e]) layer.stage_insert(iv);
    for (const Interval& iv : ers[e]) layer.stage_erase(iv);
    uint64_t seen = reads.load(std::memory_order_acquire);
    auto v = layer.commit();
    ASSERT_TRUE(v.ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), uint64_t(e + 2));
    while (reads.load(std::memory_order_acquire) < seen + 2) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_versions, 0u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(reads.load(), uint64_t(2 * kEpochs));
  EXPECT_EQ(layer.size(), live_at.back().size());
}

}  // namespace
}  // namespace weg
