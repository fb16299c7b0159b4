// End-to-end benchmark of the weg library. One process runs one workload:
//
//   serve-stab-mix  open loop at a fixed rate against
//                   serve::Engine<augtree::DynamicIntervalTree>, then a
//                   saturated closed loop for its capacity and a bisection
//                   for the highest rate meeting fixed p99 limits;
//   batch-knn       one closed-loop client issuing 4096-probe k=8 batches to
//                   parallel::Sharded<kdtree::LogForest<2>>::knn_batch;
//   build-paper     the paper's write-efficient builds, serially by call.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--brief 1]
//
// Untraced runs print every end-to-end metric. Traced runs (--trace 1) run
// the workload once untraced and once traced, then its layer probes, and
// print its per-layer metrics plus the tracing overhead; --brief 1 keeps
// only one short traced pass. perfbench/run.py merges the layers of all
// three workloads into one traced result, each measured in a process
// pinned to its own workload's thread budget. Spans are kept in
// memory and written to .bench_out/trace-<workload>-<seed>.json at the end. The
// last stdout line is the result object; every output check runs outside
// the timed regions and a failed one exits non-zero. perfbench/README.md
// maps each metric to its layer.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/asym/counters.h"
#include "src/augtree/interval_tree.h"
#include "src/augtree/range_tree.h"
#include "src/delaunay/delaunay.h"
#include "src/kdtree/dynamic.h"
#include "src/kdtree/pbatched.h"
#include "src/parallel/parallel_for.h"
#include "src/parallel/scheduler.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/primitives/semisort.h"
#include "src/primitives/sequence.h"
#include "src/serve/engine.h"

namespace {

using namespace perfbench;
using weg::Expected;
using weg::augtree::AlphaRangeTree;
using weg::augtree::DynamicIntervalTree;
using weg::augtree::Interval;
using weg::augtree::PPoint;
using weg::augtree::StaticIntervalTree;
using weg::geom::Point2;
using weg::parallel::Routing;
using weg::parallel::Sharded;
using weg::primitives::Rng;
using Forest = weg::kdtree::LogForest<2>;
using IEngine = weg::serve::Engine<DynamicIntervalTree>;

// --- workload parameters (README.md lists the same values) -------------

constexpr size_t kServeIndexN = size_t{1} << 16;
constexpr double kServeMaxLen = 0.001;
constexpr double kServeRate = 8000;  // req/s, the fixed-rate phase
constexpr size_t kServeFanout = 4;
constexpr uint64_t kServeAlpha = 4;
constexpr size_t kUpdateEvery = 4;  // one request in four is an update
// max_rate_rps limits and search range: see README.md for how they were
// derived from the fixed-rate phase.
constexpr Limits kLimits{25.0, 250.0};
constexpr double kSearchLo = 4000, kSearchHi = 64000;
constexpr int kSearchSteps = 5;
// Shares of a run spent at the fixed rate and in the saturated phase; the
// search steps share the rest. Most of the run goes to the fixed rate so
// that its p50 averages over the host's load swings.
constexpr double kServeFixedShare = 0.6;
constexpr double kServeSaturateShare = 0.2;
// Saturated phase: requests kept outstanding (a quarter of them updates,
// so always several full epochs queued, and below queue_capacity so
// nothing is rejected), and the share of the phase left out as ramp-up.
constexpr size_t kServeWindow = 2048;
constexpr double kServeRampShare = 0.2;
constexpr size_t kServeProbes = 512;  // post-stop brute-force stab probes

constexpr size_t kKnnIndexN = size_t{1} << 20;
constexpr size_t kKnnClusters = 16;
constexpr double kKnnSigma = 0.01;
constexpr size_t kKnnBatch = 4096;
constexpr size_t kKnnK = 8;
constexpr size_t kKnnFanout = 4;
constexpr size_t kKnnCheckPerBatch = 16;

constexpr size_t kDelaunayN = size_t{1} << 17;
constexpr size_t kKdN = size_t{1} << 20;
constexpr size_t kIntervalN = size_t{1} << 20;
constexpr size_t kRangeN = size_t{1} << 19;
constexpr uint64_t kRangeAlpha = 8;
constexpr size_t kMeshCheckPoints = 48;

constexpr int kSetupReps = 3;
constexpr double kHardCapSeconds = 150;  // stays inside the 180 s limit

// Independent deterministic streams per purpose, all from --seed.
uint64_t stream_seed(uint64_t seed, uint64_t purpose) {
  return weg::primitives::hash64(seed * 0x9e3779b97f4a7c15ULL + purpose);
}

double secs_since(int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }
double ms_since(int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

// --- run context --------------------------------------------------------

struct Ctx {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool brief = false;  // with trace: one short traced pass, no overhead
  std::string workload;
  Tracer tracer;
  double warmup_ms = 0;
  bool ok = true;

  void fail(const std::string& what) {
    ok = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

// Result of one workload pass.
struct Pass {
  Metrics e2e;
  Metrics layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// --- scheduler ---------------------------------------------------------

// ~3 us of dependent integer work (calibrated on a 4-core x86-64 VM).
uint64_t spin_task(uint64_t x) {
  for (int i = 0; i < 1500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

constexpr size_t kPforTasks = 16384;

// Keeps the spin work observable to the optimizer.
volatile uint64_t g_sink = 0;

double pfor_ms() {
  std::vector<uint64_t> out(kPforTasks);
  int64_t t0 = now_ns();
  weg::parallel::parallel_for(
      0, kPforTasks, [&](size_t i) { out[i] = spin_task(i); }, 1);
  double ms = ms_since(t0);
  g_sink = std::accumulate(out.begin(), out.end(), uint64_t{0});
  return ms;
}

double serial_pfor_ms() {
  uint64_t acc = 0;
  int64_t t0 = now_ns();
  for (size_t i = 0; i < kPforTasks; ++i) acc += spin_task(i);
  double ms = ms_since(t0);
  g_sink = acc;
  return ms;
}

// Lets the scheduler's lazy start-up finish before anything is timed: run
// the grain-1 parallel_for until it beats the serial loop by the margin p
// workers should give (or 3 s pass), so a cold-start stall lands here, in
// setup_s, instead of in a measured region. Returns the wall time spent.
double scheduler_warmup() {
  int64_t t0 = now_ns();
  int p = weg::parallel::num_workers();
  double serial = serial_pfor_ms();
  double target = serial * (0.5 + 0.5 / std::max(1, p));
  int reps = 0;
  double t = 0;
  for (;;) {
    t = pfor_ms();
    ++reps;
    if (p == 1 || (reps >= 2 && t <= target) || secs_since(t0) > 3.0) break;
  }
  std::cerr << "scheduler: " << p << " workers, serial " << serial
            << " ms, warm parallel_for " << t << " ms after " << reps
            << " repetitions\n";
  return ms_since(t0);
}

void fork_join(int depth) {
  if (depth == 0) return;
  weg::parallel::par_do([&] { fork_join(depth - 1); },
                        [&] { fork_join(depth - 1); });
}

void scheduler_layers(Ctx& ctx, Metrics& m) {
  std::vector<double> pf, fj;
  for (int r = 0; r < 5; ++r) {
    ScopedSpan s(ctx.tracer, "scheduler.pfor");
    pf.push_back(pfor_ms());
  }
  constexpr int kDepth = 14;
  for (int r = 0; r < 9; ++r) {
    ScopedSpan s(ctx.tracer, "scheduler.fork_join");
    int64_t t0 = now_ns();
    fork_join(kDepth);
    fj.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>((size_t{1} << kDepth) - 1));
  }
  m["scheduler.warmup_ms"] = {ctx.warmup_ms, "ms"};
  m["scheduler.pfor_ms"] = {median(pf), "ms"};
  m["scheduler.fork_join_ns"] = {median(fj), "ns"};
}

// --- generators --------------------------------------------------------

std::vector<Interval> uniform_intervals(size_t n, double max_len, Rng& rng,
                                        uint32_t first_id) {
  std::vector<Interval> out(n);
  for (size_t i = 0; i < n; ++i) {
    double l = rng.next_double();
    out[i] = Interval{l, l + rng.next_double() * max_len,
                      first_id + static_cast<uint32_t>(i)};
  }
  return out;
}

std::vector<Point2> uniform_points(size_t n, Rng& rng) {
  std::vector<Point2> out(n);
  for (auto& p : out) {
    p[0] = rng.next_double();
    p[1] = rng.next_double();
  }
  return out;
}

double gaussian(Rng& rng) {
  double u = 1.0 - rng.next_double();  // (0, 1]
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(6.283185307179586 * rng.next_double());
}

// Sixteen clusters on a jittered 4x4 grid: the seed moves every center and
// every point, while the layout (and so the work per probe) keeps one shape.
struct Clusters {
  std::vector<Point2> centers;
  explicit Clusters(Rng& rng) : centers(kKnnClusters) {
    for (size_t i = 0; i < centers.size(); ++i) {
      centers[i][0] = (0.5 + static_cast<double>(i % 4)) / 4 +
                      0.05 * (rng.next_double() - 0.5);
      centers[i][1] = (0.5 + static_cast<double>(i / 4)) / 4 +
                      0.05 * (rng.next_double() - 0.5);
    }
  }
  Point2 draw(Rng& rng) const {
    const Point2& c = centers[rng.next_bounded(centers.size())];
    Point2 p;
    p[0] = c[0] + kKnnSigma * gaussian(rng);
    p[1] = c[1] + kKnnSigma * gaussian(rng);
    return p;
  }
};

// --- output checks -----------------------------------------------------

// Exact k nearest points by a sweep over an x-sorted copy of the point set,
// in the canonical (distance^2, coordinates) order the sharded merge
// produces: scan outward from the probe's x and stop on each side once the
// x gap alone exceeds the current k-th distance. Shares no code with the
// structures under test.
class KnnOracle {
 public:
  explicit KnnOracle(std::vector<Point2> pts) : pts_(std::move(pts)) {
    std::sort(pts_.begin(), pts_.end(),
              [](const Point2& a, const Point2& b) { return a[0] < b[0]; });
  }

  std::vector<Point2> knn(const Point2& q, size_t k) const {
    using Cand = std::pair<double, Point2>;
    auto less = [](const Cand& a, const Cand& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second.coords < b.second.coords;
    };
    std::vector<Cand> best;
    auto worst = [&] {
      return best.size() < k ? std::numeric_limits<double>::infinity()
                             : best.front().first;
    };
    auto offer = [&](const Point2& p) {
      Cand c{weg::geom::squared_distance(p, q), p};
      if (best.size() < k) {
        best.push_back(c);
        std::push_heap(best.begin(), best.end(), less);
      } else if (less(c, best.front())) {
        std::pop_heap(best.begin(), best.end(), less);
        best.back() = c;
        std::push_heap(best.begin(), best.end(), less);
      }
    };
    auto mid = std::lower_bound(
        pts_.begin(), pts_.end(), q[0],
        [](const Point2& p, double x) { return p[0] < x; });
    for (auto it = mid; it != pts_.end(); ++it) {
      double dx = (*it)[0] - q[0];
      if (dx * dx > worst()) break;
      offer(*it);
    }
    for (auto it = mid; it != pts_.begin();) {
      --it;
      double dx = q[0] - (*it)[0];
      if (dx * dx > worst()) break;
      offer(*it);
    }
    std::sort_heap(best.begin(), best.end(), less);
    std::vector<Point2> out;
    for (auto& c : best) out.push_back(c.second);
    return out;
  }

 private:
  std::vector<Point2> pts_;
};

// ===================================================================== //
// serve-stab-mix                                                         //
// ===================================================================== //

struct ServeRig {
  std::unique_ptr<IEngine> eng;
  std::vector<Interval> initial;
  std::deque<Interval> committed;  // erase targets, oldest commit first
  std::unordered_map<uint32_t, Interval> live;
  uint32_t next_id = 0;
  Rng stream{0};  // request stream
  uint64_t next_req = 0;
  uint64_t updates_issued = 0;
};

// CPU placement of the open loop: the generator thread gets the last CPU of
// the process's affinity set to itself and sleeps there; everything it
// spawns (engine threads) is created while it is confined to the other
// CPUs. On a shared 4-vCPU VM a timed wait woken on a CPU that a busy
// thread held waited for that thread's time slice: in a probe with two busy
// threads the sleeper's p99 lateness was 4.4 ms, and 0.15 ms once it had a
// CPU of its own.
struct CpuSplit {
  cpu_set_t all, gen, rest;
  int gen_cpu = -1;

  CpuSplit() {
    CPU_ZERO(&all);
    CPU_ZERO(&gen);
    CPU_ZERO(&rest);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) gen_cpu = c;
    }
    rest = all;
    CPU_CLR(gen_cpu, &rest);
    CPU_SET(gen_cpu, &gen);
  }
  bool active() const { return gen_cpu >= 0; }
  static void apply(const cpu_set_t& s) { sched_setaffinity(0, sizeof s, &s); }
};

// Builds, loads and starts one engine; returns seconds spent.
double serve_setup(Ctx& ctx, ServeRig& rig) {
  rig.eng.reset();  // stops and frees the previous repetition's engine
  int64_t t0 = now_ns();
  Rng rng(stream_seed(ctx.seed, 1));
  rig.initial = uniform_intervals(kServeIndexN, kServeMaxLen, rng, 0);
  rig.eng = std::make_unique<IEngine>(weg::serve::Config{}, Routing::kRange,
                                      kServeFanout, kServeAlpha);
  if (weg::Status s = rig.eng->bulk_load(rig.initial); !s.ok()) {
    ctx.fail("serve bulk_load: " + s.to_string());
  }
  rig.eng->start();
  double secs = secs_since(t0);
  rig.committed.assign(rig.initial.begin(), rig.initial.end());
  rig.live.clear();
  for (const Interval& iv : rig.initial) rig.live.emplace(iv.id, iv);
  rig.next_id = static_cast<uint32_t>(kServeIndexN);
  rig.stream = Rng(stream_seed(ctx.seed, 2));
  rig.next_req = 0;
  rig.updates_issued = 0;
  return secs;
}

struct Phase {
  StepResult step;
  std::vector<double> late_ms;
  weg::serve::Stats before, after;
  double wall_s = 0;
  double completed_per_s = 0;  // saturated phase: completions past ramp-up
  // Resident set and live heap, sampled at 10 Hz (saturated phase: past
  // ramp-up only).
  std::vector<double> rss_mb, heap_mb;
};

// One open-loop phase at `rate` for `seconds`: request i is due at
// t0 + i / rate and is timed from its due time to the moment its future is
// seen ready. The generator sleeps in future::wait_until on the oldest
// outstanding query (or, with none, update) until the next due time, so it
// never spins and sees completions with futex wake-up precision.
//
// With `window` > 0 the loop is closed instead: `rate` is ignored, a request
// is submitted as soon as fewer than `window` are outstanding and timed from
// its submission, and the phase reports the requests completed per second
// after the first kServeRampShare of it: the engine's capacity.
Phase open_loop(Ctx& ctx, ServeRig& rig, double rate, double seconds,
                size_t window = 0) {
  using QFut = std::future<Expected<IEngine::QueryReply>>;
  using UFut = std::future<Expected<uint64_t>>;
  struct PQ {
    uint64_t id;
    int64_t due, sub0, sub1;
    QFut fut;
  };
  struct PU {
    uint64_t id;
    int64_t due, sub0, sub1;
    bool insert;
    Interval rec;
    UFut fut;
  };
  Phase ph;
  ph.before = rig.eng->stats();
  std::deque<PQ> pq;
  std::deque<PU> pu;
  Tracer& tr = ctx.tracer;

  auto span_request = [&](const char* name, uint64_t id, int64_t due,
                          int64_t sub0, int64_t sub1, int64_t done) {
    if (!tr.enabled()) return;
    int64_t root = tr.add(name, id, -1, due, done);
    tr.add("serve.gen_late", id, root, due, sub0);
    tr.add("serve.submit", id, root, sub0, sub1);
  };
  auto finish_query = [&](PQ& r, int64_t t) {
    Expected<IEngine::QueryReply> rep = r.fut.get();
    if (!rep.ok()) {
      ++ph.step.failed;
      return;
    }
    ph.step.query_ms.push_back(ns_to_ms(static_cast<double>(t - r.due)));
    span_request("serve.query", r.id, r.due, r.sub0, r.sub1, t);
  };
  auto finish_update = [&](PU& r, int64_t t) {
    Expected<uint64_t> v = r.fut.get();
    if (!v.ok()) {
      ++ph.step.failed;
      if (!r.insert) rig.committed.push_front(r.rec);  // still live
      return;
    }
    ph.step.update_ms.push_back(ns_to_ms(static_cast<double>(t - r.due)));
    span_request("serve.update", r.id, r.due, r.sub0, r.sub1, t);
    if (r.insert) {
      rig.committed.push_back(r.rec);
      rig.live.emplace(r.rec.id, r.rec);
    } else {
      rig.live.erase(r.rec.id);
    }
  };
  auto ready = [](auto& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  auto harvest = [&] {
    while (!pq.empty() && ready(pq.front().fut)) {
      finish_query(pq.front(), now_ns());
      pq.pop_front();
    }
    while (!pu.empty() && ready(pu.front().fut)) {
      finish_update(pu.front(), now_ns());
      pu.pop_front();
    }
  };
  // Waits until `deadline` (ns) while recording completions.
  auto wait_until = [&](int64_t deadline) {
    for (;;) {
      harvest();
      int64_t now = now_ns();
      if (now >= deadline) return;
      auto tp = Clock::time_point(std::chrono::nanoseconds(deadline));
      if (!pq.empty()) {
        pq.front().fut.wait_until(tp);
      } else if (!pu.empty()) {
        pu.front().fut.wait_until(tp);
      } else {
        std::this_thread::sleep_until(tp);
      }
    }
  };

  auto completed = [&] {
    return ph.step.query_ms.size() + ph.step.update_ms.size() +
           ph.step.failed;
  };
  // Closed loop: waits on the oldest outstanding request until fewer than
  // `window` are outstanding.
  auto wait_for_room = [&] {
    for (;;) {
      harvest();
      if (pq.size() + pu.size() < window) return;
      if (pu.empty() || (!pq.empty() && pq.front().id < pu.front().id)) {
        pq.front().fut.wait();
      } else {
        pu.front().fut.wait();
      }
    }
  };

  size_t n = window > 0
                 ? SIZE_MAX
                 : std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  double period_ns = window > 0 ? 0 : 1e9 / rate;
  int64_t t0 = now_ns() + 1'000'000;
  int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t t_ramp = t0 + static_cast<int64_t>(seconds * kServeRampShare * 1e9);
  int64_t next_sample = t0;
  int64_t ramp_at = -1;
  size_t ramp_done = 0;
  size_t n3 = 0, n4 = 0;  // requests in the third and fourth quarters
  for (size_t i = 0; i < n; ++i) {
    int64_t due;
    if (window > 0) {
      if (i == 0) wait_until(t0);
      wait_for_room();
      due = now_ns();
      if (ramp_at < 0 && due >= t_ramp) {
        ramp_at = due;
        ramp_done = completed();
      }
      if (due >= t_end) {
        ph.completed_per_s = static_cast<double>(completed() - ramp_done) /
                             (static_cast<double>(due - ramp_at) / 1e9);
        break;
      }
    } else {
      due = t0 + static_cast<int64_t>(static_cast<double>(i) * period_ns);
      wait_until(due);
      double outstanding = static_cast<double>(pq.size() + pu.size());
      if (4 * i >= 3 * n) {
        ph.step.backlog_q4 += outstanding;
        ++n4;
      } else if (2 * i >= n) {
        ph.step.backlog_q3 += outstanding;
        ++n3;
      }
    }
    uint64_t id = rig.next_req++;
    int64_t sub0 = now_ns();
    ph.late_ms.push_back(ns_to_ms(static_cast<double>(sub0 - due)));
    if (id % kUpdateEvery != kUpdateEvery - 1) {
      double q = rig.stream.next_double();
      QFut f = rig.eng->submit_query(q);
      pq.push_back(PQ{id, due, sub0, now_ns(), std::move(f)});
    } else {
      bool insert = rig.updates_issued++ % 2 == 0 || rig.committed.empty();
      Interval rec;
      if (insert) {
        double l = rig.stream.next_double();
        rec = Interval{l, l + rig.stream.next_double() * kServeMaxLen,
                       rig.next_id++};
      } else {
        rec = rig.committed.front();
        rig.committed.pop_front();
      }
      UFut f = insert ? rig.eng->submit_insert(rec) : rig.eng->submit_erase(rec);
      pu.push_back(PU{id, due, sub0, now_ns(), insert, rec, std::move(f)});
    }
    ++ph.step.attempted;
    // After the submit, in the time the generator would sleep anyway.
    int64_t t = now_ns();
    if ((window == 0 || ramp_at >= 0) && t >= next_sample) {
      next_sample = t + 100'000'000;
      ph.rss_mb.push_back(current_rss_mb());
      ph.heap_mb.push_back(live_heap_mb());
    }
  }
  if (ph.heap_mb.empty()) {  // a phase too short for the sampling period
    ph.rss_mb.push_back(current_rss_mb());
    ph.heap_mb.push_back(live_heap_mb());
  }
  ph.step.backlog_q3 /= static_cast<double>(std::max<size_t>(1, n3));
  ph.step.backlog_q4 /= static_cast<double>(std::max<size_t>(1, n4));
  // Drain: block on the oldest outstanding future; the rest of its batch or
  // epoch completes with it.
  while (!pq.empty() || !pu.empty()) {
    harvest();
    if (!pq.empty()) {
      pq.front().fut.wait();
    } else if (!pu.empty()) {
      pu.front().fut.wait();
    }
  }
  ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  ph.after = rig.eng->stats();
  if (ph.step.query_ms.size() + ph.step.update_ms.size() + ph.step.failed !=
      ph.step.attempted) {
    ctx.fail("serve: completed plus failed != attempted");
  }
  return ph;
}

// Stops the engine and compares a fixed probe set against a brute-force stab
// over the live set the benchmark tracked.
void serve_check(Ctx& ctx, ServeRig& rig) {
  rig.eng->stop();
  Rng rng(stream_seed(ctx.seed, 3));
  std::vector<double> probes(kServeProbes);
  for (double& q : probes) q = rng.next_double();
  auto snap = rig.eng->snapshot();
  auto res = snap->stab_batch(probes);
  if (!res.ok()) {
    ctx.fail("serve probe batch: " + res.status().to_string());
    return;
  }
  if (rig.eng->size() != rig.live.size()) {
    ctx.fail("serve live-set size " + std::to_string(rig.eng->size()) +
             " != tracked " + std::to_string(rig.live.size()));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<uint32_t> want;
    for (const auto& [id, iv] : rig.live) {
      if (iv.contains(probes[i])) want.push_back(id);
    }
    std::sort(want.begin(), want.end());
    std::vector<uint32_t> got = res.result(i);
    std::sort(got.begin(), got.end());
    if (got != want) {
      ctx.fail("serve stab probe " + std::to_string(i) + " mismatch");
      return;
    }
  }
}

void engine_layers(const Phase& ph, Metrics& m) {
  const auto& a = ph.before;
  const auto& b = ph.after;
  double batches = static_cast<double>(b.query_batches - a.query_batches);
  double queries = static_cast<double>(b.queries_admitted - a.queries_admitted);
  double flushes = static_cast<double>(
      (b.size_flushes - a.size_flushes) +
      (b.deadline_flushes - a.deadline_flushes) +
      (b.drain_flushes - a.drain_flushes));
  double epochs = static_cast<double>(b.epochs_committed - a.epochs_committed);
  double updates = static_cast<double>(b.updates_admitted - a.updates_admitted);
  double overlap = static_cast<double>(b.overlap_batches - a.overlap_batches);
  m["serve.query_batch_mean"] = {batches > 0 ? queries / batches : 0, "count"};
  m["serve.deadline_flush_frac"] = {
      flushes > 0
          ? static_cast<double>(b.deadline_flushes - a.deadline_flushes) /
                flushes
          : 0,
      "frac"};
  m["serve.epoch_mean"] = {epochs > 0 ? updates / epochs : 0, "count"};
  m["serve.epochs_per_s"] = {epochs / ph.wall_s, "1/s"};
  m["serve.overlap_ratio"] = {batches > 0 ? overlap / batches : 0, "frac"};
  m["serve.admission_rejects"] = {
      static_cast<double>((b.queries_rejected - a.queries_rejected) +
                          (b.updates_rejected - a.updates_rejected)),
      "count"};
  std::vector<double> late = ph.late_ms;
  m["serve.gen_late_ms"] = {percentile(late, 0.99), "ms"};
}

// Replays the request stream on a standalone Sharded layer at the batch and
// epoch sizes the engine pass observed, then probes one shard-sized tree.
void sharded_interval_layers(Ctx& ctx, size_t batch, size_t epoch,
                             Metrics& m) {
  Tracer& tr = ctx.tracer;
  batch = std::max<size_t>(1, batch);
  epoch = std::max<size_t>(2, epoch);
  Rng rng(stream_seed(ctx.seed, 1));
  std::vector<Interval> initial =
      uniform_intervals(kServeIndexN, kServeMaxLen, rng, 0);
  Sharded<DynamicIntervalTree> layer(Routing::kRange, kServeFanout,
                                     kServeAlpha);
  if (!layer.bulk_insert(initial).ok()) ctx.fail("replay bulk_insert");
  Rng stream(stream_seed(ctx.seed, 2));
  std::deque<Interval> oldest(initial.begin(), initial.end());
  uint32_t next_id = static_cast<uint32_t>(kServeIndexN);
  std::vector<double> stab_ms, commit_ms, commit_r, commit_w;
  uint64_t q0 = layer.planner_queries(), v0 = layer.planner_shard_visits();
  size_t batches_per_epoch =
      std::clamp<size_t>((kUpdateEvery - 1) * epoch / batch, 1, 8);
  for (int round = 0; round < 12; ++round) {
    for (size_t u = 0; u < epoch; ++u) {
      if (u % 2 == 0) {
        double l = stream.next_double();
        layer.stage_insert(Interval{
            l, l + stream.next_double() * kServeMaxLen, next_id++});
      } else {
        layer.stage_erase(oldest.front());
        oldest.pop_front();
      }
    }
    {
      ScopedSpan s(tr, "sharded.commit");
      weg::asym::Region reg;
      int64_t t0 = now_ns();
      Expected<uint64_t> v = layer.commit();
      commit_ms.push_back(ms_since(t0));
      auto d = reg.delta();
      commit_r.push_back(static_cast<double>(d.reads));
      commit_w.push_back(static_cast<double>(d.writes));
      if (!v.ok()) ctx.fail("replay commit: " + v.status().to_string());
    }
    for (size_t b = 0; b < batches_per_epoch; ++b) {
      std::vector<double> qs(batch);
      for (double& q : qs) q = stream.next_double();
      ScopedSpan s(tr, "sharded.stab_batch");
      int64_t t0 = now_ns();
      auto res = layer.stab_batch(qs);
      stab_ms.push_back(ms_since(t0));
      if (!res.ok()) ctx.fail("replay stab_batch");
    }
  }
  double pq = static_cast<double>(layer.planner_queries() - q0);
  double pv = static_cast<double>(layer.planner_shard_visits() - v0);
  m["sharded.stab_batch_ms"] = {median(stab_ms), "ms"};
  m["sharded.stab_shards_per_query"] = {pq > 0 ? pv / pq : 0, "count"};
  m["sharded.commit_ms"] = {median(commit_ms), "ms"};
  m["sharded.commit_reads"] = {median(commit_r), "count"};
  m["sharded.commit_writes"] = {median(commit_w), "count"};

  // One shard-sized tree: shard 0 of the replayed layer.
  const DynamicIntervalTree& shard = layer.shard(0);
  double hi = layer.splits().empty() ? 1.0 : layer.splits()[0];
  std::vector<double> qs(batch);
  for (double& q : qs) q = stream.next_double() * hi;
  std::vector<double> clone_ms, sb_ms, cnt_ms, loop_ms, ins_ms, ers_ms, ins_w;
  size_t per_shard = std::max<size_t>(1, epoch / kServeFanout / 2);
  std::vector<Interval> shard_live = shard.live_records();
  for (int r = 0; r < 7; ++r) {
    int64_t t0 = now_ns();
    DynamicIntervalTree copy = [&] {
      ScopedSpan s(tr, "augtree.clone");
      return shard;
    }();
    clone_ms.push_back(ms_since(t0));
    {
      ScopedSpan s(tr, "augtree.stab_batch");
      t0 = now_ns();
      auto res = copy.stab_batch(qs);
      sb_ms.push_back(ms_since(t0));
      if (!res.ok()) ctx.fail("augtree stab_batch");
    }
    {
      ScopedSpan s(tr, "augtree.stab_count_batch");
      t0 = now_ns();
      auto c = copy.stab_count_batch(qs);
      cnt_ms.push_back(ms_since(t0));
      if (c.size() != qs.size()) ctx.fail("augtree stab_count_batch size");
    }
    {
      ScopedSpan s(tr, "augtree.stab_loop");
      t0 = now_ns();
      size_t total = 0;
      for (double q : qs) total += copy.stab(q).size();
      loop_ms.push_back(ms_since(t0));
      g_sink = total;
    }
    std::vector<Interval> ins(per_shard);
    for (auto& iv : ins) {
      double l = stream.next_double() * hi;
      iv = Interval{l, l + stream.next_double() * kServeMaxLen, next_id++};
    }
    std::vector<Interval> ers(shard_live.begin() + static_cast<long>(r * per_shard),
                              shard_live.begin() +
                                  static_cast<long>((r + 1) * per_shard));
    {
      ScopedSpan s(tr, "augtree.bulk_insert");
      weg::asym::Region reg;
      t0 = now_ns();
      weg::Status st = copy.bulk_insert(ins);
      ins_ms.push_back(ms_since(t0));
      ins_w.push_back(static_cast<double>(reg.delta().writes));
      if (!st.ok()) ctx.fail("augtree bulk_insert: " + st.to_string());
    }
    {
      ScopedSpan s(tr, "augtree.bulk_erase");
      t0 = now_ns();
      Expected<size_t> e = copy.bulk_erase(ers);
      ers_ms.push_back(ms_since(t0));
      if (!e.ok() || e.value() != ers.size()) ctx.fail("augtree bulk_erase");
    }
    if (!copy.validate()) ctx.fail("augtree validate after epoch");
  }
  m["augtree.clone_ms"] = {median(clone_ms), "ms"};
  m["augtree.stab_batch_ms"] = {median(sb_ms), "ms"};
  m["augtree.stab_count_pass_ms"] = {median(cnt_ms), "ms"};
  m["augtree.stab_loop_ms"] = {median(loop_ms), "ms"};
  m["augtree.bulk_insert_ms"] = {median(ins_ms), "ms"};
  m["augtree.bulk_erase_ms"] = {median(ers_ms), "ms"};
  m["augtree.bulk_insert_writes"] = {median(ins_w), "count"};

  // primitives.scan_ms: the exclusive scan both batch passes sit on.
  std::vector<double> scan_ms;
  std::vector<size_t> a(size_t{1} << 20);
  for (int r = 0; r < 9; ++r) {
    for (size_t i = 0; i < a.size(); ++i) a[i] = i & 7;
    ScopedSpan s(tr, "primitives.scan_exclusive");
    int64_t t0 = now_ns();
    size_t total = weg::primitives::scan_exclusive(a);
    scan_ms.push_back(ms_since(t0));
    if (total != a.size() / 8 * 28) ctx.fail("scan total");
  }
  m["primitives.scan_ms"] = {median(scan_ms), "ms"};
}

Pass serve_workload(Ctx& ctx, double seconds, bool search) {
  Pass out;
  int64_t t_setup = now_ns();
  std::vector<double> setups;
  ServeRig rig;
  CpuSplit cpus;
  if (cpus.active()) CpuSplit::apply(cpus.rest);
  for (int r = 0; r < (search ? kSetupReps : 1); ++r) {
    setups.push_back(serve_setup(ctx, rig));
  }
  if (cpus.active()) CpuSplit::apply(cpus.gen);
  std::cerr << "serve: setup " << secs_since(t_setup) << " s, generator on cpu "
            << cpus.gen_cpu << "\n";

  weg::asym::Region fixed_cost;
  Phase fixed = open_loop(ctx, rig, kServeRate,
                          search ? seconds * kServeFixedShare : seconds);
  weg::asym::Counts cost = fixed_cost.delta();
  out.attempted = fixed.step.attempted;
  out.failed = fixed.step.failed;
  std::vector<double> q = fixed.step.query_ms, u = fixed.step.update_ms;
  out.e2e["setup_s"] = {ctx.warmup_ms / 1e3 + median(setups), "s"};
  out.e2e["served_frac"] = {
      1.0 - static_cast<double>(fixed.step.failed) /
                static_cast<double>(fixed.step.attempted),
      "frac"};
  double per_req = static_cast<double>(fixed.step.attempted);
  // The headline latency is the update's: the commit path is what this
  // workload exists to load. The query p50 is mostly the engine's 500 us
  // deadline flush plus two timed wake-ups, and on a shared VM those
  // wake-ups slow with host load (0.37 ms at <2 % steal, 0.5-0.63 ms at
  // 5-12 %), too bimodal across runs for a bound; it stays on the detail
  // lines with the p99s.
  out.e2e["latency_p50_ms"] = {percentile(u, 0.5), "ms"};
  // The fixed rate's per-request counts follow its timing-dependent epoch
  // sizes (a faster commit path commits smaller epochs and pays its per-epoch
  // clone more often), so the gated counts come from the saturated phase.
  out.e2e["fixed_asym_reads_per_op"] = {
      static_cast<double>(cost.reads) / per_req, "count"};
  out.e2e["fixed_asym_writes_per_op"] = {
      static_cast<double>(cost.writes) / per_req, "count"};
  out.e2e["query_p50_ms"] = {percentile(q, 0.5), "ms"};
  out.e2e["update_p50_ms"] = {percentile(u, 0.5), "ms"};
  // A p99 is printed only with ten samples beyond it.
  if (reportable(q.size(), 0.99)) {
    out.e2e["query_p99_ms"] = {percentile(q, 0.99), "ms"};
  }
  if (reportable(u.size(), 0.99)) {
    out.e2e["update_p99_ms"] = {percentile(u, 0.99), "ms"};
  }
  std::vector<double> late = fixed.late_ms;
  std::cerr << "serve: fixed " << kServeRate << " req/s, " << q.size()
            << " queries, " << u.size() << " updates, failed "
            << fixed.step.failed << ", generator late p50/p99 "
            << percentile(late, 0.5) << "/" << percentile(late, 0.99)
            << " ms\n";
  engine_layers(fixed, out.layers);
  if (ctx.tracer.enabled()) {
    // Engine-side time of a query: its span minus the generator's lateness
    // and the submit call, i.e. queueing, batching and execution.
    const std::vector<Span>& spans = ctx.tracer.spans();
    std::vector<double> self = self_times(spans), qself;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "serve.query") qself.push_back(self[i] / 1e6);
    }
    out.layers["serve.query_self_ms"] = {median(qself), "ms"};
  }

  serve_check(ctx, rig);
  // Resident memory while serving at the fixed rate, median and peak, on
  // the detail lines. Both follow the allocator's reuse of the chunks that
  // each epoch's shard clones free: across runs of the same code on a
  // 4-vCPU VM the median moved between 197 and 295 MB and the peak between
  // 214 and 373 MB, so the gated figure is the live heap (below). The peak
  // is read before the next engine is loaded next to the memory this one
  // left with the allocator.
  out.e2e["rss_mb"] = {median(fixed.rss_mb), "MB"};
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  if (search) {
    // The saturated phase and the search each start from a freshly loaded
    // engine and the start of the request stream, so every run sees the
    // same index state rather than the previous phase's churn (dead
    // endpoints awaiting compaction slow the commit path by a varying
    // amount).
    if (cpus.active()) CpuSplit::apply(cpus.rest);
    serve_setup(ctx, rig);
    if (cpus.active()) CpuSplit::apply(cpus.gen);
    // Capacity: requests completed per second with kServeWindow kept
    // outstanding. A continuous measure, unlike the search's verdict, which
    // flips between two of its grid rates on a host whose capacity sits
    // between them.
    // Every epoch and query batch there is full (max_batch), so its asym
    // counts per request depend on the code, not on the host's speed.
    weg::asym::Region sat_cost;
    Phase sat = open_loop(ctx, rig, 0, seconds * kServeSaturateShare,
                          kServeWindow);
    weg::asym::Counts sc = sat_cost.delta();
    double sat_req = static_cast<double>(sat.step.attempted);
    out.attempted += sat.step.attempted;
    out.failed += sat.step.failed;
    out.e2e["throughput_per_s"] = {sat.completed_per_s, "1/s"};
    out.e2e["asym_reads_per_op"] = {static_cast<double>(sc.reads) / sat_req,
                                    "count"};
    out.e2e["asym_writes_per_op"] = {
        static_cast<double>(sc.writes) / sat_req, "count"};
    // What the engine holds while it serves at capacity: every epoch and
    // batch full, so the median sample depends on the code, not the host.
    out.e2e["mem_mb"] = {median(sat.heap_mb), "MB"};
    std::cerr << "serve: saturated, window " << kServeWindow << ": "
              << sat.completed_per_s << " req/s, failed " << sat.step.failed
              << "/" << sat.step.attempted << "\n";
    serve_check(ctx, rig);

    if (cpus.active()) CpuSplit::apply(cpus.rest);
    serve_setup(ctx, rig);
    if (cpus.active()) CpuSplit::apply(cpus.gen);
    double step_s = seconds *
                    (1 - kServeFixedShare - kServeSaturateShare) / kSearchSteps;
    double slack = static_cast<double>(weg::serve::Config{}.max_batch);
    double best = search_max_rate(kSearchLo, kSearchHi, kSearchSteps,
                                  [&](double rate) {
      Phase p = open_loop(ctx, rig, rate, step_s);
      bool pass = step_meets(p.step, kLimits, slack);
      std::vector<double> sq = p.step.query_ms, su = p.step.update_ms;
      std::cerr << "serve: search " << rate << " req/s: failed "
                << p.step.failed << "/" << p.step.attempted << ", q99 "
                << percentile(sq, 0.99) << " ms, u99 "
                << percentile(su, 0.99) << " ms, backlog "
                << p.step.backlog_q3 << "->" << p.step.backlog_q4
                << (pass ? "  pass" : "  FAIL") << "\n";
      return pass;
    });
    out.e2e["max_rate_rps"] = {best, "1/s"};
    serve_check(ctx, rig);
  }
  if (cpus.active()) CpuSplit::apply(cpus.all);
  return out;
}

// ===================================================================== //
// batch-knn                                                              //
// ===================================================================== //

struct KnnRig {
  std::vector<Point2> points;
  std::unique_ptr<Sharded<Forest>> index;
};

double knn_setup(Ctx& ctx, KnnRig& rig) {
  int64_t t0 = now_ns();
  Rng rng(stream_seed(ctx.seed, 10));
  Clusters cl(rng);
  rig.points.resize(kKnnIndexN);
  for (Point2& p : rig.points) p = cl.draw(rng);
  rig.index = std::make_unique<Sharded<Forest>>(Routing::kRange, kKnnFanout);
  if (weg::Status s = rig.index->bulk_insert(rig.points); !s.ok()) {
    ctx.fail("knn bulk_insert: " + s.to_string());
  }
  return secs_since(t0);
}

Pass knn_workload(Ctx& ctx, double seconds, bool full) {
  Pass out;
  Tracer& tr = ctx.tracer;
  std::vector<double> setups;
  KnnRig rig;
  for (int r = 0; r < (full ? kSetupReps : 1); ++r) {
    rig.index.reset();
    setups.push_back(knn_setup(ctx, rig));
  }
  std::cerr << "knn: setup median " << median(setups) << " s\n";
  const KnnOracle oracle(rig.points);
  Rng rng(stream_seed(ctx.seed, 10));
  Clusters cl(rng);  // same centers as the index
  Rng probe_rng(stream_seed(ctx.seed, 11));

  std::vector<double> batch_ms, shards_pq;
  weg::asym::Counts cost;
  double busy_s = 0;
  uint64_t queries = 0;
  int64_t t0 = now_ns();
  std::vector<Point2> qs(kKnnBatch);
  while (batch_ms.empty() || secs_since(t0) < seconds) {
    for (Point2& p : qs) p = cl.draw(probe_rng);
    uint64_t pq0 = rig.index->planner_queries();
    uint64_t pv0 = rig.index->planner_shard_visits();
    int64_t root = tr.open("client.batch", batch_ms.size());
    int64_t sp = tr.open("sharded.knn_batch", batch_ms.size());
    weg::asym::Region reg;
    int64_t b0 = now_ns();
    auto res = rig.index->knn_batch(qs, kKnnK);
    int64_t b1 = now_ns();
    cost = cost + reg.delta();
    tr.close(sp);
    double ms = static_cast<double>(b1 - b0) / 1e6;
    batch_ms.push_back(ms);
    busy_s += ms / 1e3;
    queries += qs.size();
    out.attempted += qs.size();
    shards_pq.push_back(
        static_cast<double>(rig.index->planner_shard_visits() - pv0) /
        static_cast<double>(std::max<uint64_t>(
            1, rig.index->planner_queries() - pq0)));
    if (!res.ok()) {
      out.failed += qs.size();
      tr.close(root);
      continue;
    }
    {
      ScopedSpan s(tr, "client.check");
      for (size_t c = 0; c < kKnnCheckPerBatch; ++c) {
        size_t q = c * (kKnnBatch / kKnnCheckPerBatch);
        if (res.result(q) != oracle.knn(qs[q], kKnnK)) {
          ctx.fail("knn batch " + std::to_string(batch_ms.size()) +
                   " probe " + std::to_string(q) + " differs from the oracle");
        }
      }
    }
    tr.close(root);
    if (!ctx.ok) break;
  }
  std::vector<double> bm = batch_ms;
  out.e2e["setup_s"] = {ctx.warmup_ms / 1e3 + median(setups), "s"};
  out.e2e["served_frac"] = {
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
      "frac"};
  out.e2e["queries_per_s"] = {static_cast<double>(queries) / busy_s, "1/s"};
  out.e2e["batch_p50_ms"] = {percentile(bm, 0.5), "ms"};
  // Probes per second at the median batch: a median, like the other
  // workloads' throughput, so a burst of stolen CPU moves it less than the
  // mean-based queries_per_s above.
  out.e2e["throughput_per_s"] = {
      static_cast<double>(kKnnBatch) / (percentile(bm, 0.5) / 1e3), "1/s"};
  out.e2e["latency_p50_ms"] = out.e2e["batch_p50_ms"];
  out.e2e["asym_reads_per_op"] = {
      static_cast<double>(cost.reads) / static_cast<double>(queries), "count"};
  out.e2e["asym_writes_per_op"] = {
      static_cast<double>(cost.writes) / static_cast<double>(queries), "count"};
  if (reportable(bm.size(), 0.99)) {  // ten samples beyond, as above
    out.e2e["batch_p99_ms"] = {percentile(bm, 0.99), "ms"};
  }
  out.e2e["mem_mb"] = {peak_rss_mb(), "MB"};
  std::cerr << "knn: " << batch_ms.size() << " batches, p50 "
            << out.e2e["batch_p50_ms"].value << " ms\n";

  if (tr.enabled()) {
    Metrics& m = out.layers;
    m["sharded.knn_batch_ms"] = {median(batch_ms), "ms"};
    m["sharded.knn_shards_per_query"] = {median(shards_pq), "count"};
    // The unsharded forest on the same points and the same batches.
    Forest flat;
    int64_t f0 = now_ns();
    {
      ScopedSpan s(tr, "kdtree.bulk_insert");
      if (weg::Status st = flat.bulk_insert(rig.points); !st.ok()) {
        ctx.fail("kdtree bulk_insert: " + st.to_string());
      }
    }
    m["kdtree.bulk_insert_s"] = {secs_since(f0), "s"};
    Rng again(stream_seed(ctx.seed, 12));
    std::vector<double> flat_ms, shard_ms, reads_pq;
    for (int r = 0; r < 15; ++r) {
      for (Point2& p : qs) p = cl.draw(again);
      weg::asym::Region reg;
      int64_t a0 = now_ns();
      weg::parallel::BatchResult<Point2> fr = [&] {
        ScopedSpan s(tr, "kdtree.knn_batch");
        return flat.knn_batch(qs, kKnnK);
      }();
      flat_ms.push_back(ms_since(a0));
      reads_pq.push_back(static_cast<double>(reg.delta().reads) /
                         static_cast<double>(qs.size()));
      a0 = now_ns();
      weg::parallel::BatchResult<Point2> sr = [&] {
        ScopedSpan s(tr, "sharded.knn_batch");
        return rig.index->knn_batch(qs, kKnnK);
      }();
      shard_ms.push_back(ms_since(a0));
      if (!fr.ok() || !sr.ok() || fr.items() != sr.items()) {
        ctx.fail("knn: sharded and unsharded results differ");
      }
    }
    m["kdtree.knn_batch_ms"] = {median(flat_ms), "ms"};
    m["kdtree.knn_reads_per_query"] = {median(reads_pq), "count"};
    m["sharded.knn_overhead_ms"] = {median(shard_ms) - median(flat_ms), "ms"};

    // primitives.semisort_batch_ms: a planner-shaped batch — 4096
    // (query, shard-mask) records whose masks are the range shards the
    // probes fall in (two adjacent shards near a split).
    struct QM {
      uint32_t q;
      uint64_t mask;
    };
    const std::vector<double>& splits = rig.index->splits();
    std::vector<double> ss_ms;
    for (int r = 0; r < 15; ++r) {
      std::vector<QM> recs(qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        double x = qs[i][0];
        size_t s = static_cast<size_t>(
            std::upper_bound(splits.begin(), splits.end(), x) - splits.begin());
        uint64_t mask = uint64_t{1} << s;
        if (s > 0 && x - splits[s - 1] < 0.01) mask |= uint64_t{1} << (s - 1);
        if (s < splits.size() && splits[s] - x < 0.01) mask |= uint64_t{1} << (s + 1);
        recs[i] = QM{static_cast<uint32_t>(i), mask};
      }
      ScopedSpan sp(tr, "primitives.semisort_batch");
      int64_t a0 = now_ns();
      auto groups = weg::primitives::semisort_by(
          recs, [](const QM& x) { return x.mask; });
      ss_ms.push_back(ms_since(a0));
      if (groups.back() != recs.size()) ctx.fail("semisort batch groups");
    }
    m["primitives.semisort_batch_ms"] = {median(ss_ms), "ms"};
  }
  return out;
}

// ===================================================================== //
// build-paper                                                            //
// ===================================================================== //

struct BuildInputs {
  std::vector<weg::geom::GridPoint> grid;
  std::vector<Point2> kd;
  std::vector<Interval> ivs;
  std::vector<PPoint> pp;
};

double build_setup(Ctx& ctx, BuildInputs& in) {
  int64_t t0 = now_ns();
  Rng rng(stream_seed(ctx.seed, 20));
  std::vector<Point2> dpts = uniform_points(kDelaunayN, rng);
  in.grid = weg::delaunay::quantize(dpts);
  in.kd = uniform_points(kKdN, rng);
  in.ivs = uniform_intervals(kIntervalN, 1.0 / 64, rng, 0);
  in.pp.resize(kRangeN);
  for (size_t i = 0; i < kRangeN; ++i) {
    in.pp[i] = PPoint{rng.next_double(), rng.next_double(),
                      static_cast<uint32_t>(i)};
  }
  return secs_since(t0);
}

struct BuildRep {
  double secs[4] = {};
  weg::asym::Counts cost[4];
};

// Span names of the four builds; the per-layer metrics add _s/_reads/_writes.
const char* const kBuildNames[4] = {"delaunay.build", "kdtree.pbatched_build",
                                    "augtree.interval_build",
                                    "augtree.range_alpha_build"};

// One repetition of the four builds, each timed alone; validation follows
// each build outside its timed region.
BuildRep build_once(Ctx& ctx, const BuildInputs& in, uint64_t rep) {
  BuildRep r;
  Tracer& tr = ctx.tracer;
  ScopedSpan root(tr, "build.rep", rep);
  auto timed = [&](int i, auto&& fn) {
    ScopedSpan s(tr, kBuildNames[i], rep);
    weg::asym::Region reg;
    int64_t t0 = now_ns();
    auto result = fn();
    r.secs[i] = secs_since(t0);
    r.cost[i] = reg.delta();
    return result;
  };
  {
    auto mesh = timed(0, [&] {
      return weg::delaunay::triangulate(in.grid,
                                        weg::delaunay::Mode::kWriteEfficient);
    });
    ScopedSpan s(tr, "check.delaunay", rep);
    std::vector<uint32_t> sample;
    for (size_t i = 0; i < kMeshCheckPoints; ++i) {
      sample.push_back(static_cast<uint32_t>(
          weg::primitives::hash64(rep * 977 + i) % in.grid.size()));
    }
    if (!mesh || !mesh->validate(true, &sample)) ctx.fail("Delaunay mesh");
  }
  {
    auto kd = timed(1, [&] {
      return weg::kdtree::PBatchedBuilder<2>::build(in.kd);
    });
    ScopedSpan s(tr, "check.kdtree", rep);
    if (!kd.validate() || kd.size() != in.kd.size()) ctx.fail("k-d tree");
  }
  {
    auto it = timed(2, [&] { return StaticIntervalTree::build_postsorted(in.ivs); });
    ScopedSpan s(tr, "check.interval", rep);
    if (!it.validate(in.ivs)) ctx.fail("interval tree");
  }
  {
    auto rt = timed(3, [&] { return AlphaRangeTree::build(in.pp, kRangeAlpha); });
    ScopedSpan s(tr, "check.range", rep);
    if (!rt.validate() || rt.size() != in.pp.size()) ctx.fail("range tree");
  }
  return r;
}

Pass build_workload(Ctx& ctx, double seconds, bool full) {
  Pass out;
  std::vector<double> setups;
  BuildInputs in;
  for (int r = 0; r < (full ? kSetupReps : 1); ++r) {
    setups.push_back(build_setup(ctx, in));
  }
  std::vector<BuildRep> reps;
  int64_t t0 = now_ns();
  size_t min_reps = full ? 3 : 1;
  while (reps.size() < min_reps || secs_since(t0) < seconds) {
    if (secs_since(t0) > kHardCapSeconds) break;
    reps.push_back(build_once(ctx, in, reps.size()));
    out.attempted += 4;
    if (!ctx.ok) break;
  }
  std::vector<double> total, reads, writes;
  for (const BuildRep& r : reps) {
    double s = 0;
    weg::asym::Counts c;
    for (int i = 0; i < 4; ++i) {
      s += r.secs[i];
      c = c + r.cost[i];
    }
    total.push_back(s);
    reads.push_back(static_cast<double>(c.reads));
    writes.push_back(static_cast<double>(c.writes));
  }
  out.e2e["setup_s"] = {ctx.warmup_ms / 1e3 + median(setups), "s"};
  out.e2e["served_frac"] = {
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
      "frac"};
  out.e2e["build_s"] = {median(total), "s"};
  out.e2e["asym_reads"] = {median(reads), "count"};
  out.e2e["asym_writes"] = {median(writes), "count"};
  double elements =
      static_cast<double>(kDelaunayN + kKdN + kIntervalN + kRangeN);
  out.e2e["latency_p50_ms"] = {median(total) * 1e3, "ms"};
  out.e2e["throughput_per_s"] = {elements / median(total), "1/s"};
  out.e2e["asym_reads_per_op"] = {median(reads) / elements, "count"};
  out.e2e["asym_writes_per_op"] = {median(writes) / elements, "count"};
  out.e2e["mem_mb"] = {peak_rss_mb(), "MB"};
  std::cerr << "build: " << reps.size() << " repetitions, median "
            << median(total) << " s\n";

  if (ctx.tracer.enabled()) {
    for (int i = 0; i < 4; ++i) {
      std::vector<double> s, rd, wr;
      for (const BuildRep& r : reps) {
        s.push_back(r.secs[i]);
        rd.push_back(static_cast<double>(r.cost[i].reads));
        wr.push_back(static_cast<double>(r.cost[i].writes));
      }
      std::string k = kBuildNames[i];
      out.layers[k + "_s"] = {median(s), "s"};
      out.layers[k + "_reads"] = {median(rd), "count"};
      out.layers[k + "_writes"] = {median(wr), "count"};
    }
    // primitives.semisort_ms on 2^20 uniform keys.
    std::vector<double> ss;
    Rng rng(stream_seed(ctx.seed, 21));
    std::vector<uint64_t> keys64(size_t{1} << 20);
    for (int r = 0; r < 5; ++r) {
      for (uint64_t& k : keys64) k = rng.next();
      ScopedSpan s(ctx.tracer, "primitives.semisort");
      int64_t a0 = now_ns();
      auto groups =
          weg::primitives::semisort_by(keys64, [](uint64_t x) { return x; });
      ss.push_back(ms_since(a0));
      if (groups.back() != keys64.size()) ctx.fail("semisort groups");
    }
    out.layers["primitives.semisort_ms"] = {median(ss), "ms"};
  }
  return out;
}

// ===================================================================== //
// command line                                                           //
// ===================================================================== //

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Threads each workload runs beside the scheduler's WEG_NUM_THREADS: the
// benchmark's own thread, plus the engine's batcher and committer.
int extra_threads(const std::string& w) { return w == "serve-stab-mix" ? 3 : 1; }

Pass run_workload(Ctx& ctx, const std::string& w, double seconds, bool full) {
  if (w == "serve-stab-mix") return serve_workload(ctx, seconds, full);
  if (w == "batch-knn") return knn_workload(ctx, seconds, full);
  return build_workload(ctx, seconds, full);
}

// Layer probes that run after a workload's traced pass: the serve stream's
// sharded replay and shard-sized tree, and the scheduler rows.
void workload_layers(Ctx& ctx, Metrics& m) {
  if (ctx.workload == "serve-stab-mix") {
    sharded_interval_layers(
        ctx, static_cast<size_t>(std::lround(m["serve.query_batch_mean"].value)),
        static_cast<size_t>(std::lround(m["serve.epoch_mean"].value)), m);
  }
  scheduler_layers(ctx, m);
}

// The end-to-end number the tracing overhead is reported on.
double headline_ms(const std::string& w, const Pass& p) {
  if (w == "serve-stab-mix") return p.e2e.at("query_p50_ms").value;
  if (w == "batch-knn") return p.e2e.at("batch_p50_ms").value;
  return p.e2e.at("build_s").value * 1e3;
}

// The end-to-end metrics every workload reports: BENCHMARK.json's
// end_to_end list, the result line's metrics. The workload-specific numbers
// (query_p99_ms, update_p50_ms, batch_p99_ms, build_s, ...) are printed on
// the lines above it; README.md maps each to its common metric.
const char* const kCommonMetrics[] = {
    "setup_s",        "mem_mb",            "served_frac",
    "latency_p50_ms", "throughput_per_s",  "asym_reads_per_op",
    "asym_writes_per_op"};

int usage() {
  std::cerr << "usage: perfbench --workload serve-stab-mix|batch-knn|"
               "build-paper --seed N --seconds S --trace 0|1 [--brief 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      ctx.workload = v;
    } else if (k == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      ctx.trace = v == "1";
    } else if (k == "--brief") {
      ctx.brief = v == "1";
    } else {
      return usage();
    }
  }
  const std::string& w = ctx.workload;
  if ((w != "serve-stab-mix" && w != "batch-knn" && w != "build-paper") ||
      !(ctx.seconds > 0)) {
    return usage();
  }

  CpuTimes cpu0 = read_cpu_times();
  const char* env = std::getenv("WEG_NUM_THREADS");
  if (env == nullptr || std::string(env).empty() ||
      std::string(env) == "auto") {
    std::cerr << "perfbench: WEG_NUM_THREADS must be pinned\n";
    return 2;
  }
  int workers = weg::parallel::num_workers();
  int cores = nproc();
  if (workers + extra_threads(w) > cores && workers > 1) {
    std::cerr << "perfbench: " << workers << " workers + " << extra_threads(w)
              << " benchmark/engine threads exceed nproc " << cores << "\n";
    return 2;
  }
  ctx.warmup_ms = scheduler_warmup();

  Metrics metrics;
  uint64_t attempted = 0, failed = 0;
  Metrics detail;
  if (!ctx.trace) {
    Pass p = run_workload(ctx, w, ctx.seconds, true);
    detail = p.e2e;
    for (const char* name : kCommonMetrics) {
      auto it = p.e2e.find(name);
      if (it == p.e2e.end()) {
        ctx.fail(std::string("no value for ") + name);
        continue;
      }
      metrics[name] = it->second;
      detail.erase(name);
    }
    attempted = p.attempted;
    failed = p.failed;
  } else if (ctx.brief) {
    // Layers only, from one short traced pass (run.py merges these into
    // another workload's traced result).
    ctx.tracer.set_enabled(true);
    Pass p = run_workload(ctx, w, ctx.seconds, false);
    attempted = p.attempted;
    failed = p.failed;
    metrics = p.layers;
    workload_layers(ctx, metrics);
  } else {
    Pass plain = run_workload(ctx, w, ctx.seconds / 2, false);
    ctx.tracer.set_enabled(true);
    Pass traced = run_workload(ctx, w, ctx.seconds / 2, false);
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics = traced.layers;
    workload_layers(ctx, metrics);
    metrics["trace.overhead_ms"] = {
        headline_ms(w, traced) - headline_ms(w, plain), "ms"};
    std::cerr << "trace: headline untraced " << headline_ms(w, plain)
              << " ms, traced " << headline_ms(w, traced) << " ms\n";
  }
  if (ctx.trace) {
    metrics["trace.spans"] = {
        static_cast<double>(ctx.tracer.spans().size()), "count"};
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    std::string path = ".bench_out/trace-" + w + "-" +
                       std::to_string(ctx.seed) + ".json";
    if (!ctx.tracer.write_json(path)) {
      std::cerr << "perfbench: could not write " << path << "\n";
    }
  }
  double steal = steal_frac(cpu0, read_cpu_times());
  if (ctx.trace) metrics["host.steal_frac"] = {steal, "frac"};

  std::cout << "# context {\"workload\": \"" << w << "\", \"seed\": "
            << ctx.seed << ", \"seconds\": " << ctx.seconds
            << ", \"trace\": " << (ctx.trace ? 1 : 0) << ", \"nproc\": "
            << cores << ", \"weg_num_threads\": " << workers
            << ", \"extra_threads\": " << extra_threads(w)
            << ", \"steal_frac\": " << fmt_double(steal)
            << ", \"warmup_ms\": " << fmt_double(ctx.warmup_ms)
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_flags\": \"" << json_escape(PERFBENCH_BUILD_FLAGS)
            << "\"}\n";
  for (const auto& [name, m] : detail) {
    std::cout << "# " << w << " " << name << " = " << fmt_double(m.value)
              << " " << m.unit << "\n";
  }
  for (const auto& [name, m] : metrics) {
    std::cout << "# " << name << " = " << fmt_double(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << result_json(ctx.ok, std::max<uint64_t>(1, attempted), failed,
                           metrics)
            << std::endl;
  return ctx.ok ? 0 : 1;
}
