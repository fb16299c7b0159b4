// Self-tests of the benchmark harness (harness.h): the percentile rule, span
// self time, and the max-rate search with its step verdict. run.py runs
// this binary before every benchmark run; a failure exits non-zero.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void test_percentile_rule() {
  using namespace perfbench;
  // p99 needs ten samples beyond it: n = 1000 qualifies, 999 does not.
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  expect(reportable(1000, 0.99), "p99 reportable at n=1000");
  expect(!reportable(999, 0.99), "p99 not reportable at n=999");
  expect(reportable(20, 0.5), "p50 reportable at n=20");
  expect(!reportable(19, 0.5), "p50 not reportable at n=19");
  // Nearest rank: the 990th of 1..1000 is the p99, the 500th the median.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(v, 0.5) == 500.0, "p50 of 1..1000 is 500");
  std::vector<double> one{7.0};
  expect(percentile(one, 0.99) == 7.0, "single sample is every percentile");
  std::vector<double> none;
  expect(std::isnan(percentile(none, 0.5)), "empty sample gives NaN");
}

void test_self_time() {
  using namespace perfbench;
  std::vector<Span> s;
  s.push_back(Span{"root", 1, -1, 0, 100});
  s.push_back(Span{"a", 1, 0, 10, 30});    // overlaps b
  s.push_back(Span{"b", 1, 0, 20, 50});
  s.push_back(Span{"c", 1, 0, 80, 120});   // clipped to the parent at 100
  s.push_back(Span{"a.x", 1, 1, 12, 18});  // grandchild: not the root's
  std::vector<double> self = self_times(s);
  // root covered by [10,50] and [80,100]: 60 of 100.
  expect(self[0] == 40.0, "root self time 40");
  expect(self[1] == 14.0, "child self time excludes its own child");
  expect(self[2] == 30.0, "leaf self time is its duration");
  expect(self[4] == 6.0, "grandchild self time");

  Tracer t(true);
  {
    ScopedSpan outer(t, "outer", 3);
    ScopedSpan inner(t, "inner", 3);
  }
  expect(t.spans().size() == 2 && t.spans()[1].parent == 0 &&
             t.spans()[0].end_ns >= t.spans()[1].end_ns,
         "scoped spans nest under the open span");
  Tracer off(false);
  { ScopedSpan s2(off, "x"); }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

void test_max_rate_search() {
  using namespace perfbench;
  // A system whose true capacity is 21000 req/s: the search must land
  // within one bisection step of resolution below it, and never above.
  double cap = 21000;
  int calls = 0;
  double got = search_max_rate(4000, 64000, 5, [&](double r) {
    ++calls;
    return r <= cap;
  });
  double resolution = std::pow(64000.0 / 4000.0, 1.0 / 32.0);
  expect(calls == 5, "search makes exactly `steps` probes");
  expect(got <= cap && got * resolution >= cap,
         "search within one step of capacity (got " + std::to_string(got) +
             ")");
  // Nothing passes: the floor comes back, never 0.
  expect(search_max_rate(4000, 64000, 5, [](double) { return false; }) ==
             4000.0,
         "search floor when every step fails");
  // Everything passes: close to the ceiling.
  expect(search_max_rate(4000, 64000, 5, [](double) { return true; }) *
                 resolution >=
             64000.0 * (1 - 1e-9),
         "search approaches the ceiling when every step passes");

  // Step verdicts.
  Limits lim{10.0, 100.0};
  StepResult ok;
  ok.attempted = 4000;
  ok.query_ms.assign(3000, 1.0);
  ok.update_ms.assign(1000, 50.0);
  expect(step_meets(ok, lim, 256), "clean step passes");
  StepResult failed = ok;
  failed.failed = 1;
  expect(!step_meets(failed, lim, 256), "a failed request fails the step");
  StepResult slow = ok;
  // Eleven slow updates put the 990th of 1000 (the p99) over the limit.
  for (size_t i = 989; i < 1000; ++i) slow.update_ms[i] = 150.0;
  expect(!step_meets(slow, lim, 256), "update p99 over its limit fails");
  StepResult growing = ok;
  growing.backlog_q3 = 100;
  growing.backlog_q4 = 100 + 257;
  expect(!step_meets(growing, lim, 256), "a growing backlog fails the step");
  StepResult thin = ok;
  thin.update_ms.assign(999, 1.0);
  expect(!step_meets(thin, lim, 256), "an unreportable p99 fails the step");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_max_rate_search();
  if (failures == 0) std::fprintf(stderr, "perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
