// Asymmetric-memory simulation tests: counting correctness, region deltas,
// parallel aggregation, and the ω-parameterized work formula.
#include <gtest/gtest.h>

#include "src/asym/counters.h"
#include "src/parallel/parallel_for.h"

namespace weg::asym {
namespace {

TEST(Counters, ReadWriteDeltas) {
  Region r;
  count_read(10);
  count_write(3);
  auto d = r.delta();
  EXPECT_EQ(d.reads, 10u);
  EXPECT_EQ(d.writes, 3u);
}

TEST(Counters, AccessorHelpers) {
  int x = 5;
  Region r;
  int y = read(x);
  write(x, y + 1);
  EXPECT_EQ(x, 6);
  auto d = r.delta();
  EXPECT_EQ(d.reads, 1u);
  EXPECT_EQ(d.writes, 1u);
}

TEST(Counters, WorkFormula) {
  Counts c{100, 10};
  EXPECT_DOUBLE_EQ(c.work(1.0), 110.0);
  EXPECT_DOUBLE_EQ(c.work(10.0), 200.0);
  EXPECT_DOUBLE_EQ(c.work(0.0), 100.0);
}

TEST(Counters, ArithmeticOps) {
  Counts a{10, 5}, b{3, 2};
  auto s = a + b;
  EXPECT_EQ(s.reads, 13u);
  EXPECT_EQ(s.writes, 7u);
  auto d = s - b;
  EXPECT_EQ(d.reads, a.reads);
  EXPECT_EQ(d.writes, a.writes);
}

TEST(Counters, ParallelCountingIsExact) {
  Region r;
  size_t n = 1 << 18;
  parallel::parallel_for(0, n, [&](size_t) {
    count_read();
    count_write(2);
  });
  auto d = r.delta();
  EXPECT_EQ(d.reads, n);
  EXPECT_EQ(d.writes, 2 * n);
}

TEST(Counters, NestedRegionsCompose) {
  Region outer;
  count_read(5);
  {
    Region inner;
    count_read(7);
    EXPECT_EQ(inner.delta().reads, 7u);
  }
  EXPECT_EQ(outer.delta().reads, 12u);
}

}  // namespace
}  // namespace weg::asym
