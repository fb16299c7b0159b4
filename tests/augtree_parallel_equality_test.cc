// Parallel/serial equality for the augmented trees: every structure is built
// on fixed-seed inputs large enough to engage the parallel construction
// paths (n >> the ~2k sequential cutoff) and must answer a fixed query set
// identically to a serial brute-force oracle. The CMake registration reruns
// this suite at WEG_NUM_THREADS=1 and WEG_NUM_THREADS=8, so a parallel build
// answering differently from a serial build fails one of the two runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/augtree/priority_tree.h"
#include "src/augtree/range_tree.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg::augtree {
namespace {

constexpr size_t kN = 50000;  // several fork levels above the ~2k cutoff

std::vector<Interval> fixed_intervals(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = Interval{a, a + rng.next_double() * 0.05, uint32_t(i)};
  }
  return ivs;
}

std::vector<uint32_t> brute_stab(const std::vector<Interval>& ivs, double q) {
  std::vector<uint32_t> out;
  for (const Interval& iv : ivs) {
    if (iv.l <= q && q <= iv.r) out.push_back(iv.id);
  }
  return out;
}

std::vector<uint32_t> sorted(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ParallelEquality, StaticIntervalTreesMatchBruteForce) {
  auto ivs = fixed_intervals(kN, 0xA11CE);
  auto classic = StaticIntervalTree::build_classic(ivs);
  auto postsorted = StaticIntervalTree::build_postsorted(ivs);
  ASSERT_TRUE(classic.validate(ivs));
  ASSERT_TRUE(postsorted.validate(ivs));
  primitives::Rng rng(0xBEEF);
  for (int t = 0; t < 64; ++t) {
    double q = rng.next_double();
    auto expect = sorted(brute_stab(ivs, q));
    EXPECT_EQ(sorted(classic.stab(q)), expect);
    EXPECT_EQ(sorted(postsorted.stab(q)), expect);
    EXPECT_EQ(classic.stab_count(q), expect.size());
    EXPECT_EQ(postsorted.stab_count(q), expect.size());
  }
}

TEST(ParallelEquality, DynamicIntervalTreeBulkMatchesBruteForce) {
  auto ivs = fixed_intervals(kN, 0xD1CE);
  DynamicIntervalTree t(4);
  // Empty-tree bulk build takes the balanced-build path.
  ASSERT_TRUE(t.bulk_insert(ivs).ok());
  ASSERT_TRUE(t.validate());
  primitives::Rng rng(0xF00D);
  for (int q = 0; q < 48; ++q) {
    double x = rng.next_double();
    auto expect = sorted(brute_stab(ivs, x));
    EXPECT_EQ(sorted(t.stab(x)), expect);
    EXPECT_EQ(t.stab_count(x), expect.size());
  }
}

std::vector<uint32_t> brute_range(const std::vector<PPoint>& pts, double xl,
                                  double xr, double yb, double yt) {
  std::vector<uint32_t> out;
  for (const PPoint& p : pts) {
    if (p.x >= xl && p.x <= xr && p.y >= yb && p.y <= yt) out.push_back(p.id);
  }
  return out;
}

TEST(ParallelEquality, RangeTreesMatchBruteForce) {
  auto pts = testing::random_ppoints(kN, 0x5EED);
  auto classic = StaticRangeTree::build(pts);
  auto alpha = AlphaRangeTree::build(pts, 4);
  ASSERT_TRUE(classic.validate());
  ASSERT_TRUE(alpha.validate());
  primitives::Rng rng(0xCAFE);
  for (int t = 0; t < 32; ++t) {
    double xl = rng.next_double(), yb = rng.next_double();
    double xr = xl + rng.next_double() * 0.2;
    double yt = yb + rng.next_double() * 0.2;
    auto expect = sorted(brute_range(pts, xl, xr, yb, yt));
    EXPECT_EQ(sorted(classic.query(xl, xr, yb, yt)), expect);
    EXPECT_EQ(sorted(alpha.query(xl, xr, yb, yt)), expect);
    EXPECT_EQ(classic.query_count(xl, xr, yb, yt), expect.size());
    EXPECT_EQ(alpha.query_count(xl, xr, yb, yt), expect.size());
  }
}

std::vector<uint32_t> brute_3sided(const std::vector<PPoint>& pts, double xl,
                                   double xr, double yb) {
  std::vector<uint32_t> out;
  for (const PPoint& p : pts) {
    if (p.x >= xl && p.x <= xr && p.y >= yb) out.push_back(p.id);
  }
  return out;
}

TEST(ParallelEquality, StaticPriorityTreesMatchBruteForce) {
  auto pts = testing::random_ppoints(kN, 0xFACE);
  auto classic = StaticPriorityTree::build_classic(pts);
  auto postsorted = StaticPriorityTree::build_postsorted(pts);
  ASSERT_TRUE(classic.validate());
  ASSERT_TRUE(postsorted.validate());
  primitives::Rng rng(0xB0BA);
  for (int t = 0; t < 32; ++t) {
    double xl = rng.next_double(), yb = 1.0 - rng.next_double() * 0.3;
    double xr = xl + rng.next_double() * 0.2;
    auto expect = sorted(brute_3sided(pts, xl, xr, yb));
    EXPECT_EQ(sorted(classic.query(xl, xr, yb)), expect);
    EXPECT_EQ(sorted(postsorted.query(xl, xr, yb)), expect);
    EXPECT_EQ(classic.query_count(xl, xr, yb), expect.size());
    EXPECT_EQ(postsorted.query_count(xl, xr, yb), expect.size());
  }
}

TEST(ParallelEquality, ConstructionCountsAreScheduleIndependent) {
  // Every construction executes the same set of counted accesses regardless
  // of schedule, so repeat builds must report bit-identical read/write
  // counts even when work stealing interleaves them differently (the p=8
  // rerun of this suite exercises exactly that).
  auto ivs = fixed_intervals(kN, 0xC0DE);
  StaticIntervalTree::Stats i1{}, i2{};
  StaticIntervalTree::build_postsorted(ivs, &i1);
  StaticIntervalTree::build_postsorted(ivs, &i2);
  EXPECT_EQ(i1.cost.reads, i2.cost.reads);
  EXPECT_EQ(i1.cost.writes, i2.cost.writes);

  auto pts = testing::random_ppoints(kN, 0xC0DE);
  StaticPriorityTree::Stats p1{}, p2{};
  StaticPriorityTree::build_classic(pts, &p1);
  StaticPriorityTree::build_classic(pts, &p2);
  EXPECT_EQ(p1.cost.reads, p2.cost.reads);
  EXPECT_EQ(p1.cost.writes, p2.cost.writes);

  asym::Counts r1, r2;
  StaticRangeTree::build(pts);  // warm: exclude counter-slot registration
  {
    asym::Region region;
    StaticRangeTree::build(pts);
    r1 = region.delta();
  }
  {
    asym::Region region;
    StaticRangeTree::build(pts);
    r2 = region.delta();
  }
  EXPECT_EQ(r1.reads, r2.reads);
  EXPECT_EQ(r1.writes, r2.writes);
}

TEST(ParallelEquality, BulkBuildCountsMatchSerialGolden) {
  // Golden counts captured from the serial (WEG_NUM_THREADS=1) code path.
  // The p>1 reruns of this suite take the parallel id-slice/cursor paths,
  // which must charge exactly the same reads and writes — this is the
  // cross-worker-count half of the count-determinism claim (the repeat-build
  // test below covers schedule independence at a fixed worker count).
  // If an algorithm's counting legitimately changes, recapture at p=1.
  auto ivs = fixed_intervals(20000, 0x60D);
  DynamicIntervalTree t(4);
  asym::Region region;
  ASSERT_TRUE(t.bulk_insert(ivs).ok());
  auto c = region.delta();
  // Recaptured for the sampling semisort: interval bulk builds sort their
  // endpoints through write-efficient incremental-sort rounds, whose large
  // rounds now take the sampled heavy/light plan (sample read pass + grouped
  // bucket writes). Verified bitwise-identical at p=1 and p=8 before pinning.
  EXPECT_EQ(c.reads, 2656220u);
  EXPECT_EQ(c.writes, 810881u);

  // Same guard for the α range tree, whose build_balanced also keeps a
  // serial twin next to the shared parallel id-slice path.
  auto pts = testing::random_ppoints(20000, 0x60D);
  asym::Counts rc;
  AlphaRangeTree::build(pts, 4, &rc);
  // Recaptured for the sampling semisort (same incremental-sort shift as the
  // interval tree above); identical at p=1 and p=8.
  EXPECT_EQ(rc.reads, 2160280u);
  EXPECT_EQ(rc.writes, 589819u);
}

// Incremental-update goldens: one-by-one inserts followed by erasing every
// third record drive the α-labelled update path — weight bumps, the doubling
// trigger, subtree rebuilds and their splice, dead marking and the half-dead
// whole-tree rebuild. Counts were captured at p=1 and hold at p=2/8: the
// large rebuilds fork, and must charge exactly what the serial path does.
template <typename Tree, typename Rec>
asym::Counts insert_then_erase_thirds(Tree& t, const std::vector<Rec>& recs) {
  asym::Region region;
  for (const Rec& r : recs) t.insert(r);
  for (size_t i = 0; i < recs.size(); i += 3) EXPECT_TRUE(t.erase(recs[i]));
  return region.delta();
}

TEST(ParallelEquality, DynamicIntervalTreeIncrementalCountsMatchGolden) {
  auto ivs = fixed_intervals(20000, 0xABC);
  DynamicIntervalTree t(4);
  auto c = insert_then_erase_thirds(t, ivs);
  ASSERT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 20000u - 6667u);
  EXPECT_EQ(c.reads, 2804666u);
  EXPECT_EQ(c.writes, 1514531u);
  EXPECT_EQ(t.rebuilds(), 12254u);
}

TEST(ParallelEquality, AlphaRangeTreeIncrementalCountsMatchGolden) {
  auto pts = testing::random_ppoints(20000, 0xABC);
  AlphaRangeTree t(4);
  auto c = insert_then_erase_thirds(t, pts);
  ASSERT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 20000u - 6667u);
  EXPECT_EQ(c.reads, 6958928u);
  EXPECT_EQ(c.writes, 3186709u);
  EXPECT_EQ(t.rebuilds(), 6178u);
}

TEST(ParallelEquality, DynamicPriorityTreeIncrementalCountsMatchGolden) {
  auto pts = testing::random_ppoints(20000, 0xABC);
  DynamicPriorityTree t(4);
  auto c = insert_then_erase_thirds(t, pts);
  ASSERT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 20000u - 6667u);
  EXPECT_EQ(c.reads, 3576973u);
  EXPECT_EQ(c.writes, 1191504u);
  EXPECT_EQ(t.rebuilds(), 5507u);
}

TEST(ParallelEquality, DynamicPriorityTreeRebuildsMatchBruteForce) {
  // Incremental inserts trigger weight-doubling rebuilds; the root rebuilds
  // past ~4k points take the parallel pre-grown-pool path.
  auto pts = testing::random_ppoints(20000, 0xD00D);
  DynamicPriorityTree t(4);
  for (const PPoint& p : pts) t.insert(p);
  ASSERT_TRUE(t.validate());
  EXPECT_GT(t.rebuilds(), 0u);
  primitives::Rng rng(0x1DEA);
  for (int q = 0; q < 32; ++q) {
    double xl = rng.next_double(), yb = 1.0 - rng.next_double() * 0.3;
    double xr = xl + rng.next_double() * 0.2;
    auto expect = sorted(brute_3sided(pts, xl, xr, yb));
    EXPECT_EQ(sorted(t.query(xl, xr, yb)), expect);
    EXPECT_EQ(t.query_count(xl, xr, yb), expect.size());
  }
}

}  // namespace
}  // namespace weg::augtree
