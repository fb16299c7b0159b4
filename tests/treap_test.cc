// Inner-tree (treap) and tournament-tree tests: BST/heap invariants,
// duplicate keys, reporting with early exit, the O(1)-expected-rotation
// property, many treaps sharing one TreapForest pool, and the Appendix A
// tournament-tree queries with scoped deletions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/augtree/tournament.h"
#include "src/augtree/treap.h"
#include "src/primitives/random.h"

namespace weg::augtree {
namespace {

TEST(Treap, InsertAndValidate) {
  Treap t;
  primitives::Rng rng(1);
  for (int i = 0; i < 5000; ++i) t.insert(rng.next_double(), uint32_t(i));
  EXPECT_EQ(t.size(), 5000u);
  EXPECT_TRUE(t.validate());
}

TEST(Treap, DuplicateKeysByItem) {
  Treap t;
  for (uint32_t i = 0; i < 100; ++i) t.insert(1.0, i);
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 100u);
  size_t seen = 0;
  t.for_each([&](double k, uint32_t) {
    EXPECT_EQ(k, 1.0);
    ++seen;
  });
  EXPECT_EQ(seen, 100u);
}

TEST(Treap, EraseExactEntry) {
  Treap t;
  t.insert(1.0, 1);
  t.insert(1.0, 2);
  t.insert(2.0, 3);
  EXPECT_TRUE(t.erase(1.0, 2));
  EXPECT_FALSE(t.erase(1.0, 2));
  EXPECT_FALSE(t.erase(5.0, 9));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.validate());
}

TEST(Treap, ForEachInSortedOrder) {
  Treap t;
  primitives::Rng rng(2);
  std::vector<double> keys;
  for (int i = 0; i < 2000; ++i) {
    double k = rng.next_double();
    keys.push_back(k);
    t.insert(k, uint32_t(i));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<double> got;
  t.for_each([&](double k, uint32_t) { got.push_back(k); });
  EXPECT_EQ(got, keys);
}

TEST(Treap, ReportLeqGeqRange) {
  Treap t;
  for (int i = 0; i < 1000; ++i) t.insert(double(i), uint32_t(i));
  size_t c = 0;
  t.report_leq(99.5, [&](double k, uint32_t) {
    EXPECT_LE(k, 99.5);
    ++c;
  });
  EXPECT_EQ(c, 100u);
  c = 0;
  t.report_geq(900.0, [&](double k, uint32_t) {
    EXPECT_GE(k, 900.0);
    ++c;
  });
  EXPECT_EQ(c, 100u);
  c = 0;
  t.report_range(10.0, 19.0, [&](double k, uint32_t) {
    EXPECT_GE(k, 10.0);
    EXPECT_LE(k, 19.0);
    ++c;
  });
  EXPECT_EQ(c, 10u);
}

TEST(Treap, ReportEarlyExitIsCheap) {
  Treap t;
  for (int i = 0; i < 100000; ++i) t.insert(double(i), uint32_t(i));
  asym::Region r;
  size_t c = 0;
  t.report_leq(4.5, [&](double, uint32_t) { ++c; });
  EXPECT_EQ(c, 5u);
  // O(k + depth) node visits, nowhere near n.
  EXPECT_LT(r.delta().reads, 200u);
}

TEST(Treap, FromSortedBuildsValidTreap) {
  std::vector<std::pair<double, uint32_t>> es;
  for (uint32_t i = 0; i < 10000; ++i) es.emplace_back(double(i) * 0.5, i);
  auto t = Treap::from_sorted(es);
  EXPECT_EQ(t.size(), es.size());
  EXPECT_TRUE(t.validate());
  // Expected depth O(log n): generous bound.
  EXPECT_LT(t.depth(), 60u);
}

TEST(Treap, FromSortedLinearWrites) {
  std::vector<std::pair<double, uint32_t>> es;
  for (uint32_t i = 0; i < 50000; ++i) es.emplace_back(double(i), i);
  asym::Region r;
  auto t = Treap::from_sorted(es);
  EXPECT_LE(r.delta().writes, es.size() + 10);
}

TEST(Treap, ExpectedConstantRotationsPerUpdate) {
  Treap t;
  primitives::Rng rng(3);
  size_t total_rot = 0;
  size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    t.insert(rng.next_double(), uint32_t(i));
    total_rot += t.last_rotations();
  }
  // Expected < 2 rotations per insert.
  EXPECT_LT(double(total_rot) / double(n), 3.0);
}

TEST(Treap, UpdateWritesAreConstantExpected) {
  // The write-efficiency contract for inner trees: O(1) expected writes per
  // insert (unsized variant).
  Treap t;
  primitives::Rng rng(4);
  size_t n = 20000;
  for (size_t i = 0; i < n / 2; ++i) t.insert(rng.next_double(), uint32_t(i));
  asym::Region r;
  for (size_t i = n / 2; i < n; ++i) t.insert(rng.next_double(), uint32_t(i));
  EXPECT_LT(double(r.delta().writes) / double(n / 2), 8.0);
}

TEST(TreapForest, ManyRootsMatchSetOracle) {
  // 64 treaps in one pool under interleaved insert/erase (hits, misses and
  // duplicate keys), each checked against a std::set after every round.
  constexpr size_t kRoots = 64;
  TreapForest f;
  std::vector<uint32_t> roots(kRoots, TreapForest::kNull);
  std::map<size_t, std::set<std::pair<double, uint32_t>>> oracle;
  primitives::Rng rng(5);
  size_t live = 0, peak = 0;
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 400; ++op) {
      size_t t = rng.next_bounded(kRoots);
      auto& set = oracle[t];
      if (rng.next_bounded(3) != 0 || set.empty()) {
        double key = double(rng.next_bounded(50)) / 8.0;  // many duplicates
        uint32_t item = uint32_t(rng.next_bounded(1u << 20));
        if (set.insert({key, item}).second) {
          f.insert(roots[t], key, item);
          ++live;
        }
      } else if (rng.next_bounded(4) == 0) {
        // Miss: matching key, item absent.
        EXPECT_FALSE(f.erase(roots[t], set.begin()->first, 1u << 21));
      } else {
        auto it = std::next(set.begin(), long(rng.next_bounded(set.size())));
        EXPECT_TRUE(f.erase(roots[t], it->first, it->second));
        set.erase(it);
        --live;
      }
      peak = std::max(peak, live);
    }
    for (size_t t = 0; t < kRoots; ++t) {
      ASSERT_TRUE(f.validate(roots[t])) << "root " << t;
      std::vector<std::pair<double, uint32_t>> got;
      f.for_each(roots[t], [&](double k, uint32_t i) { got.emplace_back(k, i); });
      std::vector<std::pair<double, uint32_t>> want(oracle[t].begin(),
                                                     oracle[t].end());
      ASSERT_EQ(got, want) << "root " << t << " round " << round;
    }
  }
  // Erased nodes are reused: the pool never exceeds the peak live count.
  EXPECT_LE(f.num_nodes(), peak);
}

TEST(TreapForest, FreedTreesAreReused) {
  TreapForest f;
  primitives::Rng rng(6);
  uint32_t a = TreapForest::kNull, b = TreapForest::kNull;
  for (uint32_t i = 0; i < 1000; ++i) f.insert(a, rng.next_double(), i);
  for (uint32_t i = 0; i < 500; ++i) f.insert(b, rng.next_double(), i);
  ASSERT_EQ(f.num_nodes(), 1500u);
  f.free_tree(a);
  EXPECT_EQ(a, TreapForest::kNull);
  EXPECT_TRUE(f.validate(b));
  size_t seen = 0;
  f.for_each(b, [&](double, uint32_t) { ++seen; });
  EXPECT_EQ(seen, 500u);
  // A rebuilt tree fills the freed slots, from_sorted included.
  std::vector<std::pair<double, uint32_t>> es;
  for (uint32_t i = 0; i < 600; ++i) es.emplace_back(double(i), i);
  uint32_t c = f.from_sorted(es);
  for (uint32_t i = 0; i < 400; ++i) f.insert(a, double(i), i);
  EXPECT_EQ(f.num_nodes(), 1500u);
  EXPECT_TRUE(f.validate(a) && f.validate(b) && f.validate(c));
  f.clear();
  EXPECT_EQ(f.num_nodes(), 0u);
}

TEST(TreapForest, ShapeIndependentOfSlots) {
  // Priorities hash (key, item) only, so a treap built in a fresh pool and
  // one built from recycled slots report identically with identical reads.
  TreapForest fresh, reused;
  uint32_t junk = TreapForest::kNull;
  for (uint32_t i = 0; i < 3000; ++i) reused.insert(junk, double(i % 97), i);
  reused.free_tree(junk);
  uint32_t r1 = TreapForest::kNull, r2 = TreapForest::kNull;
  primitives::Rng rng(7);
  for (uint32_t i = 0; i < 2000; ++i) {
    double k = rng.next_double();
    fresh.insert(r1, k, i);
    reused.insert(r2, k, i);
  }
  EXPECT_EQ(fresh.depth(r1), reused.depth(r2));
  std::vector<uint32_t> o1, o2;
  asym::Region g1;
  fresh.report_geq(r1, 0.5, [&](double, uint32_t i) { o1.push_back(i); });
  auto c1 = g1.delta();
  asym::Region g2;
  reused.report_geq(r2, 0.5, [&](double, uint32_t i) { o2.push_back(i); });
  auto c2 = g2.delta();
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(c1.reads, c2.reads);
}

TEST(Tournament, RangeArgmaxAndCounts) {
  std::vector<double> ys{5, 1, 9, 3, 7, 2, 8, 6};
  TournamentTree tt(ys);
  EXPECT_EQ(tt.count_valid(0, 8), 8u);
  EXPECT_EQ(tt.range_argmax(0, 8), 2u);  // y=9
  EXPECT_EQ(tt.range_argmax(3, 6), 4u);  // y=7
  EXPECT_EQ(tt.range_argmax(0, 2), 0u);  // y=5
}

TEST(Tournament, KthValid) {
  std::vector<double> ys{5, 1, 9, 3, 7, 2, 8, 6};
  TournamentTree tt(ys);
  for (size_t k = 0; k < 8; ++k) EXPECT_EQ(tt.kth_valid(0, 8, k), k);
  EXPECT_EQ(tt.kth_valid(2, 6, 1), 3u);
  EXPECT_EQ(tt.kth_valid(0, 8, 8), TournamentTree::kNone);
}

TEST(Tournament, EraseUpdatesQueries) {
  std::vector<double> ys{5, 1, 9, 3, 7, 2, 8, 6};
  TournamentTree tt(ys);
  tt.erase(2);  // remove the max
  EXPECT_EQ(tt.range_argmax(0, 8), 6u);  // y=8
  EXPECT_EQ(tt.count_valid(0, 8), 7u);
  EXPECT_EQ(tt.kth_valid(0, 8, 2), 3u);  // 0,1,3,...
}

TEST(Tournament, ScopedEraseKeepsInScopeQueriesCorrect) {
  // After erase_scoped(i, lo, hi), queries fully inside [lo, hi) must see
  // the deletion even though out-of-scope ancestors are stale.
  std::vector<double> ys(64);
  primitives::Rng rng(6);
  for (auto& y : ys) y = rng.next_double();
  TournamentTree tt(ys);
  // Work within scope [16, 32).
  uint32_t before = tt.range_argmax(16, 32);
  tt.erase_scoped(before, 16, 32);
  uint32_t after = tt.range_argmax(16, 32);
  EXPECT_NE(after, before);
  EXPECT_NE(after, TournamentTree::kNone);
  EXPECT_EQ(tt.count_valid(16, 32), 15u);
}

TEST(Tournament, NonPowerOfTwoSizes) {
  for (size_t n : {1ul, 3ul, 17ul, 100ul}) {
    std::vector<double> ys(n);
    primitives::Rng rng(7 + n);
    for (auto& y : ys) y = rng.next_double();
    TournamentTree tt(ys);
    EXPECT_EQ(tt.count_valid(0, n), n);
    uint32_t am = tt.range_argmax(0, n);
    double best = *std::max_element(ys.begin(), ys.end());
    EXPECT_EQ(ys[am], best);
  }
}

TEST(Tournament, ScopedDeletionWritesAreBounded) {
  // The Appendix A accounting: a scoped deletion writes only the ancestors
  // inside its scope.
  std::vector<double> ys(1 << 14);
  primitives::Rng rng(8);
  for (auto& y : ys) y = rng.next_double();
  TournamentTree tt(ys);
  asym::Region r;
  tt.erase_scoped(100, 96, 104);  // scope of width 8
  EXPECT_LE(r.delta().writes, 5u);  // leaf + <= 3 in-scope ancestors
}

}  // namespace
}  // namespace weg::augtree
