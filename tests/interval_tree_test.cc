// Interval tree tests (Sections 7.1-7.3): static classic vs post-sorted
// construction equivalence and write bounds (Theorem 7.1), stabbing queries
// against brute force across interval patterns (including duplicate and
// degenerate endpoints), and the α-labeled dynamic tree under mixed
// workloads with structural validation (Corollary 7.2 path statistics),
// copy isolation and pool reuse of the flat dynamic tree, and its id table
// against a std::map oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "src/augtree/interval_tree.h"
#include "src/primitives/random.h"

namespace weg::augtree {
namespace {

enum class Pattern { kShort, kMixed, kNested, kPointLike, kSharedEndpoints };

std::vector<Interval> make_intervals(Pattern pat, size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = 0, b = 0;
    switch (pat) {
      case Pattern::kShort:
        a = rng.next_double();
        b = a + rng.next_double() * 0.01;
        break;
      case Pattern::kMixed:
        a = rng.next_double();
        b = a + rng.next_double() * rng.next_double();
        break;
      case Pattern::kNested:
        a = 0.5 - double(i + 1) / double(2 * n + 4);
        b = 0.5 + double(i + 1) / double(2 * n + 4);
        break;
      case Pattern::kPointLike:
        a = rng.next_double();
        b = a;  // zero length
        break;
      case Pattern::kSharedEndpoints:
        a = double(rng.next_bounded(20)) / 20.0;
        b = a + double(1 + rng.next_bounded(5)) / 20.0;
        break;
    }
    ivs[i] = Interval{a, b, uint32_t(i)};
  }
  return ivs;
}

size_t brute_stab(const std::vector<Interval>& ivs, double q) {
  size_t c = 0;
  for (auto& iv : ivs) c += iv.contains(q) ? 1 : 0;
  return c;
}

class StaticIT
    : public ::testing::TestWithParam<std::tuple<Pattern, size_t>> {};

TEST_P(StaticIT, BothBuildsAnswerStabsCorrectly) {
  auto [pat, n] = GetParam();
  auto ivs = make_intervals(pat, n, 31 + n);
  auto tc = StaticIntervalTree::build_classic(ivs);
  auto tp = StaticIntervalTree::build_postsorted(ivs);
  EXPECT_TRUE(tc.validate(ivs));
  EXPECT_TRUE(tp.validate(ivs));
  primitives::Rng rng(n + 1);
  for (int t = 0; t < 25; ++t) {
    double q = rng.next_double();
    size_t ref = brute_stab(ivs, q);
    EXPECT_EQ(tc.stab(q).size(), ref);
    EXPECT_EQ(tp.stab(q).size(), ref);
    EXPECT_EQ(tc.stab_count(q), ref);
    EXPECT_EQ(tp.stab_count(q), ref);
  }
  // Query exactly at endpoints too (tie handling).
  for (size_t i = 0; i < std::min<size_t>(n, 10); ++i) {
    for (double q : {ivs[i].l, ivs[i].r}) {
      size_t ref = brute_stab(ivs, q);
      EXPECT_EQ(tc.stab(q).size(), ref) << "endpoint query";
      EXPECT_EQ(tp.stab(q).size(), ref) << "endpoint query";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StaticIT,
    ::testing::Combine(::testing::Values(Pattern::kShort, Pattern::kMixed,
                                         Pattern::kNested, Pattern::kPointLike,
                                         Pattern::kSharedEndpoints),
                       ::testing::Values(1, 2, 16, 300, 5000)));

TEST(StaticIT, EmptyTree) {
  std::vector<Interval> none;
  auto t = StaticIntervalTree::build_postsorted(none);
  EXPECT_TRUE(t.stab(0.5).empty());
  EXPECT_EQ(t.stab_count(0.5), 0u);
}

TEST(StaticIT, StabReturnsActualIds) {
  auto ivs = make_intervals(Pattern::kMixed, 500, 33);
  auto t = StaticIntervalTree::build_postsorted(ivs);
  double q = 0.5;
  auto ids = t.stab(q);
  for (uint32_t id : ids) EXPECT_TRUE(ivs[id].contains(q));
}

TEST(StaticIT, Theorem71WriteBound) {
  // Post-sorted construction writes grow ~linearly; the classic baseline
  // grows ~n log n: the ratio must widen and the WE constant stay bounded.
  double prev_ratio = 0;
  for (size_t n : {1ul << 14, 1ul << 17}) {
    auto ivs = make_intervals(Pattern::kMixed, n, 35);
    StaticIntervalTree::Stats sc, sp;
    StaticIntervalTree::build_classic(ivs, &sc);
    StaticIntervalTree::build_postsorted(ivs, &sp);
    EXPECT_LT(sp.cost.writes, sc.cost.writes) << "n=" << n;
    double ratio = double(sc.cost.writes) / double(sp.cost.writes);
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
    EXPECT_LT(sp.cost.writes, 32 * n);
  }
}

TEST(StaticIT, CountingQueryWritesNothing) {
  auto ivs = make_intervals(Pattern::kMixed, 10000, 37);
  auto t = StaticIntervalTree::build_postsorted(ivs);
  asym::Region r;
  t.stab_count(0.5);
  EXPECT_EQ(r.delta().writes, 0u);
}

class DynamicIT : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicIT, MixedWorkloadMatchesBrute) {
  uint64_t alpha = GetParam();
  DynamicIntervalTree t(alpha);
  primitives::Rng rng(39 + alpha);
  std::vector<Interval> alive;
  uint32_t next_id = 0;
  for (size_t op = 0; op < 6000; ++op) {
    uint64_t r = rng.next_bounded(10);
    if (r < 6 || alive.empty()) {
      double a = rng.next_double();
      Interval iv{a, a + rng.next_double() * 0.2, next_id++};
      t.insert(iv);
      alive.push_back(iv);
    } else if (r < 8) {
      size_t i = rng.next_bounded(alive.size());
      ASSERT_TRUE(t.erase(alive[i]));
      alive.erase(alive.begin() + long(i));
    } else {
      double q = rng.next_double();
      ASSERT_EQ(t.stab(q).size(), brute_stab(alive, q)) << "op " << op;
      ASSERT_EQ(t.stab_count(q), brute_stab(alive, q));
    }
  }
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), alive.size());
}

INSTANTIATE_TEST_SUITE_P(Alphas, DynamicIT,
                         ::testing::Values(2, 4, 8, 16, 64));

TEST(DynamicIT, EraseSemantics) {
  DynamicIntervalTree t(4);
  Interval a{0.1, 0.5, 1}, b{0.2, 0.6, 2};
  t.insert(a);
  t.insert(b);
  EXPECT_FALSE(t.erase(Interval{0.1, 0.5, 99}));  // wrong id
  EXPECT_TRUE(t.erase(a));
  EXPECT_FALSE(t.erase(a));  // already erased
  EXPECT_EQ(t.stab(0.3).size(), 1u);
}

TEST(DynamicIT, Corollary72PathStatistics) {
  // The number of critical nodes on any root-leaf path is O(log_alpha n) and
  // the total path length is O(alpha log_alpha n).
  for (uint64_t alpha : {2ull, 8ull}) {
    DynamicIntervalTree t(alpha);
    primitives::Rng rng(41);
    size_t n = 20000;
    for (uint32_t i = 0; i < n; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, i});
    }
    double la = std::log(double(2 * n)) / std::log(double(alpha));
    EXPECT_LE(t.critical_on_path_max(), size_t(4 * la + 10))
        << "alpha=" << alpha;
    EXPECT_LE(t.height(), size_t(double(4 * alpha + 2) * la + 20))
        << "alpha=" << alpha;
  }
}

TEST(DynamicIT, LargerAlphaFewerUpdateWrites) {
  // Theorem 7.4: writes per update scale as log_alpha n.
  size_t n = 30000;
  uint64_t w2, w16;
  for (uint64_t alpha : {2ull, 16ull}) {
    DynamicIntervalTree t(alpha);
    primitives::Rng rng(43);
    // warm up
    for (uint32_t i = 0; i < n; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, i});
    }
    asym::Region r;
    for (uint32_t i = 0; i < 2000; ++i) {
      double a = rng.next_double();
      t.insert(Interval{a, a + 0.01, static_cast<uint32_t>(n + i)});
    }
    (alpha == 2 ? w2 : w16) = r.delta().writes;
  }
  EXPECT_LT(w16, w2);
}

TEST(DynamicIT, BulkInsertMatchesIncremental) {
  primitives::Rng rng(45);
  auto base = make_intervals(Pattern::kMixed, 3000, 47);
  auto batch = make_intervals(Pattern::kShort, 2000, 49);
  for (auto& iv : batch) iv.id += 10000;
  DynamicIntervalTree t(4);
  for (auto& iv : base) t.insert(iv);
  ASSERT_TRUE(t.bulk_insert(batch).ok());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), base.size() + batch.size());
  std::vector<Interval> all = base;
  all.insert(all.end(), batch.begin(), batch.end());
  for (int q = 0; q < 25; ++q) {
    double x = rng.next_double();
    EXPECT_EQ(t.stab(x).size(), brute_stab(all, x));
  }
}

TEST(DynamicIT, BulkInsertIntoEmpty) {
  DynamicIntervalTree t(4);
  auto batch = make_intervals(Pattern::kMixed, 1000, 51);
  ASSERT_TRUE(t.bulk_insert(batch).ok());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), batch.size());
  EXPECT_EQ(t.stab(0.5).size(), brute_stab(batch, 0.5));
}

TEST(DynamicIT, BulkInsertWritesLessThanIncremental) {
  // Section 7.3.5: a large bulk costs fewer writes than one-by-one inserts.
  auto base = make_intervals(Pattern::kMixed, 5000, 53);
  auto batch = make_intervals(Pattern::kMixed, 5000, 55);
  for (auto& iv : batch) iv.id += 100000;
  uint64_t bulk_writes, incr_writes;
  {
    DynamicIntervalTree t(4);
    for (auto& iv : base) t.insert(iv);
    asym::Region r;
    ASSERT_TRUE(t.bulk_insert(batch).ok());
    bulk_writes = r.delta().writes;
  }
  {
    DynamicIntervalTree t(4);
    for (auto& iv : base) t.insert(iv);
    asym::Region r;
    for (auto& iv : batch) t.insert(iv);
    incr_writes = r.delta().writes;
  }
  EXPECT_LT(bulk_writes, incr_writes);
}

// Ids whose home slot equals id0's at every capacity up to 2^12: Fibonacci
// homes are the top bits of one product, so a collision at 4096 slots is
// one at every smaller power of two.
std::vector<uint32_t> colliding_ids(uint32_t id0, size_t count) {
  std::vector<uint32_t> out{id0};
  size_t h = IntervalIdTable::home(id0, 4096);
  for (uint32_t id = id0 + 1; out.size() < count; ++id) {
    if (IntervalIdTable::home(id, 4096) == h) out.push_back(id);
  }
  return out;
}

TEST(IntervalIdTable, MatchesMapOracle) {
  // Interleaved put/overwrite/erase over ids that share home slots, that
  // are multiples of the capacity, and random ones, through several grows.
  IntervalIdTable t;
  std::map<uint32_t, Interval> oracle;
  primitives::Rng rng(57);
  std::vector<uint32_t> pool = colliding_ids(7, 40);
  for (uint32_t k = 0; k < 40; ++k) pool.push_back(k * 1024);
  for (uint32_t k = 0; k < 200; ++k) pool.push_back(uint32_t(rng.next()));
  for (int op = 0; op < 20000; ++op) {
    uint32_t id = pool[rng.next_bounded(pool.size())];
    if (rng.next_bounded(5) < 3) {
      double l = rng.next_double();
      Interval iv{l, l + rng.next_double(), id};
      t.put(iv);
      oracle[id] = iv;
    } else {
      EXPECT_EQ(t.erase(id), oracle.erase(id) == 1) << "op " << op;
    }
    if (op % 500 == 0) {
      ASSERT_EQ(t.size(), oracle.size());
      for (uint32_t q : pool) {
        const IntervalIdTable::Slot* s = t.find(q);
        auto it = oracle.find(q);
        ASSERT_EQ(s != nullptr, it != oracle.end()) << "id " << q;
        if (s != nullptr) {
          EXPECT_TRUE(s->interval() == it->second);
        }
      }
    }
  }
  EXPECT_LE(4 * t.size(), 3 * t.capacity());
}

TEST(IntervalIdTable, BackwardShiftKeepsProbeRunsReachable) {
  // Erasing the head of a run of colliding ids must leave every later one
  // findable (no tombstones stand in for the hole).
  IntervalIdTable t;
  auto ids = colliding_ids(3, 10);
  for (uint32_t id : ids) t.put(Interval{0, 1, id});
  for (size_t k = 0; k < ids.size(); ++k) {
    ASSERT_TRUE(t.erase(ids[k]));
    EXPECT_FALSE(t.erase(ids[k]));
    EXPECT_EQ(t.find(ids[k]), nullptr);
    for (size_t j = k + 1; j < ids.size(); ++j) {
      ASSERT_NE(t.find(ids[j]), nullptr) << "id " << ids[j];
    }
  }
  EXPECT_EQ(t.size(), 0u);
}

TEST(DynamicIT, IdTableEdgeCases) {
  DynamicIntervalTree t(4);
  auto ids = colliding_ids(11, 8);
  auto iv_of = [&](size_t k) {
    return Interval{double(k) / 8, double(k) / 8 + 0.25, ids[k]};
  };
  for (size_t k = 0; k < ids.size(); ++k) t.insert(iv_of(k));
  // A matching id with different endpoints is a soft miss.
  EXPECT_FALSE(t.erase(Interval{0.5, 0.75, ids[0]}));
  auto miss = t.bulk_erase({Interval{0.5, 0.75, ids[1]}});
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value(), 0u);
  EXPECT_EQ(t.size(), ids.size());
  // Erase the run's first ids; the last one is still live and its id is
  // rejected by bulk_insert before any write.
  for (size_t k = 0; k + 1 < ids.size(); ++k) ASSERT_TRUE(t.erase(iv_of(k)));
  auto before = t.live_records();
  Status st = t.bulk_insert({Interval{0.25, 0.5, ids.back()}});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(t.live_records(), before);
  // Erase then re-insert the same id with new endpoints.
  ASSERT_TRUE(t.bulk_insert({Interval{0.75, 0.875, ids[0]}}).ok());
  EXPECT_EQ(t.stab(0.875).size(), 2u);  // with ids.back() = [0.875, 1.125]
  EXPECT_TRUE(t.erase(Interval{0.75, 0.875, ids[0]}));
  t.insert(Interval{0.0, 0.0625, ids[0]});
  EXPECT_EQ(t.stab(0.03125), std::vector<uint32_t>{ids[0]});
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.size(), 2u);
}

std::vector<uint32_t> sorted_stab(const DynamicIntervalTree& t, double q) {
  auto v = t.stab(q);
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<uint32_t> brute_ids(const std::vector<Interval>& ivs, double q) {
  std::vector<uint32_t> out;
  for (const Interval& iv : ivs) {
    if (iv.contains(q)) out.push_back(iv.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(DynamicIT, CopyIsIsolatedFromItsSource) {
  auto base = make_intervals(Pattern::kMixed, 1 << 14, 59);
  DynamicIntervalTree orig(4);
  ASSERT_TRUE(orig.bulk_insert(base).ok());
  primitives::Rng rng(61);
  std::vector<double> qs(512);
  for (double& q : qs) q = rng.next_double();
  auto orig_stabs = orig.stab_batch(qs);
  auto orig_live = orig.live_records();

  DynamicIntervalTree copy = orig;
  std::vector<Interval> alive = base;
  // Small batches into the copy force subtree rebuilds...
  size_t rebuilds0 = copy.rebuilds();
  uint32_t next_id = 1u << 20;
  for (int b = 0; b < 20; ++b) {
    std::vector<Interval> batch(64);
    for (auto& iv : batch) {
      double l = rng.next_double();
      iv = Interval{l, l + rng.next_double() * 0.01, next_id++};
    }
    ASSERT_TRUE(copy.bulk_insert(batch).ok());
    alive.insert(alive.end(), batch.begin(), batch.end());
  }
  EXPECT_GT(copy.rebuilds(), rebuilds0);
  // ...and erasing over half of it forces the half-dead compaction.
  size_t nodes_before = copy.num_nodes();
  std::vector<Interval> gone(alive.begin(), alive.begin() + 9000);
  auto erased = copy.bulk_erase(gone);
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), gone.size());
  alive.erase(alive.begin(), alive.begin() + 9000);
  EXPECT_LT(copy.num_nodes(), nodes_before);

  // The source answers exactly as before the copy existed.
  EXPECT_TRUE(orig.validate());
  EXPECT_EQ(orig.live_records(), orig_live);
  auto again = orig.stab_batch(qs);
  EXPECT_EQ(again.offsets(), orig_stabs.offsets());
  EXPECT_EQ(again.items(), orig_stabs.items());
  // The copy matches a brute-force oracle.
  EXPECT_TRUE(copy.validate());
  EXPECT_EQ(copy.size(), alive.size());
  for (size_t i = 0; i < qs.size(); i += 8) {
    ASSERT_EQ(sorted_stab(copy, qs[i]), brute_ids(alive, qs[i]))
        << "q " << qs[i];
  }
}

TEST(DynamicIT, ChurnReusesTreapPool) {
  // 300 epochs at a fixed live count: freed subtrees and erased entries go
  // back to the pool, so its size tracks the live entries, not the history.
  DynamicIntervalTree t(4);
  primitives::Rng rng(63);
  std::deque<Interval> alive;
  uint32_t next_id = 0;
  auto fresh = [&](size_t n) {
    std::vector<Interval> out(n);
    for (auto& iv : out) {
      double l = rng.next_double();
      iv = Interval{l, l + rng.next_double() * 0.01, next_id++};
    }
    return out;
  };
  auto first = fresh(4096);
  ASSERT_TRUE(t.bulk_insert(first).ok());
  alive.assign(first.begin(), first.end());
  for (int epoch = 0; epoch < 300; ++epoch) {
    std::vector<Interval> gone(alive.begin(), alive.begin() + 128);
    alive.erase(alive.begin(), alive.begin() + 128);
    auto erased = t.bulk_erase(gone);
    ASSERT_TRUE(erased.ok());
    ASSERT_EQ(erased.value(), gone.size());
    auto batch = fresh(128);
    ASSERT_TRUE(t.bulk_insert(batch).ok());
    alive.insert(alive.end(), batch.begin(), batch.end());
    ASSERT_EQ(t.size(), 4096u);
    ASSERT_LE(t.forest_nodes(), 2 * (2 * t.size())) << "epoch " << epoch;
  }
  EXPECT_TRUE(t.validate());
}

}  // namespace
}  // namespace weg::augtree
