// Allocation guard for the flat dynamic interval tree: copying or freeing a
// tree costs a constant number of heap operations, whatever its size. This
// TU replaces the global operator new/delete with counting versions, so an
// owning member added to a node or an id-table slot later (one heap copy
// per node on every shard clone) fails here instead of slowing commits
// silently. No timing is involved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/augtree/interval_tree.h"
#include "src/primitives/random.h"

namespace {
thread_local size_t g_news = 0;
thread_local size_t g_deletes = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept {
  if (p != nullptr) ++g_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace weg::augtree {
namespace {

TEST(IntervalTreeAlloc, CopyAndFreeAreConstantHeapOps) {
  primitives::Rng rng(65);
  std::vector<Interval> ivs(1 << 14);
  for (size_t i = 0; i < ivs.size(); ++i) {
    double l = rng.next_double();
    ivs[i] = Interval{l, l + rng.next_double() * 0.01, uint32_t(i)};
  }
  DynamicIntervalTree t(4);
  ASSERT_TRUE(t.bulk_insert(ivs).ok());
  // Churn so the skeleton's free list and the treap pool's free chain are
  // both non-empty when the copy is taken.
  std::vector<Interval> gone(ivs.begin(), ivs.begin() + 2000);
  ASSERT_TRUE(t.bulk_erase(gone).ok());
  for (uint32_t i = 0; i < 500; ++i) {
    double l = rng.next_double();
    t.insert(Interval{l, l + 0.01, uint32_t(ivs.size()) + i});
  }
  ASSERT_TRUE(t.validate());

  size_t news0 = g_news;
  auto* copy = new DynamicIntervalTree(t);
  size_t copy_news = g_news - news0;
  EXPECT_LE(copy_news, 8u);
  EXPECT_EQ(copy->size(), t.size());
  EXPECT_EQ(copy->stab(0.5), t.stab(0.5));

  size_t deletes0 = g_deletes;
  delete copy;
  EXPECT_LE(g_deletes - deletes0, 8u);
}

}  // namespace
}  // namespace weg::augtree
