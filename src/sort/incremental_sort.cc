#include "src/sort/incremental_sort.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>

#include "src/core/prefix_doubling.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/random.h"
#include "src/primitives/semisort.h"

namespace weg::sort {

namespace {

constexpr uint32_t kEmpty = UINT32_MAX;

// BST node for element e (node index == element index == insertion priority;
// lower index wins priority-writes). `placed` marks slots sealed in earlier
// rounds so late insertions (the WE final round) never displace a real node.
struct Node {
  uint64_t key = 0;
  std::atomic<uint32_t> child[2] = {kEmpty, kEmpty};
  std::atomic<bool> placed{false};
  std::atomic<bool> frozen{false};
};

struct Tree {
  explicit Tree(const std::vector<uint64_t>& keys) : nodes(keys.size()) {
    parallel::parallel_for(0, keys.size(),
                           [&](size_t i) { nodes[i].key = keys[i]; });
  }

  std::vector<Node> nodes;
  std::atomic<uint32_t> root{kEmpty};

  // Strict order on elements: by key, ties by index (so duplicates work).
  bool goes_left(uint32_t e, uint32_t at) const {
    const Node& n = nodes[at];
    return nodes[e].key < n.key || (nodes[e].key == n.key && e < at);
  }

  // Slot encoding: 0 = root, else (node << 1 | side) + 1.
  std::atomic<uint32_t>* slot(uint64_t s) {
    if (s == 0) return &root;
    uint64_t v = s - 1;
    return &nodes[v >> 1].child[v & 1];
  }
  static uint64_t pack_slot(uint32_t node, int side) {
    return ((static_cast<uint64_t>(node) << 1) | static_cast<uint64_t>(side)) +
           1;
  }

  // Priority-write of element e into slot s: wins against empty and against
  // unsealed candidates with larger index; never displaces a placed node.
  // Counting follows Algorithm 1: an element at a slot that was empty at the
  // start of the round executes line 7 and is charged one write (even if a
  // concurrent higher-priority element wins); an element at an occupied slot
  // only reads and descends.
  void attempt(std::atomic<uint32_t>* s, uint32_t e) {
    uint32_t cur = s->load(std::memory_order_relaxed);
    asym::count_read();
    if (cur != kEmpty && nodes[cur].placed.load(std::memory_order_relaxed)) {
      return;  // slot sealed in an earlier round: descend without writing
    }
    asym::count_write();
    while (true) {
      if (cur != kEmpty &&
          (nodes[cur].placed.load(std::memory_order_relaxed) || cur < e)) {
        return;  // lost the priority-write
      }
      if (s->compare_exchange_weak(cur, e, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
        return;
      }
    }
  }

  size_t height() const {
    // Iterative post-order height (uncounted verification helper).
    if (root.load() == kEmpty) return 0;
    struct Frame {
      uint32_t node;
      size_t depth;
    };
    std::vector<Frame> stack{{root.load(), 1}};
    size_t h = 0;
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      h = std::max(h, f.depth);
      for (int s = 0; s < 2; ++s) {
        uint32_t c = nodes[f.node].child[s].load(std::memory_order_relaxed);
        if (c != kEmpty) stack.push_back({c, f.depth + 1});
      }
    }
    return h;
  }

  // In-order traversal of node ids (charged as output writes by the caller).
  void inorder_ids(std::vector<uint32_t>& out) const {
    out.clear();
    out.reserve(nodes.size());
    std::vector<uint32_t> stack;
    uint32_t cur = root.load();
    while (cur != kEmpty || !stack.empty()) {
      while (cur != kEmpty) {
        stack.push_back(cur);
        cur = nodes[cur].child[0].load(std::memory_order_relaxed);
      }
      cur = stack.back();
      stack.pop_back();
      out.push_back(cur);
      cur = nodes[cur].child[1].load(std::memory_order_relaxed);
    }
  }

  void inorder(std::vector<uint64_t>& out) const {
    std::vector<uint32_t> ids;
    inorder_ids(ids);
    out.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) out[i] = nodes[ids[i]].key;
  }
};

// Runs Algorithm 1 in parallel rounds over `elems` (element ids, already in
// priority order by construction since ids are priorities). Every active
// element attempts a priority-write each round and descends one level on
// loss. Returns the number of rounds.
size_t classic_rounds(Tree& tree, std::vector<uint32_t> elems) {
  std::vector<uint64_t> cur_slot(tree.nodes.size());  // task register state
  for (uint32_t e : elems) cur_slot[e] = 0;
  size_t rounds = 0;
  while (!elems.empty()) {
    ++rounds;
    parallel::parallel_for(0, elems.size(), [&](size_t i) {
      uint32_t e = elems[i];
      tree.attempt(tree.slot(cur_slot[e]), e);
    });
    std::vector<uint8_t> done(elems.size());
    parallel::parallel_for(0, elems.size(), [&](size_t i) {
      uint32_t e = elems[i];
      asym::count_read(2);  // slot winner + its key
      uint32_t w = tree.slot(cur_slot[e])->load(std::memory_order_acquire);
      if (w == e) {
        tree.nodes[e].placed.store(true, std::memory_order_release);
        done[i] = 1;
      } else {
        int side = tree.goes_left(e, w) ? 0 : 1;
        cur_slot[e] = Tree::pack_slot(w, side);
        done[i] = 0;
      }
    });
    std::vector<uint32_t> next;
    next.reserve(elems.size());
    for (size_t i = 0; i < elems.size(); ++i) {
      if (!done[i]) next.push_back(elems[i]);
    }
    elems.swap(next);
  }
  return rounds;
}

}  // namespace

std::vector<uint64_t> incremental_sort_classic(
    const std::vector<uint64_t>& keys, SortStats* stats) {
  asym::Region region;
  Tree tree(keys);
  std::vector<uint32_t> elems(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) elems[i] = static_cast<uint32_t>(i);
  size_t rounds = classic_rounds(tree, std::move(elems));
  std::vector<uint64_t> out;
  tree.inorder(out);
  asym::count_write(out.size());  // output
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = 0;
    stats->tree_height = tree.height();
  }
  return out;
}

namespace {

// Shared body of the write-efficient variants: builds the BST with prefix
// doubling + tracing + bucket finishing. Fills rounds/postponed counters.
std::unique_ptr<Tree> build_we_tree(const std::vector<uint64_t>& keys,
                                    size_t cutoff, size_t* total_rounds_out,
                                    size_t* postponed_out);

}  // namespace

std::vector<uint64_t> incremental_sort_we(const std::vector<uint64_t>& keys,
                                          SortStats* stats, size_t cutoff) {
  size_t n = keys.size();
  if (n == 0) {
    if (stats) *stats = SortStats{};
    return {};
  }
  asym::Region region;
  size_t rounds = 0, postponed = 0;
  auto tree = build_we_tree(keys, cutoff, &rounds, &postponed);
  std::vector<uint64_t> out;
  tree->inorder(out);
  asym::count_write(out.size());
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = postponed;
    stats->tree_height = tree->height();
  }
  return out;
}

std::vector<uint32_t> incremental_sort_we_order(
    const std::vector<uint64_t>& keys, SortStats* stats, size_t cutoff) {
  size_t n = keys.size();
  if (n == 0) {
    if (stats) *stats = SortStats{};
    return {};
  }
  asym::Region region;
  size_t rounds = 0, postponed = 0;
  auto tree = build_we_tree(keys, cutoff, &rounds, &postponed);
  std::vector<uint32_t> out;
  tree->inorder_ids(out);
  asym::count_write(out.size());
  if (stats) {
    stats->cost = region.delta();
    stats->rounds = rounds;
    stats->postponed = postponed;
    stats->tree_height = tree->height();
  }
  return out;
}

std::vector<uint32_t> incremental_sort_we_order_anyorder(
    const std::vector<uint64_t>& keys, SortStats* stats) {
  size_t n = keys.size();
  auto perm = primitives::random_permutation(n, 0x5eedb0a7ULL + n);
  std::vector<uint64_t> shuffled(n);
  asym::count_read(n);
  asym::count_write(n);  // the shuffle pass
  for (size_t i = 0; i < n; ++i) shuffled[i] = keys[perm[i]];
  auto order = incremental_sort_we_order(shuffled, stats);
  asym::count_read(n);
  asym::count_write(n);  // compose the permutations
  for (size_t i = 0; i < n; ++i) order[i] = perm[order[i]];
  return order;
}

uint64_t double_to_sortable(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  // Negative doubles: flip all bits; non-negative: flip the sign bit.
  return (bits & 0x8000000000000000ULL) ? ~bits
                                        : bits | 0x8000000000000000ULL;
}

namespace {

std::unique_ptr<Tree> build_we_tree(const std::vector<uint64_t>& keys,
                                    size_t cutoff, size_t* total_rounds_out,
                                    size_t* postponed_out) {
  size_t n = keys.size();
  if (cutoff == 0) {
    double ll = std::log2(std::max(2.0, std::log2(static_cast<double>(n) + 2)));
    cutoff = static_cast<size_t>(4.0 * ll) + 4;  // c3 * log log n
  }
  auto tree_ptr = std::make_unique<Tree>(keys);
  Tree& tree = *tree_ptr;
  auto rounds_spec = core::prefix_doubling_rounds(n);
  size_t total_rounds = 0;
  std::vector<uint32_t> postponed;

  // Initial round: classic Algorithm 1 on the first n/log^2 n keys.
  {
    auto [lo, hi] = rounds_spec[0];
    std::vector<uint32_t> elems(hi - lo);
    for (size_t i = lo; i < hi; ++i) elems[i - lo] = static_cast<uint32_t>(i);
    total_rounds += classic_rounds(tree, std::move(elems));
  }

  // Incremental rounds: trace to bucket, semisort by bucket, resolve buckets.
  for (size_t r = 1; r < rounds_spec.size(); ++r) {
    auto [lo, hi] = rounds_spec[r];
    ++total_rounds;
    struct Traced {
      uint64_t bucket;  // slot encoding; kPostponed for frozen paths
      uint32_t elem;
    };
    constexpr uint64_t kPostponed = UINT64_MAX;
    std::vector<Traced> traced(hi - lo);
    // Step 1 — DAG tracing (Section 3.1, Theorem 3.1) down the search tree:
    // reads only, one bookkeeping write per element to record its bucket.
    parallel::parallel_for(lo, hi, [&](size_t i) {
      uint32_t e = static_cast<uint32_t>(i);
      uint64_t bucket = kPostponed;
      uint32_t w = tree.root.load(std::memory_order_relaxed);
      assert(w != kEmpty);
      while (true) {
        asym::count_read(2);  // node key (+frozen bit) and child slot
        if (tree.nodes[w].frozen.load(std::memory_order_relaxed)) {
          bucket = kPostponed;
          break;
        }
        int side = tree.goes_left(e, w) ? 0 : 1;
        uint32_t c = tree.nodes[w].child[side].load(std::memory_order_relaxed);
        if (c == kEmpty) {
          bucket = Tree::pack_slot(w, side);
          break;
        }
        w = c;
      }
      asym::count_write();  // record (bucket, element)
      traced[i - lo] = Traced{bucket, e};
    });

    // Step 2 — semisort by bucket id. Late rounds trace most keys into few
    // buckets (and frozen paths all share kPostponed), exactly the skew the
    // sampling semisort's heavy-key buckets absorb in O(n).
    auto groups = primitives::semisort_by(
        traced, [](const Traced& t) { return t.bucket; });

    // Step 3 — resolve each bucket locally: sequential BST insertion in
    // priority order starting at the bucket slot (one write per placement).
    // A bucket whose chain exceeds `cutoff` levels freezes its subtree root
    // and postpones the rest.
    std::vector<std::vector<uint32_t>> postponed_per_group(groups.size() - 1);
    parallel::parallel_for(
        0, groups.size() - 1,
        [&](size_t g) {
          size_t glo = groups[g], ghi = groups[g + 1];
          uint64_t bucket = traced[glo].bucket;
          if (bucket == kPostponed) {
            for (size_t i = glo; i < ghi; ++i) {
              postponed_per_group[g].push_back(traced[i].elem);
            }
            return;
          }
          // Bucket contents fit in symmetric memory whp (O(log^2 n)); sort by
          // priority there.
          std::vector<uint32_t> elems;
          elems.reserve(ghi - glo);
          for (size_t i = glo; i < ghi; ++i) elems.push_back(traced[i].elem);
          std::sort(elems.begin(), elems.end());
          uint32_t bucket_root = kEmpty;
          bool frozen = false;
          for (size_t i = 0; i < elems.size(); ++i) {
            uint32_t e = elems[i];
            if (frozen) {
              postponed_per_group[g].push_back(e);
              continue;
            }
            if (bucket_root == kEmpty) {
              asym::count_write();
              tree.slot(bucket)->store(e, std::memory_order_relaxed);
              tree.nodes[e].placed.store(true, std::memory_order_relaxed);
              bucket_root = e;
              continue;
            }
            uint32_t w = bucket_root;
            size_t depth = 1;
            while (true) {
              if (depth > cutoff) {
                frozen = true;
                asym::count_write();
                tree.nodes[bucket_root].frozen.store(
                    true, std::memory_order_relaxed);
                postponed_per_group[g].push_back(e);
                break;
              }
              asym::count_read(2);
              int side = tree.goes_left(e, w) ? 0 : 1;
              uint32_t c =
                  tree.nodes[w].child[side].load(std::memory_order_relaxed);
              if (c == kEmpty) {
                asym::count_write();
                tree.nodes[w].child[side].store(e, std::memory_order_relaxed);
                tree.nodes[e].placed.store(true, std::memory_order_relaxed);
                break;
              }
              w = c;
              ++depth;
            }
          }
        },
        1);
    for (auto& pg : postponed_per_group) {
      postponed.insert(postponed.end(), pg.begin(), pg.end());
    }
  }

  // Final round: insert all postponed keys with the classic algorithm.
  size_t num_postponed = postponed.size();
  if (!postponed.empty()) {
    std::sort(postponed.begin(), postponed.end());
    total_rounds += classic_rounds(tree, std::move(postponed));
  }
  *total_rounds_out = total_rounds;
  *postponed_out = num_postponed;
  return tree_ptr;
}

}  // namespace

}  // namespace weg::sort
