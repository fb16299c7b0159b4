#include "src/augtree/interval_tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "src/parallel/fault.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/semisort.h"
#include "src/primitives/sort.h"
#include "src/sort/incremental_sort.h"

namespace weg::augtree {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// StaticIntervalTree
// ---------------------------------------------------------------------------

size_t StaticIntervalTree::lca(size_t i, size_t j) {
  if (i == j) return i;
  if (i > j) std::swap(i, j);
  int k = std::bit_width(i ^ j);
  return ((j >> k) << k) | (size_t{1} << (k - 1));
}

int StaticIntervalTree::level_of(size_t pos) {
  return std::countr_zero(pos);
}

namespace {

// Shared skeleton setup: m_ = 2^h - 1 >= max(2n, 1).
void setup_shape(size_t num_endpoints, size_t& m, int& h) {
  h = 1;
  m = 1;
  while (m < num_endpoints) {
    m = 2 * m + 1;
    ++h;
  }
}

}  // namespace

StaticIntervalTree StaticIntervalTree::build_postsorted(
    const std::vector<Interval>& ivs, Stats* stats) {
  asym::Region region;
  StaticIntervalTree t;
  t.n_ = ivs.size();
  size_t ne = 2 * t.n_;  // endpoints
  setup_shape(std::max<size_t>(ne, 1), t.m_, t.height_);

  // 1) Write-efficient sort of the endpoint values (Theorem 4.1 sorter).
  // The monotone double->uint64 mapping happens in registers while reading
  // the input, so it costs reads only.
  std::vector<uint64_t> keys(ne);
  parallel::parallel_for(0, t.n_, [&](size_t i) {
    keys[2 * i] = sort::double_to_sortable(ivs[i].l);
    keys[2 * i + 1] = sort::double_to_sortable(ivs[i].r);
  });
  asym::count_read(ne);
  auto order = sort::incremental_sort_we_order(keys);

  // 2) Ranks and sorted key array (O(n) reads/writes). `order` is a
  // permutation, so every iteration writes distinct slots.
  std::vector<uint32_t> rank(ne);
  t.keys_.assign(t.m_, kInf);
  asym::count_read(ne);
  asym::count_write(2 * ne);
  parallel::parallel_for(0, ne, [&](size_t i) {
    rank[order[i]] = static_cast<uint32_t>(i);
    t.keys_[i] = (order[i] & 1) ? ivs[order[i] / 2].r : ivs[order[i] / 2].l;
  });

  // 3) Assign each interval to its node with the O(1) implicit-tree LCA and
  //    sort by (level, endpoint rank) per Section 7.2. Intervals in
  //    endpoint-rank order are simply the left (resp. right) endpoints
  //    filtered out of `order`, so one *stable* counting sort by level
  //    (O(log n) buckets) replaces the general radix sort — the same
  //    O(n log n)-key-range bound, with one pass.
  struct Rec {
    uint32_t pos;    // node (in-order, 1-based)
    uint32_t depth;  // level from the root (counting-sort key)
    uint32_t id;
    double coord;
  };
  int h = t.height_;
  auto build_csr = [&](bool left_side, std::vector<uint32_t>& offsets,
                       std::vector<std::pair<double, uint32_t>>& out) {
    // Intervals in endpoint-rank order.
    std::vector<Rec> rs;
    rs.reserve(t.n_);
    asym::count_read(ne);
    asym::count_write(t.n_);
    for (size_t i = 0; i < ne; ++i) {
      bool is_left = (order[i] & 1) == 0;
      if (is_left != left_side) continue;
      uint32_t iv = order[i] / 2;
      size_t pos = lca(rank[2 * iv] + 1, rank[2 * iv + 1] + 1);
      uint32_t depth = static_cast<uint32_t>((h - 1) - level_of(pos));
      rs.push_back(Rec{static_cast<uint32_t>(pos), depth, iv,
                       left_side ? ivs[iv].l : ivs[iv].r});
    }
    if (!left_side) std::reverse(rs.begin(), rs.end());  // descending r
    // Stable counting sort by level keeps the endpoint-rank order within
    // each level, making every node's intervals contiguous (Section 7.2).
    primitives::counting_sort(rs, static_cast<size_t>(h),
                              [](const Rec& r) { return r.depth; });
    // Scatter into in-order-position-major CSR. Convention: node pos's run
    // is [offsets[pos-1], offsets[pos]).
    offsets.assign(t.m_ + 1, 0);
    for (const Rec& r : rs) ++offsets[r.pos];
    for (size_t p = 1; p <= t.m_; ++p) offsets[p] += offsets[p - 1];
    out.resize(rs.size());
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    asym::count_read(rs.size());
    asym::count_write(rs.size());
    for (const Rec& r : rs) out[cursor[r.pos - 1]++] = {r.coord, r.id};
  };

  // The two CSRs are independent (disjoint outputs, shared read-only
  // inputs), so build them as one fork-join pair.
  parallel::par_do([&] { build_csr(true, t.node_left_off_, t.by_left_); },
                   [&] { build_csr(false, t.node_right_off_, t.by_right_); });

  if (stats) {
    stats->cost = region.delta();
    stats->height = static_cast<size_t>(t.height_);
  }
  return t;
}

StaticIntervalTree StaticIntervalTree::build_classic(
    const std::vector<Interval>& ivs, Stats* stats) {
  asym::Region region;
  StaticIntervalTree t;
  t.n_ = ivs.size();
  size_t ne = 2 * t.n_;
  setup_shape(std::max<size_t>(ne, 1), t.m_, t.height_);

  // Classic: sort the endpoints with the Θ(n log n)-write mergesort.
  std::vector<double> endpoints(ne);
  for (size_t i = 0; i < t.n_; ++i) {
    endpoints[2 * i] = ivs[i].l;
    endpoints[2 * i + 1] = ivs[i].r;
  }
  primitives::sort_inplace(endpoints);
  t.keys_.assign(t.m_, kInf);
  asym::count_write(ne);
  std::copy(endpoints.begin(), endpoints.end(), t.keys_.begin());

  // Recursive partition, copying the interval set at every level (this is
  // the Θ(n log n)-write baseline). The two child partitions touch disjoint
  // per_node slots, so they fork as independent subtree builds down to a
  // sequential cutoff.
  std::vector<std::vector<std::pair<double, uint32_t>>> per_node_l(t.m_ + 1);
  std::vector<std::vector<std::pair<double, uint32_t>>> per_node_r(t.m_ + 1);
  std::vector<uint32_t> all(t.n_);
  for (size_t i = 0; i < t.n_; ++i) all[i] = static_cast<uint32_t>(i);
  auto rec = [&](auto&& self, size_t pos, std::vector<uint32_t> set) -> void {
    if (set.empty()) return;
    double key = t.keys_[pos - 1];
    std::vector<uint32_t> left, right, here;
    asym::count_read(set.size());
    asym::count_write(set.size());  // the copy at this level
    for (uint32_t id : set) {
      if (ivs[id].r < key) {
        left.push_back(id);
      } else if (ivs[id].l > key) {
        right.push_back(id);
      } else {
        here.push_back(id);
      }
    }
    if (!here.empty()) {
      auto& bl = per_node_l[pos];
      auto& br = per_node_r[pos];
      for (uint32_t id : here) {
        bl.emplace_back(ivs[id].l, id);
        br.emplace_back(ivs[id].r, id);
      }
      primitives::sort_inplace(bl);
      primitives::sort_inplace(br);
      std::reverse(br.begin(), br.end());
      asym::count_write(2 * here.size());
    }
    int lvl = level_of(pos);
    if (lvl > 0) {
      size_t step = size_t{1} << (lvl - 1);
      parallel::par_do_if(left.size() + right.size() > parallel::kSeqCutoff,
                          [&] { self(self, pos - step, std::move(left)); },
                          [&] { self(self, pos + step, std::move(right)); });
    }
  };
  rec(rec, t.root_pos(), std::move(all));

  // Flatten into CSR (counted as part of the construction's writes).
  t.node_left_off_.assign(t.m_ + 1, 0);
  t.node_right_off_.assign(t.m_ + 1, 0);
  t.by_left_.reserve(t.n_);
  t.by_right_.reserve(t.n_);
  for (size_t p = 1; p <= t.m_; ++p) {
    t.node_left_off_[p - 1] = static_cast<uint32_t>(t.by_left_.size());
    t.node_right_off_[p - 1] = static_cast<uint32_t>(t.by_right_.size());
    t.by_left_.insert(t.by_left_.end(), per_node_l[p].begin(),
                      per_node_l[p].end());
    t.by_right_.insert(t.by_right_.end(), per_node_r[p].begin(),
                       per_node_r[p].end());
  }
  // Shift offsets: node_left_off_[p] is the start of node (p+1)'s run — fix
  // to the usual CSR convention below.
  t.node_left_off_.back() = static_cast<uint32_t>(t.by_left_.size());
  t.node_right_off_.back() = static_cast<uint32_t>(t.by_right_.size());
  asym::count_write(2 * t.n_);

  if (stats) {
    stats->cost = region.delta();
    stats->height = static_cast<size_t>(t.height_);
  }
  return t;
}

namespace {

// Reporting visitor: scans each run with early exit, one read per scanned
// entry and one output write per reported id (via emit).
template <typename Emit>
struct StaticStabReport {
  const std::vector<std::pair<double, uint32_t>>& by_left;
  const std::vector<std::pair<double, uint32_t>>& by_right;
  double q;
  Emit emit;

  void left_run(size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      asym::count_read();
      if (by_left[i].first > q) break;
      emit(by_left[i].second);
    }
  }
  void right_run(size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      asym::count_read();
      if (by_right[i].first < q) break;
      emit(by_right[i].second);
    }
  }
  void all_run(size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      asym::count_read();
      emit(by_left[i].second);
    }
  }
};

// Counting visitor (Appendix A): binary search in each visited node's sorted
// run — O(log^2 n + duplicate fringe) reads, zero writes.
struct StaticStabCount {
  const std::vector<std::pair<double, uint32_t>>& by_left;
  const std::vector<std::pair<double, uint32_t>>& by_right;
  double q;
  size_t total = 0;

  void left_run(size_t lo, size_t hi) {
    auto it = std::upper_bound(by_left.begin() + lo, by_left.begin() + hi,
                               std::make_pair(q, UINT32_MAX));
    asym::count_read(static_cast<uint64_t>(std::bit_width(hi - lo + 1)));
    total += static_cast<size_t>(it - (by_left.begin() + lo));
  }
  void right_run(size_t lo, size_t hi) {
    // by_right is sorted descending by r.
    auto it = std::lower_bound(by_right.begin() + lo, by_right.begin() + hi, q,
                               [](const std::pair<double, uint32_t>& e,
                                  double v) { return e.first >= v; });
    asym::count_read(static_cast<uint64_t>(std::bit_width(hi - lo + 1)));
    total += static_cast<size_t>(it - (by_right.begin() + lo));
  }
  void all_run(size_t lo, size_t hi) { total += hi - lo; }
};

}  // namespace

template <typename V>
void StaticIntervalTree::stab_visit(double q, V&& vis) const {
  // A NaN stab point is inside no interval; every comparison below would be
  // false, which the forking walk would misread as an exact key match.
  if (n_ == 0 || std::isnan(q)) return;
  // Walk by key comparison; on an exact key match the walk forks into both
  // subtrees (duplicate endpoint values can place storage nodes on either
  // side). The fork is output-sensitive: every node whose key equals q is an
  // endpoint of a *reported* interval, so visits stay O(log n + k).
  auto walk = [&](auto&& self, size_t pos) -> void {
    asym::count_read();
    double key = keys_[pos - 1];
    int lvl = level_of(pos);
    size_t step = lvl > 0 ? (size_t{1} << (lvl - 1)) : 0;
    if (q < key) {
      vis.left_run(node_left_off_[pos - 1], node_left_off_[pos]);
      if (lvl > 0) self(self, pos - step);
    } else if (q > key) {
      vis.right_run(node_right_off_[pos - 1], node_right_off_[pos]);
      if (lvl > 0) self(self, pos + step);
    } else {  // q == key: everything stored here contains q; fork
      vis.all_run(node_left_off_[pos - 1], node_left_off_[pos]);
      if (lvl > 0) {
        self(self, pos - step);
        self(self, pos + step);
      }
    }
  };
  walk(walk, root_pos());
}

std::vector<uint32_t> StaticIntervalTree::stab(double q) const {
  std::vector<uint32_t> out;
  auto emit = [&](uint32_t id) {
    asym::count_write();
    out.push_back(id);
  };
  StaticStabReport<decltype(emit)> vis{by_left_, by_right_, q, emit};
  stab_visit(q, vis);
  return out;
}

size_t StaticIntervalTree::stab_count(double q) const {
  StaticStabCount vis{by_left_, by_right_, q};
  stab_visit(q, vis);
  return vis.total;
}

parallel::BatchResult<uint32_t> StaticIntervalTree::stab_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); },
      [&](size_t i, uint32_t* out) {
        auto emit = [&](uint32_t id) {
          asym::count_write();
          *out++ = id;
        };
        StaticStabReport<decltype(emit)> vis{by_left_, by_right_, qs[i], emit};
        stab_visit(qs[i], vis);
      });
}

std::vector<size_t> StaticIntervalTree::stab_count_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_map<size_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); });
}

bool StaticIntervalTree::validate(const std::vector<Interval>& ivs) const {
  if (by_left_.size() != n_ || by_right_.size() != n_) return false;
  // Every interval appears exactly once in each CSR and contains its node key;
  // runs are sorted.
  std::vector<int> seen(n_, 0);
  for (size_t p = 1; p <= m_; ++p) {
    size_t l0 = node_left_off_[p - 1], l1 = node_left_off_[p];
    double key = keys_[p - 1];
    for (size_t i = l0; i < l1; ++i) {
      uint32_t id = by_left_[i].second;
      ++seen[id];
      if (!(ivs[id].l <= key && key <= ivs[id].r)) return false;
      if (by_left_[i].first != ivs[id].l) return false;
      if (i > l0 && by_left_[i - 1].first > by_left_[i].first) return false;
    }
    size_t r0 = node_right_off_[p - 1], r1 = node_right_off_[p];
    for (size_t i = r0; i < r1; ++i) {
      if (i > r0 && by_right_[i - 1].first < by_right_[i].first) return false;
    }
    if (l1 - l0 != r1 - r0) return false;
  }
  for (int s : seen) {
    if (s != 1) return false;
  }
  return true;
}



// ---------------------------------------------------------------------------
// IntervalIdTable
// ---------------------------------------------------------------------------

size_t IntervalIdTable::home(uint32_t id, size_t capacity) {
  // Fibonacci hashing: the top log2(capacity) bits of id * 2^64/phi.
  int bits = std::countr_zero(capacity);
  if (bits == 0) return 0;
  return static_cast<size_t>((uint64_t{id} * 0x9e3779b97f4a7c15ULL) >>
                             (64 - bits));
}

size_t IntervalIdTable::probe(uint32_t id) const {
  size_t mask = slots_.size() - 1;
  size_t i = home(id, slots_.size());
  while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask;
  return i;
}

const IntervalIdTable::Slot* IntervalIdTable::find(uint32_t id) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[probe(id)];
  return s.used ? &s : nullptr;
}

void IntervalIdTable::grow() {
  std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.used) slots_[probe(s.id)] = s;
  }
}

void IntervalIdTable::put(const Interval& iv) {
  if (4 * (count_ + 1) > 3 * slots_.size()) grow();
  Slot& s = slots_[probe(iv.id)];
  if (!s.used) ++count_;
  s = Slot{iv.l, iv.r, iv.id, 1};
}

bool IntervalIdTable::erase(uint32_t id) {
  if (slots_.empty()) return false;
  size_t mask = slots_.size() - 1;
  size_t hole = probe(id);
  if (!slots_[hole].used) return false;
  // Backward shift: move each later entry of the probe run into the hole
  // unless that would place it before its home slot. The table is never
  // full, so the run ends at an empty slot.
  for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
    size_t h = home(slots_[j].id, slots_.size());
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --count_;
  return true;
}

// ---------------------------------------------------------------------------
// DynamicIntervalTree (Section 7.3)
// ---------------------------------------------------------------------------
//
// Subtree rebuilds keep dead endpoint keys (they are just keys); dead keys
// are dropped only at whole-tree rebuilds, which guarantees every live
// interval can always find a storage node (its own endpoints are live keys
// somewhere in the tree).

void DynamicIntervalTree::insert_key(double key) {
  uint32_t nu = sk_.alloc_leaf();
  sk_.pool[nu].key = key;
  ++node_count_;
  // Equal keys descend right, matching erase's duplicate search.
  auto path = sk_.attach_leaf(nu, [&](const Node& nd) { return key < nd.key; });
  auto at = sk_.bump(path, node_count_);
  if (at.v != kNull) rebuild(at);
}

uint32_t DynamicIntervalTree::find_storage(double l, double r) const {
  uint32_t v = sk_.root;
  while (v != kNull) {
    asym::count_read();
    const Node& nd = sk_.pool[v];
    if (r < nd.key) {
      v = nd.left;
    } else if (l > nd.key) {
      v = nd.right;
    } else {
      return v;  // highest node with key in [l, r]
    }
  }
  return kNull;
}

std::vector<Interval> DynamicIntervalTree::live_records() const {
  std::vector<std::pair<double, bool>> keys;
  std::vector<Interval> out;
  keys.reserve(node_count_);
  out.reserve(live_intervals_);
  collect(sk_.root, keys, out);
  asym::count_write(out.size());
  return out;
}

void DynamicIntervalTree::collect(uint32_t v,
                                  std::vector<std::pair<double, bool>>& keys,
                                  std::vector<Interval>& out_ivs) const {
  sk_.walk_inorder(v, [&](const Node& nd) {
    keys.emplace_back(nd.key, nd.dead);
    forest_.for_each(nd.by_l, [&](double, uint32_t id) {
      const IntervalIdTable::Slot* s = ivs_.find(id);
      assert(s != nullptr);
      out_ivs.push_back(s->interval());
    });
  });
}

uint32_t DynamicIntervalTree::build_marked(
    const std::vector<std::pair<double, bool>>& keys) {
  uint32_t fresh =
      sk_.build_balanced(keys, [](Node& nd, const std::pair<double, bool>& e) {
        nd.key = e.first;
        nd.dead = e.second;
      });
  if (fresh != kNull) sk_.mark_criticals(fresh);
  return fresh;
}

void DynamicIntervalTree::free_nodes(uint32_t v) {
  sk_.free_subtree(v, [&](Node& nd) {
    forest_.free_tree(nd.by_l);
    forest_.free_tree(nd.by_r);
  });
}

void DynamicIntervalTree::rebuild(const AlphaSkeleton<Node>::Rebuild& at) {
  ++sk_.rebuilds;
  std::vector<std::pair<double, bool>> keys;
  std::vector<Interval> collected;
  collect(at.v, keys, collected);
  if (at.parent == kNull) {
    std::erase_if(keys, [](const auto& k) { return k.second; });
    dead_count_ = 0;
    node_count_ = keys.size();
    forest_.clear();  // every treap lives in the tree being rebuilt
    sk_.free_subtree(at.v);
  } else {
    free_nodes(at.v);
  }
  uint32_t fresh = build_marked(keys);
  sk_.splice(at, fresh, keys.size());
  // Reassign the collected intervals within the new subtree (the key set is
  // unchanged for subtree rebuilds, so a storage node always exists).
  for (const Interval& iv : collected) {
    uint32_t u = fresh;
    while (true) {
      assert(u != kNull);
      asym::count_read();
      Node& nd = sk_.pool[u];
      if (iv.r < nd.key) {
        u = nd.left;
      } else if (iv.l > nd.key) {
        u = nd.right;
      } else {
        forest_.insert(nd.by_l, iv.l, iv.id);
        forest_.insert(nd.by_r, iv.r, iv.id);
        break;
      }
    }
  }
}

namespace {

// Shared record validation for the bulk mutation paths: a malformed record
// (non-finite endpoint or l > r) would poison BST key comparisons, so it is
// rejected before the first write. The scan is charged as bulk reads — an
// input-only function, so asym totals stay deterministic.
Status check_interval(const Interval& iv, const char* op) {
  if (!std::isfinite(iv.l) || !std::isfinite(iv.r)) {
    return Status::InvalidArgument(std::string(op) + ": non-finite endpoint" +
                                   " on interval id " + std::to_string(iv.id));
  }
  if (iv.l > iv.r) {
    return Status::InvalidArgument(std::string(op) + ": inverted interval [" +
                                   std::to_string(iv.l) + ", " +
                                   std::to_string(iv.r) + "] id " +
                                   std::to_string(iv.id));
  }
  return Status::Ok();
}

}  // namespace

Status DynamicIntervalTree::bulk_insert(const std::vector<Interval>& batch) {
  if (batch.empty()) return Status::Ok();
  // Validation pass: malformed records and id collisions (within the batch
  // or against a live interval — ivs_[id] would silently clobber the live
  // record and orphan its treap entries) are rejected pre-mutation.
  asym::count_read(batch.size());
  std::unordered_set<uint32_t> seen;
  seen.reserve(batch.size());
  for (const Interval& iv : batch) {
    Status s = check_interval(iv, "bulk_insert");
    if (!s.ok()) return s;
    if (!seen.insert(iv.id).second) {
      return Status::InvalidArgument(
          "bulk_insert: duplicate id " + std::to_string(iv.id) +
          " within batch");
    }
    if (ivs_.find(iv.id) != nullptr) {
      return Status::InvalidArgument(
          "bulk_insert: id " + std::to_string(iv.id) +
          " already live (erase it first)");
    }
  }
  // Allocation fault point: index = endpoint-node demand of this batch.
  if (fault::should_fail("alloc", 2 * batch.size())) {
    return fault::injected("alloc", 2 * batch.size());
  }
  // Register intervals and sort the 2m endpoint keys write-efficiently.
  std::vector<double> keys;
  keys.reserve(2 * batch.size());
  for (const Interval& iv : batch) {
    ivs_.put(iv);
    asym::count_write();
    keys.push_back(iv.l);
    keys.push_back(iv.r);
  }
  {
    std::vector<uint64_t> skeys(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      skeys[i] = sort::double_to_sortable(keys[i]);
    }
    asym::count_read(keys.size());
    auto order = sort::incremental_sort_we_order_anyorder(skeys);
    std::vector<double> sorted(keys.size());
    asym::count_write(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) sorted[i] = keys[order[i]];
    keys.swap(sorted);
  }
  node_count_ += keys.size();
  sk_.root_weight += keys.size();

  // Top-down merge (Section 7.3.5): at each critical node, if the incoming
  // keys would overflow its doubling budget, flatten + merge + rebuild the
  // union in one shot; otherwise bump its weight, split the key range at the
  // node key (binary search; equal keys go right, matching single
  // insertion), and recurse. Secondary nodes split without weight checks.
  std::vector<Interval> displaced;
  auto run = [&](auto&& self, uint32_t v, size_t lo, size_t hi) -> uint32_t {
    if (lo >= hi) return v;
    if (v == kNull) {
      std::vector<std::pair<double, bool>> ks;
      ks.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) ks.emplace_back(keys[i], false);
      return build_marked(ks);
    }
    asym::count_read();
    Node& nd0 = sk_.pool[v];
    if (nd0.critical && nd0.weight + (hi - lo) >= 2 * nd0.init_weight) {
      std::vector<std::pair<double, bool>> old_keys;
      collect(v, old_keys, displaced);
      free_nodes(v);
      std::vector<std::pair<double, bool>> merged;
      merged.reserve(old_keys.size() + (hi - lo));
      size_t i = 0, j = lo;
      asym::count_read(old_keys.size() + (hi - lo));
      asym::count_write(old_keys.size() + (hi - lo));
      while (i < old_keys.size() || j < hi) {
        if (j >= hi || (i < old_keys.size() && old_keys[i].first <= keys[j])) {
          merged.push_back(old_keys[i++]);
        } else {
          merged.emplace_back(keys[j++], false);
        }
      }
      ++sk_.rebuilds;
      return build_marked(merged);
    }
    size_t mid = static_cast<size_t>(
        std::lower_bound(keys.begin() + static_cast<long>(lo),
                         keys.begin() + static_cast<long>(hi), nd0.key) -
        keys.begin());
    asym::count_read(static_cast<uint64_t>(std::bit_width(hi - lo + 1)));
    if (nd0.critical) {
      asym::count_write();
      nd0.weight += (hi - lo);
    }
    uint32_t l = self(self, sk_.pool[v].left, lo, mid);
    uint32_t r = self(self, sk_.pool[v].right, mid, hi);
    sk_.pool[v].left = l;
    sk_.pool[v].right = r;
    return v;
  };
  sk_.root = run(run, sk_.root, 0, keys.size());

  // Assign the batch intervals plus any displaced by rebuilds.
  for (const Interval& iv : batch) store(iv);
  for (const Interval& iv : displaced) store(iv);
  live_intervals_ += batch.size();
  if (sk_.root_weight >= 2 * sk_.root_init) rebuild(sk_.whole());
  return Status::Ok();
}

void DynamicIntervalTree::store(const Interval& iv) {
  uint32_t v = find_storage(iv.l, iv.r);
  assert(v != kNull);
  forest_.insert(sk_.pool[v].by_l, iv.l, iv.id);
  forest_.insert(sk_.pool[v].by_r, iv.r, iv.id);
}

void DynamicIntervalTree::insert(const Interval& iv) {
  ivs_.put(iv);
  asym::count_write();
  insert_key(iv.l);
  insert_key(iv.r);
  store(iv);
  ++live_intervals_;
}

bool DynamicIntervalTree::erase(const Interval& iv) {
  if (!erase_one(iv)) return false;
  maybe_compact();
  return true;
}

Expected<size_t> DynamicIntervalTree::bulk_erase(
    const std::vector<Interval>& batch) {
  // A malformed erase record cannot match a live interval (inserts reject
  // them), so it signals a corrupted batch: reject pre-mutation rather than
  // walking the skeleton with NaN keys. Absent-but-well-formed records stay
  // a soft miss (count 0), preserving the idempotent-erase contract.
  asym::count_read(batch.size());
  for (const Interval& iv : batch) {
    Status s = check_interval(iv, "bulk_erase");
    if (!s.ok()) return s;
  }
  size_t erased = 0;
  for (const Interval& iv : batch) {
    if (erase_one(iv)) ++erased;
  }
  if (erased > 0) maybe_compact();
  return erased;
}

void DynamicIntervalTree::maybe_compact() {
  if (dead_count_ * 2 >= node_count_ && node_count_ > 16) {
    rebuild(sk_.whole());
  }
}

bool DynamicIntervalTree::erase_one(const Interval& iv) {
  const IntervalIdTable::Slot* s = ivs_.find(iv.id);
  if (s == nullptr || !(s->interval() == iv)) return false;
  uint32_t v = find_storage(iv.l, iv.r);
  if (v == kNull) return false;
  if (!forest_.erase(sk_.pool[v].by_l, iv.l, iv.id)) return false;
  forest_.erase(sk_.pool[v].by_r, iv.r, iv.id);
  ivs_.erase(iv.id);
  --live_intervals_;
  // Mark one endpoint node per endpoint dead (duplicates descend right).
  auto mark_dead = [&](double key) {
    uint32_t u = sk_.root;
    while (u != kNull) {
      asym::count_read();
      Node& nd = sk_.pool[u];
      if (key < nd.key) {
        u = nd.left;
      } else if (key > nd.key) {
        u = nd.right;
      } else if (nd.dead) {
        u = nd.right;  // an equal, not-yet-dead key lies further right
      } else {
        asym::count_write();
        nd.dead = true;
        ++dead_count_;
        return;
      }
    }
  };
  mark_dead(iv.l);
  mark_dead(iv.r);
  return true;
}

template <typename F>
void DynamicIntervalTree::stab_visit(double q, F&& emit) const {
  // A NaN stab point is inside no interval (see the static tree's guard).
  if (std::isnan(q)) return;
  uint32_t v = sk_.root;
  while (v != kNull) {
    asym::count_read();
    const Node& nd = sk_.pool[v];
    if (q < nd.key) {
      forest_.report_leq(nd.by_l, q, [&](double, uint32_t id) { emit(id); });
      v = nd.left;
    } else if (q > nd.key) {
      forest_.report_geq(nd.by_r, q, [&](double, uint32_t id) { emit(id); });
      v = nd.right;
    } else {
      forest_.for_each(nd.by_l, [&](double, uint32_t id) { emit(id); });
      v = nd.right;  // equal keys (with their own intervals) lie right
    }
  }
}

std::vector<uint32_t> DynamicIntervalTree::stab(double q) const {
  std::vector<uint32_t> out;
  stab_visit(q, [&](uint32_t id) {
    asym::count_write();
    out.push_back(id);
  });
  return out;
}

size_t DynamicIntervalTree::stab_count(double q) const {
  size_t total = 0;
  stab_visit(q, [&](uint32_t) { ++total; });
  return total;
}

parallel::BatchResult<uint32_t> DynamicIntervalTree::stab_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); },
      [&](size_t i, uint32_t* out) {
        stab_visit(qs[i], [&](uint32_t id) {
          asym::count_write();
          *out++ = id;
        });
      });
}

std::vector<size_t> DynamicIntervalTree::stab_count_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_map<size_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); });
}

size_t DynamicIntervalTree::critical_on_path_max() const {
  auto rec = [&](auto&& self, uint32_t v) -> size_t {
    if (v == kNull) return 0;
    size_t below =
        std::max(self(self, sk_.pool[v].left), self(self, sk_.pool[v].right));
    return below + (sk_.pool[v].critical ? 1 : 0);
  };
  return rec(rec, sk_.root);
}

bool DynamicIntervalTree::validate() const {
  if (sk_.root == kNull) return live_intervals_ == 0;
  bool ok = true;
  size_t stored = 0;
  // BST order, treap invariants, intervals contain their node key, critical
  // weights equal true subtree weights as tracked.
  auto rec = [&](auto&& self, uint32_t v, double lo, double hi) -> uint64_t {
    if (v == kNull) return 1;
    const Node& nd = sk_.pool[v];
    if (!(nd.key >= lo && nd.key <= hi)) ok = false;
    ok = ok && forest_.validate(nd.by_l) && forest_.validate(nd.by_r);
    forest_.for_each(nd.by_l, [&](double, uint32_t id) {
      const IntervalIdTable::Slot* s = ivs_.find(id);
      if (s == nullptr || !s->interval().contains(nd.key)) ok = false;
      ++stored;
    });
    uint64_t w = self(self, nd.left, lo, nd.key) +
                 self(self, nd.right, nd.key, hi);
    if (nd.critical && nd.weight != w) ok = false;
    return w;
  };
  uint64_t w = rec(rec, sk_.root,
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity());
  if (w != sk_.root_weight) ok = false;
  if (stored != live_intervals_) ok = false;
  return ok;
}

}  // namespace weg::augtree
