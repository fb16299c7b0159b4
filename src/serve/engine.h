// Asynchronous pipelined serving engine over the sharded epoch layer.
//
// The synchronous loop in examples/sharded_server.cpp (stage -> commit ->
// query) serializes updates against reads. This engine pipelines them:
//
//   producers --try_push--> [bounded MPSC queues]      (admission control)
//                               |
//                           batcher thread             (size/deadline flush)
//                  query batches on   |  epoch hand-off
//                  a pinned snapshot  |  to committer thread
//                           |         |         |
//                  one Sharded: published immutable Version
//
// One versioned layer: the engine owns ONE Sharded. Every query batch pins
// the published Version (Sharded::snapshot()) and runs on it start to
// finish, while the committer applies epoch N+1 (validation + shadow-clone
// apply of the touched shards, plain Sharded::commit()) and publishes the
// next Version by one pointer swap. The committer then completes the
// epoch's update requests itself, so a client that saw its update commit
// at version v only ever queries versions >= v. Readers and the writer
// share untouched shards by pointer and never mutate a published Version,
// so the only synchronization is the queue hand-off, the publish swap, and
// one small mutex around the commit hand-off.
//
// Per-request failure isolation: each request completes with its own
// weg::Expected<T>. Malformed update records (non-finite coordinates,
// inverted intervals, ids duplicated within the forming epoch) are screened
// at admission-to-epoch time and fail only their own request; a poisoned
// query batch (fault injection) falls back to per-query re-execution so only
// the requests whose own sub-batch trips the fault see its Status. Structure-
// level rejects the engine cannot pre-screen (an id already live in a shard)
// still fail the whole epoch after cfg.commit_retries attempts — a
// documented limitation (docs/SERVING.md).
//
// One flush core: trace replay and the live threads share the request
// types (PendingQuery, PendingUpdate), the trigger rule (flush_trigger),
// the query flush (flush_queries) and the epoch path (form_epoch ->
// commit_epoch). The modes differ only in the time they pass in — the
// trace's logical at_us or the wall clock — and in where an epoch commits:
// inline in run_trace(), on the committer thread live. A live commit takes
// time, so the live batcher also waits for a free committer and holds a
// partial epoch for group commit (partial_epoch_due).
//
// Determinism contract: run_trace() replays a fixed request trace on the
// caller's thread — admission decisions, batch boundaries, versions, and
// query results are a pure function of (trace, config), bitwise-identical
// at every WEG_NUM_THREADS. Live mode (start()/submit_*) runs the same
// core against the wall clock: deadlines then affect batch boundaries,
// never results.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/parallel/sharded.h"
#include "src/serve/bounded_queue.h"

namespace weg::serve {

// Tuning knobs. docs/SERVING.md discusses the trade-offs.
struct Config {
  size_t queue_capacity = 4096;  // per admission queue (queries, updates)
  size_t max_batch = 256;        // size-triggered flush threshold
  uint64_t max_delay_us = 500;   // deadline flush: oldest waiter's max wait
  size_t knn_k = 8;              // k served by point engines' kNN family
  int commit_retries = 2;        // extra commit attempts before propagating
};

// The query family one engine serves per structure: Query in, a slice of
// Items out, executed on one pinned Version of the sharded layer.
template <typename Structure>
struct ServeTraits;

template <>
struct ServeTraits<augtree::DynamicIntervalTree> {
  using Query = double;    // 1D stabbing query
  using Item = uint32_t;   // ids of stabbed intervals
  static parallel::BatchResult<Item> run(
      const parallel::ShardedVersion<augtree::DynamicIntervalTree>& v,
      const std::vector<Query>& qs, const Config&) {
    return v.stab_batch(qs);
  }
};

template <int K>
struct ServeTraits<kdtree::LogForest<K>> {
  using Query = geom::PointK<K>;  // kNN probe point
  using Item = geom::PointK<K>;
  static parallel::BatchResult<Item> run(
      const parallel::ShardedVersion<kdtree::LogForest<K>>& v,
      const std::vector<Query>& qs, const Config& cfg) {
    return v.knn_batch(qs, cfg.knn_k);
  }
};

// A completed query: the result slice plus the epoch it was served at.
template <typename Item>
struct QueryReplyT {
  std::vector<Item> items;
  uint64_t version = 0;
};

enum class RequestKind : uint8_t { kQuery, kInsert, kErase };

// One event of a deterministic replay trace: at logical time `at_us`, a
// producer submits a query or an update.
template <typename Structure>
struct TraceEvent {
  RequestKind kind = RequestKind::kQuery;
  uint64_t at_us = 0;
  typename ServeTraits<Structure>::Query query{};
  typename parallel::Sharded<Structure>::Record rec{};
};

// Per-request completion of a trace replay. `status` is the request's own
// outcome (admission reject, validation reject, commit/query failure);
// `version` is the snapshot a query ran against or the epoch an update
// committed at; `completed_at_us` is the logical flush time (== the event
// time for admission rejects).
template <typename Structure>
struct TraceOutcome {
  Status status = Status::Ok();
  std::vector<typename ServeTraits<Structure>::Item> items;
  uint64_t version = 0;
  uint64_t admitted_at_us = 0;
  uint64_t completed_at_us = 0;
};

// Engine statistics. Plain-value snapshot; collected with stats().
struct Stats {
  uint64_t queries_admitted = 0;
  uint64_t queries_rejected = 0;  // admission-queue full
  uint64_t updates_admitted = 0;
  uint64_t updates_rejected = 0;
  uint64_t requests_failed = 0;  // completed with a non-OK Status
  uint64_t query_batches = 0;
  uint64_t size_flushes = 0;      // batch reached max_batch
  uint64_t deadline_flushes = 0;  // oldest waiter reached max_delay_us
  uint64_t drain_flushes = 0;     // shutdown / trace-end drain
  uint64_t epochs_committed = 0;
  uint64_t epochs_failed = 0;
  uint64_t commit_retries = 0;
  // Query batches that ran while a commit was in flight — the
  // pipeline-overlap evidence the bench reports.
  uint64_t overlap_batches = 0;
  // Bucket b counts flushed batches with bit_width(size) == b (size 1 ->
  // bucket 1, 2-3 -> 2, 4-7 -> 3, ...).
  std::array<uint64_t, 20> batch_size_hist{};

  double epoch_overlap_ratio() const {
    return query_batches == 0
               ? 0.0
               : static_cast<double>(overlap_batches) /
                     static_cast<double>(query_batches);
  }
};

// The serving engine. One instance serves one Structure family; see
// ServeTraits for the query each family answers. Control calls (start,
// stop, bulk_load, run_trace) must come from one thread; submit_* may be
// called from any number of producer threads while running.
template <typename Structure>
class Engine {
 public:
  using Traits = ServeTraits<Structure>;
  using Record = typename parallel::Sharded<Structure>::Record;
  using Query = typename Traits::Query;
  using Item = typename Traits::Item;
  using QueryReply = QueryReplyT<Item>;
  using Event = TraceEvent<Structure>;
  using Outcome = TraceOutcome<Structure>;

  template <typename... Args>
  Engine(const Config& cfg, parallel::Routing routing, size_t fanout,
         const Args&... args)
      : cfg_(cfg),
        layer_(routing, fanout, args...),
        query_q_(cfg.queue_capacity),
        update_q_(cfg.queue_capacity),
        start_tp_(std::chrono::steady_clock::now()) {}
  template <typename... Args>
  Engine(const Config& cfg, size_t fanout, const Args&... args)
      : Engine(cfg, parallel::Routing::kHash, fanout, args...) {}

  ~Engine() { stop(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Initial data load, one bulk epoch. FailedPrecondition while running:
  // the committer is then the layer's only writer.
  Status bulk_load(const std::vector<Record>& recs) {
    if (running_) return Status::FailedPrecondition(kRunningMsg);
    return layer_.bulk_insert(recs);
  }

  // --- live mode --------------------------------------------------------

  // Spawns the batcher + committer threads (two scheduler-external root
  // threads, see src/parallel/scheduler.h). No-op if already running.
  void start() {
    if (running_) return;
    stop_requested_.store(false, std::memory_order_release);
    accepting_.store(true, std::memory_order_release);
    batcher_ = std::thread([this] { batcher_loop(); });
    committer_ = std::thread([this] { committer_loop(); });
    running_ = true;
  }

  // Drains both queues, flushes the forming batches, completes every
  // in-flight request, and joins both threads. Idempotent.
  void stop() {
    if (!running_) return;
    accepting_.store(false, std::memory_order_release);
    stop_requested_.store(true, std::memory_order_release);
    poke();
    batcher_.join();  // signals committer exit after the final epoch
    committer_.join();
    running_ = false;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      committer_exit_ = false;  // allow a restart
    }
    // A producer racing stop() may have slipped a request in after the
    // batcher's final drain; fail it rather than leave its future hanging.
    fail_leftovers(query_q_);
    fail_leftovers(update_q_);
  }

  bool running() const { return running_; }

  std::future<Expected<QueryReply>> submit_query(const Query& q) {
    PendingQuery r;
    r.query = q;
    return submit(query_q_, std::move(r), queries_admitted_, queries_rejected_);
  }

  std::future<Expected<uint64_t>> submit_insert(const Record& rec) {
    return submit_update(RequestKind::kInsert, rec);
  }
  std::future<Expected<uint64_t>> submit_erase(const Record& rec) {
    return submit_update(RequestKind::kErase, rec);
  }

  // --- trace mode -------------------------------------------------------

  // Deterministic replay of `trace` on the calling thread, with the trace's
  // at_us as the clock. Each event is one batcher pass: first every
  // deadline due by its time fires, in deadline order (queries before
  // updates on ties), then the event is admitted and a full batch flushes.
  // After the last event the rest drains, each batch at its own deadline.
  // Admission rejects when the pending batch already holds queue_capacity
  // requests. Failures are outcomes: an event earlier than the one before
  // it fails alone with InvalidArgument and is not admitted, and a call
  // while the engine runs fails every event with FailedPrecondition and
  // leaves the layer untouched. The result is a pure function of (trace,
  // config): bitwise-identical at every worker count.
  std::vector<Outcome> run_trace(const std::vector<Event>& trace) {
    std::vector<Outcome> out(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      out[i].admitted_at_us = out[i].completed_at_us = trace[i].at_us;
    }
    if (running_) {
      for (Outcome& o : out) o.status = Status::FailedPrecondition(kRunningMsg);
      return out;
    }
    std::vector<PendingQuery> pq;
    std::vector<PendingUpdate> pu;
    // Trace position and reply of every request in pq / pu.
    std::vector<std::pair<size_t, std::future<Expected<QueryReply>>>> qwait;
    std::vector<std::pair<size_t, std::future<Expected<uint64_t>>>> uwait;

    // The core completes each flushed request; its reply becomes the
    // request's outcome, stamped with the logical flush time `when`.
    auto flush_q = [&](std::atomic<uint64_t>* why, uint64_t when) {
      const uint64_t ver = layer_.version();  // the snapshot the batch pins
      flush_queries(pq, why);
      for (auto& [i, fut] : qwait) {
        Expected<QueryReply> r = fut.get();
        out[i].completed_at_us = when;
        out[i].version = ver;  // also reported by a failed query
        if (r.ok()) {
          out[i].items = std::move(r.value().items);
        } else {
          out[i].status = r.status();
        }
      }
      qwait.clear();
    };
    auto flush_u = [&](std::atomic<uint64_t>* why, uint64_t when) {
      Epoch ep = form_epoch(pu, why);
      if (!ep.requests.empty()) commit_epoch(ep);
      for (auto& [i, fut] : uwait) {
        Expected<uint64_t> r = fut.get();
        out[i].completed_at_us = when;
        if (r.ok()) {
          out[i].version = r.value();
        } else {
          out[i].status = r.status();
        }
      }
      uwait.clear();
    };
    // One batcher pass at logical time `now`: queries, then the epoch.
    auto pass = [&](uint64_t now) {
      if (auto* why = flush_trigger(pq, now, false)) flush_q(why, now);
      if (auto* why = flush_trigger(pu, now, false)) flush_u(why, now);
    };

    uint64_t clock = 0;  // time of the latest in-order event
    for (size_t i = 0; i < trace.size(); ++i) {
      const Event& ev = trace[i];
      if (ev.at_us < clock) {
        out[i].status = Status::InvalidArgument(
            "trace event " + std::to_string(i) + " at " +
            std::to_string(ev.at_us) + " us precedes an earlier event at " +
            std::to_string(clock) + " us");
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      clock = ev.at_us;
      for (uint64_t d; (d = std::min(deadline(pq), deadline(pu))) <= clock;) {
        pass(d);
      }
      const bool query = ev.kind == RequestKind::kQuery;
      if ((query ? pq.size() : pu.size()) >= cfg_.queue_capacity) {
        out[i].status = queue_full(query);
        (query ? queries_rejected_ : updates_rejected_)
            .fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (query) {
        PendingQuery r{ev.query, clock, {}};
        qwait.emplace_back(i, r.done.get_future());
        pq.push_back(std::move(r));
        queries_admitted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        PendingUpdate r{ev.kind, ev.rec, clock, {}};
        uwait.emplace_back(i, r.done.get_future());
        pu.push_back(std::move(r));
        updates_admitted_.fetch_add(1, std::memory_order_relaxed);
      }
      pass(clock);
    }
    // End-of-trace drain: nothing is due at `clock` any more, so the rule
    // names each batch a drain flush; it completes at its own deadline.
    while (!pq.empty() || !pu.empty()) {
      const uint64_t dq = deadline(pq), du = deadline(pu);
      if (dq <= du) {
        flush_q(flush_trigger(pq, clock, true), dq);
      } else {
        flush_u(flush_trigger(pu, clock, true), du);
      }
    }
    return out;
  }

  // --- introspection ----------------------------------------------------

  // The published Version, safe from any thread while the engine runs: a
  // snapshot keeps answering from its Version across later commits.
  parallel::ShardedSnapshot<Structure> snapshot() const {
    return layer_.snapshot();
  }
  uint64_t version() const { return layer_.version(); }
  size_t size() const { return layer_.size(); }

  Stats stats() const {
    Stats s;
    auto ld = [](const std::atomic<uint64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    s.queries_admitted = ld(queries_admitted_);
    s.queries_rejected = ld(queries_rejected_);
    s.updates_admitted = ld(updates_admitted_);
    s.updates_rejected = ld(updates_rejected_);
    s.requests_failed = ld(requests_failed_);
    s.query_batches = ld(query_batches_);
    s.size_flushes = ld(size_flushes_);
    s.deadline_flushes = ld(deadline_flushes_);
    s.drain_flushes = ld(drain_flushes_);
    s.epochs_committed = ld(epochs_committed_);
    s.epochs_failed = ld(epochs_failed_);
    s.commit_retries = ld(commit_retries_);
    s.overlap_batches = ld(overlap_batches_);
    for (size_t b = 0; b < s.batch_size_hist.size(); ++b) {
      s.batch_size_hist[b] = ld(batch_size_hist_[b]);
    }
    return s;
  }

 private:
  // --- the flush core, shared by trace replay and the live threads -------

  // A request waiting in an admission queue or a forming batch.
  // `admitted_us` is the wall clock live and the event's at_us in a trace.
  struct PendingQuery {
    Query query{};
    uint64_t admitted_us = 0;
    std::promise<Expected<QueryReply>> done;
  };
  struct PendingUpdate {
    RequestKind kind = RequestKind::kInsert;
    Record rec{};
    uint64_t admitted_us = 0;
    std::promise<Expected<uint64_t>> done;
  };
  // One screened epoch: the records to apply and the requests they answer.
  // Live, the batcher hands it to the committer under commit_mu_.
  struct Epoch {
    std::vector<Record> inserts, erases;
    std::vector<PendingUpdate> requests;
  };

  static constexpr uint64_t kNever = ~uint64_t{0};
  static constexpr const char* kRunningMsg =
      "serving engine is running; stop() it first";

  // When the oldest waiter of `pend` reaches max_delay_us; kNever if empty.
  template <typename Req>
  uint64_t deadline(const std::vector<Req>& pend) const {
    return pend.empty() ? kNever
                        : pend.front().admitted_us + cfg_.max_delay_us;
  }

  // The trigger rule: whether `pend` flushes at time `now`, as the Stats
  // counter naming why — full (size), its deadline passed (deadline) or
  // the engine is draining (drain) — or nullptr while it keeps waiting.
  template <typename Req>
  std::atomic<uint64_t>* flush_trigger(const std::vector<Req>& pend,
                                       uint64_t now, bool stopping) {
    if (pend.empty()) return nullptr;
    if (pend.size() >= cfg_.max_batch) return &size_flushes_;
    if (now >= deadline(pend)) return &deadline_flushes_;
    return stopping ? &drain_flushes_ : nullptr;
  }

  void note_batch(size_t n, std::atomic<uint64_t>* trigger_ctr) {
    trigger_ctr->fetch_add(1, std::memory_order_relaxed);
    size_t b = std::min<size_t>(std::bit_width(n), batch_size_hist_.size() - 1);
    batch_size_hist_[b].fetch_add(1, std::memory_order_relaxed);
  }

  // Runs `batch` on one pinned snapshot and completes every request. A
  // poisoned batch falls back to re-running each query alone, so only the
  // requests whose own sub-batch trips the fault see its Status.
  void flush_queries(std::vector<PendingQuery>& batch,
                     std::atomic<uint64_t>* trigger_ctr) {
    note_batch(batch.size(), trigger_ctr);
    bool overlap = committing();
    auto snap = layer_.snapshot();
    std::vector<Query> qs;
    qs.reserve(batch.size());
    for (const PendingQuery& r : batch) qs.push_back(r.query);
    parallel::BatchResult<Item> res = Traits::run(*snap, qs, cfg_);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (res.ok()) {
        batch[i].done.set_value(
            Expected<QueryReply>(QueryReply{res.result(i), snap->version()}));
        continue;
      }
      parallel::BatchResult<Item> one = Traits::run(*snap, {qs[i]}, cfg_);
      if (one.ok()) {
        batch[i].done.set_value(
            Expected<QueryReply>(QueryReply{one.result(0), snap->version()}));
      } else {
        batch[i].done.set_value(Expected<QueryReply>(one.status()));
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (overlap) overlap_batches_.fetch_add(1, std::memory_order_relaxed);
    query_batches_.fetch_add(1, std::memory_order_relaxed);
    batch.clear();
  }

  // Admission-to-epoch screening of the pending updates: validates each
  // record and rejects ids duplicated within the forming epoch, so a
  // malformed request fails alone instead of poisoning the commit. Returns
  // the epoch of the rest; empties `pu`.
  Epoch form_epoch(std::vector<PendingUpdate>& pu,
                   std::atomic<uint64_t>* trigger_ctr) {
    note_batch(pu.size(), trigger_ctr);
    Epoch ep;
    std::unordered_set<uint32_t> epoch_ids;
    for (size_t i = 0; i < pu.size(); ++i) {
      PendingUpdate& u = pu[i];
      Status s = parallel::Sharded<Structure>::validate(u.rec, i);
      if constexpr (requires(const Record& r) { r.id; }) {
        if (s.ok() && u.kind == RequestKind::kInsert &&
            !epoch_ids.insert(u.rec.id).second) {
          s = Status::InvalidArgument("submitted record " + std::to_string(i) +
                                      ": duplicate id " +
                                      std::to_string(u.rec.id) +
                                      " within epoch");
        }
      }
      if (!s.ok()) {
        u.done.set_value(Expected<uint64_t>(std::move(s)));
        requests_failed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      (u.kind == RequestKind::kInsert ? ep.inserts : ep.erases)
          .push_back(u.rec);
      ep.requests.push_back(std::move(u));
    }
    pu.clear();
    return ep;
  }

  // Stages the epoch and commits it, retrying up to cfg_.commit_retries
  // extra times (transient faults); on final failure the staged buffers
  // are dropped and the layer still publishes its old Version (Sharded's
  // all-or-nothing contract). Then completes every request of the epoch.
  void commit_epoch(Epoch& ep) {
    for (const Record& r : ep.inserts) layer_.stage_insert(r);
    for (const Record& r : ep.erases) layer_.stage_erase(r);
    Expected<uint64_t> v = layer_.commit();
    for (int attempt = 0; !v.ok() && attempt < cfg_.commit_retries;
         ++attempt) {
      commit_retries_.fetch_add(1, std::memory_order_relaxed);
      v = layer_.commit();
    }
    if (v.ok()) {
      epochs_committed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      layer_.discard_staged();
      epochs_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    for (PendingUpdate& u : ep.requests) {
      u.done.set_value(v);
      if (!v.ok()) requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  static Status queue_full(bool query) {
    return Status::ResourceExhausted(query ? "query admission queue full"
                                           : "update admission queue full");
  }

  // --- live-mode internals ----------------------------------------------

  uint64_t now_us() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_tp_)
            .count());
  }

  std::future<Expected<uint64_t>> submit_update(RequestKind kind,
                                                const Record& rec) {
    PendingUpdate r;
    r.kind = kind;
    r.rec = rec;
    return submit(update_q_, std::move(r), updates_admitted_,
                  updates_rejected_);
  }

  template <typename Req>
  auto submit(BoundedMpscQueue<Req>& q, Req r, std::atomic<uint64_t>& admitted,
              std::atomic<uint64_t>& rejected) {
    r.admitted_us = now_us();
    auto fut = r.done.get_future();
    if (!accepting_.load(std::memory_order_acquire)) {
      r.done.set_value(
          Status::FailedPrecondition("serving engine is not running"));
      return fut;
    }
    if (!q.try_push(r)) {
      rejected.fetch_add(1, std::memory_order_relaxed);
      r.done.set_value(queue_full(std::is_same_v<Req, PendingQuery>));
      return fut;
    }
    admitted.fetch_add(1, std::memory_order_relaxed);
    poke();
    return fut;
  }

  template <typename Req>
  void fail_leftovers(BoundedMpscQueue<Req>& q) {
    std::vector<Req> left;
    q.drain_into(left, ~size_t{0});
    for (Req& r : left) {
      r.done.set_value(Status::FailedPrecondition("serving engine stopped"));
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void poke() {
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      wake_pending_ = true;
    }
    wake_cv_.notify_all();
  }

  bool committing() const {
    return committing_.load(std::memory_order_relaxed);
  }

  // Group commit (live mode): a partial epoch keeps gathering updates until
  // the committer has been free for max_delay_us. Every commit clones the
  // shards it touches whatever the epoch's size, so under load this keeps
  // epochs full instead of committing whatever arrived during the previous
  // commit; at low load the committer has long been free and the rule is
  // the plain deadline. Trace replay commits inline, in no logical time,
  // and keeps the plain rule.
  uint64_t partial_epoch_due() const {
    return commit_done_us_.load(std::memory_order_relaxed) + cfg_.max_delay_us;
  }

  void batcher_loop() {
    std::vector<PendingQuery> pq;
    std::vector<PendingUpdate> pu;
    for (;;) {
      bool stopping = stop_requested_.load(std::memory_order_acquire);
      if (pq.size() < cfg_.max_batch) {
        query_q_.drain_into(pq, cfg_.max_batch - pq.size());
      }
      if (pu.size() < cfg_.max_batch) {
        update_q_.drain_into(pu, cfg_.max_batch - pu.size());
      }
      uint64_t now = now_us();
      if (auto* why = flush_trigger(pq, now, stopping)) flush_queries(pq, why);
      if (!committing()) {
        auto* why = flush_trigger(pu, now, stopping);
        if (why == &deadline_flushes_ && now < partial_epoch_due()) {
          why = nullptr;
        }
        if (why) hand_off(form_epoch(pu, why));
      }
      if (stopping && pq.empty() && pu.empty() && query_q_.empty() &&
          update_q_.empty() && !committing()) {
        break;
      }
      wait_for_work(pq, pu, stopping);
    }
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      committer_exit_ = true;
    }
    commit_cv_.notify_all();
  }

  void hand_off(Epoch ep) {
    if (ep.requests.empty()) return;
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      inflight_ = std::move(ep);
      committing_.store(true, std::memory_order_relaxed);
    }
    commit_cv_.notify_all();
  }

  // Commits each handed-off epoch, which publishes its Version and
  // completes the epoch's requests, then frees the batcher to hand off the
  // next one.
  void committer_loop() {
    std::unique_lock<std::mutex> lk(commit_mu_);
    for (;;) {
      commit_cv_.wait(lk, [&] { return committer_exit_ || committing(); });
      if (!committing()) break;
      Epoch ep = std::move(inflight_);
      lk.unlock();
      commit_epoch(ep);
      lk.lock();
      commit_done_us_.store(now_us(), std::memory_order_relaxed);
      committing_.store(false, std::memory_order_relaxed);
      // poke() takes wake_mu_; never hold commit_mu_ across it.
      lk.unlock();
      poke();
      lk.lock();
    }
  }

  void wait_for_work(const std::vector<PendingQuery>& pq,
                     const std::vector<PendingUpdate>& pu, bool stopping) {
    bool commit_ready = !committing();
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (wake_pending_) {
      wake_pending_ = false;
      return;
    }
    uint64_t now = now_us();
    constexpr uint64_t kIdleWaitUs = 5000;
    uint64_t next = std::min(now + kIdleWaitUs, deadline(pq));
    // An update deadline only matters when the committer could accept the
    // epoch; otherwise the committer's completion poke is the wake signal.
    if (commit_ready) {
      next = std::min(next, std::max(deadline(pu), partial_epoch_due()));
    }
    if (stopping) next = std::min(next, now + 200);
    if (next <= now) return;
    wake_cv_.wait_for(lk, std::chrono::microseconds(next - now));
    wake_pending_ = false;
  }

  // --- members ----------------------------------------------------------

  const Config cfg_;
  parallel::Sharded<Structure> layer_;

  BoundedMpscQueue<PendingQuery> query_q_;
  BoundedMpscQueue<PendingUpdate> update_q_;

  std::thread batcher_, committer_;
  bool running_ = false;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_requested_{false};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;

  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::atomic<bool> committing_{false};
  std::atomic<uint64_t> commit_done_us_{0};  // when the last commit finished
  bool committer_exit_ = false;
  Epoch inflight_;

  std::chrono::steady_clock::time_point start_tp_;

  std::atomic<uint64_t> queries_admitted_{0}, queries_rejected_{0};
  std::atomic<uint64_t> updates_admitted_{0}, updates_rejected_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> query_batches_{0};
  std::atomic<uint64_t> size_flushes_{0}, deadline_flushes_{0},
      drain_flushes_{0};
  std::atomic<uint64_t> epochs_committed_{0}, epochs_failed_{0};
  std::atomic<uint64_t> commit_retries_{0};
  std::atomic<uint64_t> overlap_batches_{0};
  std::array<std::atomic<uint64_t>, 20> batch_size_hist_{};
};

}  // namespace weg::serve
