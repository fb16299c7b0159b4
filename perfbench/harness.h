// Measurement harness of the end-to-end benchmark: percentiles under the
// ten-samples-beyond rule, an in-memory span tracer with self time, the
// max-rate bisection, host counters (/proc/stat steal, peak RSS) and a tiny
// JSON writer. Header-only and free of weg dependencies so the self-tests in
// selftest.cc exercise exactly the code main.cc runs.
#pragma once

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(double ns) { return ns / 1e6; }

// --- percentiles -------------------------------------------------------

// A percentile is reported only when at least this many samples lie beyond
// it, so a p99 needs n >= 1000.
inline constexpr size_t kMinBeyond = 10;

// Nearest-rank index of percentile p (0 < p < 1) among n sorted samples:
// the smallest rank r (0-based) with r + 1 >= p * n.
inline size_t rank_of(size_t n, double p) {
  double r = std::ceil(p * static_cast<double>(n));
  size_t rank = r < 1.0 ? 1 : static_cast<size_t>(r);
  return std::min(rank, n) - 1;
}

// Samples strictly beyond the nearest-rank percentile.
inline size_t samples_beyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_of(n, p);
}

inline bool reportable(size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

// Nearest-rank percentile; sorts `v` in place. NaN for an empty sample.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), p)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

// --- tracing -----------------------------------------------------------

// One timed interval recorded at a call site of the benchmark. Spans of one
// request share `req`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  std::string name;
  uint64_t req = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store. Disabled tracers record nothing; spans are written
// out once, after the measured work, with write_json(). Single-threaded:
// only the benchmark's own thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span under the innermost open one; returns its index or -1.
  int64_t open(const std::string& name, uint64_t req = 0) {
    if (!enabled_) return -1;
    int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, req, parent, now_ns(), 0});
    int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }
  void close(int64_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  // Records a span whose endpoints were taken elsewhere (a request from
  // submit to future-ready); returns its index for child spans.
  int64_t add(const std::string& name, uint64_t req, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, req, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, uint64_t req = 0)
      : t_(t), id_(t.open(name, req)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int64_t id_;
};

// Self time of every span: its duration minus the part of its interval that
// the union of its direct children covers (children clipped to the parent).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& ks = kids[i];
    std::sort(ks.begin(), ks.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : ks) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = static_cast<double>(p.end_ns - p.start_ns - covered);
  }
  return out;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

inline bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::vector<double> self = self_times(spans_);
  f << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"name\":\"" << json_escape(s.name) << "\",\"req\":" << s.req
      << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":"
      << static_cast<int64_t>(self[i]) << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

// --- max-rate search ---------------------------------------------------

// Outcome of one fixed-rate step of the open loop.
struct StepResult {
  size_t attempted = 0;
  size_t failed = 0;  // failed plus rejected
  std::vector<double> query_ms, update_ms;
  // Mean number of requests outstanding at submit time over the step's third
  // and fourth quarters. A queue that keeps growing means the offered rate
  // exceeds capacity even if every request eventually lands; means over a
  // quarter smooth the saw-tooth of epochs filling and committing.
  double backlog_q3 = 0, backlog_q4 = 0;
};

struct Limits {
  double query_p99_ms = 0;
  double update_p99_ms = 0;
};

// A step meets the limits when nothing failed, each kind's p99 is
// reportable and within its limit, and the mean backlog of the last quarter
// exceeds the third quarter's by no more than `backlog_slack` requests.
inline bool step_meets(StepResult s, const Limits& lim, double backlog_slack) {
  if (s.failed > 0 || s.attempted == 0) return false;
  if (!reportable(s.query_ms.size(), 0.99) ||
      !reportable(s.update_ms.size(), 0.99)) {
    return false;
  }
  if (s.backlog_q4 > s.backlog_q3 + backlog_slack) return false;
  return percentile(s.query_ms, 0.99) <= lim.query_p99_ms &&
         percentile(s.update_ms, 0.99) <= lim.update_p99_ms;
}

// Bisects the highest passing rate in log space between `lo` and `hi`,
// `steps` probes. Returns the highest rate seen to pass, or `lo` when none
// did (the search floor: the metric is never 0). `passes(rate)` runs one
// step.
template <typename Passes>
double search_max_rate(double lo, double hi, int steps, Passes&& passes) {
  double best = lo, a = std::log(lo), b = std::log(hi);
  for (int i = 0; i < steps; ++i) {
    double mid = std::exp(0.5 * (a + b));
    if (passes(mid)) {
      best = std::max(best, mid);
      a = std::log(mid);
    } else {
      b = std::log(mid);
    }
  }
  return best;
}

// --- host counters -----------------------------------------------------

// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool ok = false;
};

inline CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  if (!(f >> cpu) || cpu != "cpu") return t;
  uint64_t v[10] = {};
  for (int i = 0; i < 10 && (f >> v[i]); ++i) {
  }
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already included in user/nice.
  for (int i = 0; i < 8; ++i) t.total += v[i];
  t.steal = v[7];
  t.ok = true;
  return t;
}

// Share of all CPU time the hypervisor stole between two readings.
inline double steal_frac(const CpuTimes& a, const CpuTimes& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Resident set size now, from /proc/self/statm; 0 where it cannot be read.
inline double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  double pages = 0, resident = 0;
  if (!(in >> pages >> resident)) return 0.0;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

// Bytes the process holds allocated through malloc now (arena chunks in use
// plus mmapped chunks): its live heap, without the allocator's free space.
inline double live_heap_mb() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1048576.0;
}

// --- result line -------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// Ordered name -> metric map rendered as the benchmark's result object.
using Metrics = std::map<std::string, Metric>;

inline std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string result_json(bool correct, uint64_t attempted,
                               uint64_t failed, const Metrics& m) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, met] : m) {
    o << (first ? "" : ", ") << "\"" << json_escape(name)
      << "\": {\"value\": " << fmt_double(met.value) << ", \"unit\": \""
      << json_escape(met.unit) << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
