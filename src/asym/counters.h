// Simulated asymmetric memory (Section 2.1): reads from the large memory
// cost 1, writes cost ω. The paper's results are statements about the number
// of reads and writes an algorithm performs on the large asymmetric memory,
// so we reproduce them by *counting* instrumented accesses rather than by
// emulating NVM latencies. ω is applied at report time, so one run yields an
// entire ω sweep.
//
// Counting conventions (matching the model):
//  * Only accesses made through asym::read / asym::write and the bulk
//    count_read / count_write charges are counted — these are the
//    algorithm's large-memory accesses.
//  * Stack locals and bounded scratch buffers model the small symmetric
//    memory and are never counted.
//  * Counters are per-thread (padded to a cache line) and aggregated on
//    demand, so counting is cheap and exact under parallel execution.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace weg::asym {

struct Counts {
  uint64_t reads = 0;
  uint64_t writes = 0;

  Counts operator-(const Counts& o) const {
    return Counts{reads - o.reads, writes - o.writes};
  }
  Counts operator+(const Counts& o) const {
    return Counts{reads + o.reads, writes + o.writes};
  }
  // Work in the Asymmetric NP model for write cost omega (arithmetic /
  // symmetric-memory operations excluded; the paper's bounds count those
  // separately as O(reads) in all our algorithms).
  double work(double omega) const {
    return static_cast<double>(reads) + omega * static_cast<double>(writes);
  }
};

namespace detail {

// Relaxed atomics, each written by its owning thread alone: the increment
// compiles to a plain load/add/store (no lock prefix), and aggregation from
// another thread (total() — e.g. a Region constructed on a worker thread
// inside a sharded bulk commit) is well-defined instead of a data race.
struct alignas(64) ThreadCounter {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
};

// Allocates and registers the calling thread's counter slot, caching it in
// tl_counter; called at most once per thread.
ThreadCounter* register_counter();

// Cached pointer to this thread's slot. Keeping the cache as a plain
// thread_local pointer in the header means the per-access hot path below is
// a single TLS load + increment; the registration path (lock, allocation)
// is only ever taken on a thread's first counted access.
inline thread_local ThreadCounter* tl_counter = nullptr;

inline ThreadCounter& local_counter() {
  ThreadCounter* c = tl_counter;
  return c != nullptr ? *c : *register_counter();
}

}  // namespace detail

inline void count_read(uint64_t n = 1) {
  std::atomic<uint64_t>& c = detail::local_counter().reads;
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
inline void count_write(uint64_t n = 1) {
  std::atomic<uint64_t>& c = detail::local_counter().writes;
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Aggregate counts over all threads that ever counted.
Counts total();

// Resets all thread counters to zero. Must not race with counting threads.
void reset();

// Instrumented single-word accessors.
template <typename T>
inline const T& read(const T& loc) {
  count_read();
  return loc;
}

template <typename T, typename U>
inline void write(T& loc, U&& value) {
  count_write();
  loc = static_cast<T>(std::forward<U>(value));
}

// Measures the reads/writes performed between construction and stop()/
// destruction. Nested/overlapping regions simply see the shared counters, so
// deltas compose additively.
class Region {
 public:
  Region() : start_(total()) {}
  Counts delta() const { return total() - start_; }

 private:
  Counts start_;
};

}  // namespace weg::asym
