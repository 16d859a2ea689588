// Instrumentation primitives used by the fabric, the DSM runtime, and the
// benchmark harnesses.
//
// The paper's performance arguments (Sections 6–7) are about *protocol
// cost*: how many messages and how much blocking each consistency level and
// propagation policy incurs.  Counters and latency histograms make those
// costs first-class, machine-independent outputs.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mc {

/// A monotone, thread-safe event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// add() for a counter whose updates a lock already serializes: a plain
  /// load and store instead of a locked read-modify-write.  Concurrent
  /// readers still see whole values.
  void add_serialized(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed-layout log-scale latency histogram (nanoseconds).  Thread-safe,
/// lock-free recording; quantile extraction is approximate to bucket width.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  /// Copies are snapshots: the source's samples folded into a fresh
  /// histogram (relaxed loads, so a copy taken during concurrent recording
  /// may straddle a sample).
  LatencyHistogram(const LatencyHistogram& other) { merge(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }

  void record(std::chrono::nanoseconds d) { record_ns(static_cast<std::uint64_t>(d.count())); }
  void record_ns(std::uint64_t ns);
  /// `times` samples of `ns` into a histogram whose updates a lock already
  /// serializes (see Counter::add_serialized).
  void record_serialized(std::uint64_t ns, std::uint64_t times);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean_ns() const;
  /// q in [0,1] (clamped); returns the upper edge of the bucket containing
  /// quantile q.  An empty histogram (count() == 0) returns 0 for every q —
  /// there is no sample to bound, and 0 is unambiguous because any recorded
  /// sample lands in a bucket with a positive upper edge.  Flattened
  /// snapshots rely on this contract by emitting no keys at all for empty
  /// histograms (add_histogram below).
  [[nodiscard]] std::uint64_t quantile_ns(double q) const;
  [[nodiscard]] std::uint64_t max_ns() const { return max_.load(std::memory_order_relaxed); }

  void reset();

  /// Fold another histogram's samples into this one (bucket-wise sums).
  void merge(const LatencyHistogram& other);

  static constexpr int kBuckets = 64;

 private:
  static int bucket_of(std::uint64_t ns);
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// A named snapshot of metric values, used by benches to print paper-style
/// result rows and diff runs against each other.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> values;

  [[nodiscard]] std::uint64_t get(const std::string& k) const {
    auto it = values.find(k);
    return it == values.end() ? 0 : it->second;
  }

  /// Component-wise difference (this - base), clamped at zero.
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& base) const;

  /// Flatten a histogram into the snapshot as summary keys
  /// `<base>.{count,sum,mean,p50,p90,p99,max}` (see docs/METRICS.md).
  /// Quantiles are clamped to the observed maximum.  Histograms with no
  /// samples emit nothing.
  void add_histogram(const std::string& base, const LatencyHistogram& h);

  [[nodiscard]] std::string to_string() const;
};

/// Wall-clock stopwatch used in harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  [[nodiscard]] std::chrono::nanoseconds elapsed() const { return clock::now() - start_; }
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(elapsed()).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mc
