#include "common/stats.h"

#include <algorithm>
#include <bit>

namespace mc {

int LatencyHistogram::bucket_of(std::uint64_t ns) {
  if (ns == 0) return 0;
  const int lg = 63 - std::countl_zero(ns);
  return lg >= kBuckets ? kBuckets - 1 : lg;
}

void LatencyHistogram::record_ns(std::uint64_t ns) {
  buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < ns &&
         !max_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::record_serialized(std::uint64_t ns, std::uint64_t times) {
  auto& bucket = buckets_[bucket_of(ns)];
  bucket.store(bucket.load(std::memory_order_relaxed) + times, std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) + ns * times, std::memory_order_relaxed);
  if (max_.load(std::memory_order_relaxed) < ns) max_.store(ns, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double LatencyHistogram::mean_ns() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum_ns()) / static_cast<double>(n);
}

std::uint64_t LatencyHistogram::quantile_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{2} << i);
  }
  return max_ns();
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  std::uint64_t omax = other.max_.load(std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < omax &&
         !max_.compare_exchange_weak(prev, omax, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [k, v] : values) {
    const std::uint64_t b = base.get(k);
    out.values[k] = v >= b ? v - b : 0;
  }
  return out;
}

void MetricsSnapshot::add_histogram(const std::string& base, const LatencyHistogram& h) {
  const std::uint64_t n = h.count();
  if (n == 0) return;
  const std::uint64_t max = h.max_ns();
  values[base + ".count"] = n;
  values[base + ".sum"] = h.sum_ns();
  values[base + ".mean"] = static_cast<std::uint64_t>(h.mean_ns() + 0.5);
  values[base + ".p50"] = std::min(h.quantile_ns(0.5), max);
  values[base + ".p90"] = std::min(h.quantile_ns(0.9), max);
  values[base + ".p99"] = std::min(h.quantile_ns(0.99), max);
  values[base + ".max"] = max;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  for (const auto& [k, v] : values) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace mc
