#include "net/latency.h"

#include <algorithm>

#include "common/check.h"

namespace mc::net {

LatencyModel LatencyModel::lan() {
  using namespace std::chrono_literals;
  return LatencyModel{.base = 30us, .per_word = 40ns, .jitter = 10us};
}

LatencyModel LatencyModel::fast() {
  using namespace std::chrono_literals;
  return LatencyModel{.base = 2us, .per_word = 5ns, .jitter = 500ns};
}

namespace {
// SplitMix64 finalizer, inlined to avoid a dependency cycle with common/rng.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
}  // namespace

LatencyStamper::LatencyStamper(LatencyModel model, std::size_t endpoints, std::uint64_t seed)
    : model_(model), endpoints_(endpoints),
      senders_(std::make_unique<Sender[]>(endpoints)) {
  for (std::size_t src = 0; src < endpoints; ++src) {
    Sender& s = senders_[src];
    s.rng.store(mix(seed + kGolden * (src + 1)) | 1, std::memory_order_relaxed);
    s.last = std::make_unique<std::atomic<SimTime::rep>[]>(endpoints);
    for (std::size_t dst = 0; dst < endpoints; ++dst) {
      s.last[dst].store(SimTime{}.time_since_epoch().count(), std::memory_order_relaxed);
    }
  }
}

SimTime LatencyStamper::stamp(const Message& m, SimTime now) {
  if (model_.is_zero()) return now;
  MC_CHECK(m.src < endpoints_ && m.dst < endpoints_);
  Sender& sender = senders_[m.src];
  auto delay = model_.base + model_.per_word * static_cast<std::int64_t>(m.payload.size());
  if (model_.jitter.count() > 0) {
    // SplitMix64 step: the state advance is a plain fetch_add.
    const std::uint64_t z =
        mix(sender.rng.fetch_add(kGolden, std::memory_order_relaxed) + kGolden);
    delay += std::chrono::nanoseconds(
        static_cast<std::int64_t>(z % static_cast<std::uint64_t>(model_.jitter.count() + 1)));
  }
  // Clamp to keep the channel FIFO: a later send must never arrive earlier
  // (strictly later by one clock tick, 1 ns with the steady clock).
  std::atomic<SimTime::rep>& channel_last = sender.last[m.dst];
  const SimTime::rep candidate = (now + delay).time_since_epoch().count();
  SimTime::rep prev = channel_last.load(std::memory_order_relaxed);
  SimTime::rep stamped = std::max(candidate, prev + 1);
  while (!channel_last.compare_exchange_weak(prev, stamped, std::memory_order_relaxed)) {
    stamped = std::max(candidate, prev + 1);
  }
  return SimTime(SimTime::duration(stamped));
}

}  // namespace mc::net
