// Per-message latency models for the simulated fabric.
//
// The reproduction judges the paper's claims primarily on message counts,
// but latency injection is what surfaces *blocking*: an SC write that waits
// for a sequencer round trip, a causal read that waits for a missing
// dependency, an eager unlock that waits for global acknowledgements.  The
// model is deterministic given a seed.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "net/message.h"

namespace mc::net {

struct LatencyModel {
  /// Fixed one-way cost per message.
  std::chrono::nanoseconds base{0};

  /// Additional cost per 64-bit payload word (bandwidth term).
  std::chrono::nanoseconds per_word{0};

  /// Uniform jitter in [0, jitter] added per message.
  std::chrono::nanoseconds jitter{0};

  /// Convenience factories.
  static LatencyModel zero() { return {}; }
  static LatencyModel lan();   ///< ~30us base, small bandwidth term, jitter
  static LatencyModel fast();  ///< ~2us base, used by latency-sensitive tests

  [[nodiscard]] bool is_zero() const {
    return base.count() == 0 && per_word.count() == 0 && jitter.count() == 0;
  }
};

/// Stateful stamper: produces monotone per-channel deliver_at stamps so the
/// simulated channels stay FIFO under jitter.
///
/// State is kept per sender: each source endpoint owns its row of
/// per-destination "last stamp" slots and its own jitter RNG, seeded from
/// (seed, src).  Both are atomics, so concurrent senders never share a lock
/// or a cache line on the fabric's send path, and one sender's stamp
/// sequence is deterministic given its seed and its own send order.
class LatencyStamper {
 public:
  LatencyStamper(LatencyModel model, std::size_t endpoints, std::uint64_t seed);

  /// Compute the deliver_at stamp for a message sent now.  Thread-safe.
  SimTime stamp(const Message& m, SimTime now);

 private:
  struct alignas(64) Sender {
    std::atomic<std::uint64_t> rng{0};
    std::unique_ptr<std::atomic<SimTime::rep>[]> last;  // [dst]
  };

  LatencyModel model_;
  std::size_t endpoints_;
  std::unique_ptr<Sender[]> senders_;  // [src]
};

}  // namespace mc::net
