// Wire-format message envelope for the simulated fabric.
//
// The fabric is protocol-agnostic: higher layers (the mixed-consistency DSM
// runtime, the SC baseline) encode their protocol messages into this fixed
// envelope — a small scalar header plus a variable-length vector of 64-bit
// words (vector timestamps, count vectors, write-set digests).  Keeping one
// concrete envelope lets the fabric account for bytes on the wire exactly
// as a real implementation would.

#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mc::net {

/// Endpoint index within a fabric.  DSM processes occupy the low indices;
/// manager processes (the DSM's sync manager, the SC sequencer) are ordinary
/// endpoints above them, exactly as Section 6 maps every lock/barrier to a
/// manager *process*.
using Endpoint = std::uint32_t;

inline constexpr Endpoint kNoEndpoint = ~Endpoint{0};

using SimTime = std::chrono::steady_clock::time_point;

struct Message {
  Endpoint src = kNoEndpoint;
  Endpoint dst = kNoEndpoint;

  /// Protocol-defined discriminator (see dsm/wire.h, baseline/wire.h).
  std::uint16_t kind = 0;

  /// Small scalar payload fields, meaning defined per kind.
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;

  /// Variable-length payload (vector clocks, count vectors, digests).
  std::vector<std::uint64_t> payload;

  // --- stamped by the reliability layer (net/reliable.h) when enabled ---

  /// Per-(src,dst) reliable sequence number; 0 means the message is outside
  /// the reliable protocol (control traffic, or reliability disabled).
  std::uint64_t rel_seq = 0;

  /// Piggybacked cumulative ack for the reverse channel (dst -> src):
  /// the highest in-order sequence the sender has delivered from dst.
  std::uint64_t rel_ack = 0;

  // --- stamped by the fabric on send ---

  /// Trace correlation id (obs/tracer.h flow events): stamped by the fabric
  /// when tracing is enabled, 0 otherwise.  Consumers re-emit it as a flow
  /// end so Perfetto binds each send to its delivery.  Observability
  /// metadata, not wire payload — it does not count toward wire_bytes()
  /// (a real implementation would ship it only in sampled-tracing builds).
  /// The top bit (obs::kFlowRetransmitBit) marks retransmitted copies.
  std::uint64_t trace_id = 0;

  /// Per-(src,dst) channel sequence number; receivers can assert FIFO.
  std::uint64_t channel_seq = 0;

  /// Simulated arrival time; the mailbox does not surface the message
  /// before this instant.
  SimTime deliver_at{};

  /// Modeled size on the wire: fixed header plus payload words, plus the
  /// reliability header (seq + ack) when the message travels reliably.
  /// `payload` must hold the *encoded* words a real wire format would ship
  /// — encoders that compress (update frames delta-encode vector clocks
  /// against a base clock, dsm/batch.h) pack the compressed form here, so
  /// byte metrics charge the delta-encoded size, never the logical
  /// full-clock size.
  [[nodiscard]] std::size_t wire_bytes() const {
    return kHeaderBytes + payload.size() * sizeof(std::uint64_t) +
           (rel_seq != 0 || rel_ack != 0 ? kRelHeaderBytes : 0);
  }

  static constexpr std::size_t kHeaderBytes = 48;
  static constexpr std::size_t kRelHeaderBytes = 16;
};

}  // namespace mc::net
