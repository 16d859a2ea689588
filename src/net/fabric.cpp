#include "net/fabric.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "net/reliable.h"
#include "obs/tracer.h"

namespace mc::net {

// Optional robustness layers.  Installed once under ext_mu_ and published
// through the fabric's single atomic pointer; the raw atomics inside let the
// hot path read the current layer without taking a lock.  Retired fault
// injectors stay alive (their counters feed metrics, and in-flight senders
// may still hold a pointer).
struct Fabric::Ext {
  std::vector<std::unique_ptr<FaultInjector>> fault_storage;
  std::atomic<FaultInjector*> faults{nullptr};

  std::unique_ptr<ReliableChannel> rel_storage;
  std::atomic<ReliableChannel*> reliable{nullptr};
};

Fabric::Fabric(std::size_t endpoints, LatencyModel latency, std::uint64_t seed)
    : stamper_(latency, endpoints, seed),
      channel_seq_(std::make_unique<std::atomic<std::uint64_t>[]>(endpoints * endpoints)),
      shards_(std::make_unique<SenderShard[]>(endpoints)) {
  MC_CHECK(endpoints > 0);
  mailboxes_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(endpoints));
  }
  // Registered here, not in enable_reliability(): a metrics key must never
  // degrade to a bare number ("net.msg.62") just because the reliability
  // layer was attached after the first ack went out, or never attached.
  name_kind(kRelAckKind, "rel_ack");
}

Fabric::~Fabric() = default;

Mailbox& Fabric::mailbox(Endpoint e) {
  MC_CHECK(e < mailboxes_.size());
  return *mailboxes_[e];
}

void Fabric::send(Message m) {
  Ext* ext = ext_.load(std::memory_order_acquire);
  if (ext != nullptr) {
    ReliableChannel* rel = ext->reliable.load(std::memory_order_acquire);
    if (rel != nullptr && m.kind != kRelAckKind) rel->on_send(m);
  }
  deliver(std::move(m), ext);
}

void Fabric::send_raw(Message m) {
  deliver(std::move(m), ext_.load(std::memory_order_acquire));
}

void Fabric::SenderShard::account(const Message& m) {
  const std::size_t bytes_on_wire = m.wire_bytes();
  const std::size_t bucket = std::min<std::size_t>(m.kind, kKindBuckets - 1);
  per_kind[bucket].add();
  per_kind_bytes[bucket].add(bytes_on_wire);
}

void Fabric::deliver(Message m, Ext* ext) {
  const std::size_t n = mailboxes_.size();
  MC_CHECK(m.src < n);
  MC_CHECK(m.dst < n);
  const auto t0 = std::chrono::steady_clock::now();
  SenderShard& shard = shards_[m.src];
  m.channel_seq = channel_seq_[m.src * n + m.dst].fetch_add(1, std::memory_order_relaxed);
  m.deliver_at = stamper_.stamp(m, t0);
  shard.account(m);

  FaultInjector::Decision fate;
  if (ext != nullptr) {
    FaultInjector* faults = ext->faults.load(std::memory_order_acquire);
    if (faults != nullptr) {
      fate = faults->decide(
          m, std::chrono::duration_cast<std::chrono::nanoseconds>(m.deliver_at - t0));
    }
  }
  if (fate.drop) {
    shard.send_ns.record(std::chrono::steady_clock::now() - t0);
    return;
  }
  m.deliver_at += fate.extra_delay;

  if (obs::trace_enabled()) {
    // Stamp the flow correlation id (keep ids the reliability layer already
    // assigned to retransmitted copies) and open the flow; the consumer
    // emits the matching flow end (docs/TRACING.md).
    if (m.trace_id == 0) m.trace_id = obs::next_flow_id();
    obs::trace_instant("send", "net", {"kind", m.kind}, {"dst", m.dst});
    obs::trace_flow_start("msg", "net", m.trace_id, {"kind", m.kind});
  }
  Mailbox& dst = *mailboxes_[m.dst];
  if (fate.duplicate) {
    // The wire carried the message twice: account for the extra copy and
    // deliver it with identical stamps (the mailbox keeps arrival order).
    shard.account(m);
    if (!dst.push(m)) shard.send_after_close.add();
  }
  if (!dst.push(std::move(m))) shard.send_after_close.add();
  shard.send_ns.record(std::chrono::steady_clock::now() - t0);
}

bool Fabric::drain(Endpoint e, std::vector<Message>& out, std::size_t max) {
  MC_CHECK(e < mailboxes_.size());
  Ext* ext = ext_.load(std::memory_order_acquire);
  if (ext != nullptr) {
    ReliableChannel* rel = ext->reliable.load(std::memory_order_acquire);
    if (rel != nullptr) return rel->drain(e, out, max);
  }
  return mailboxes_[e]->drain(out, max);
}

std::optional<Message> Fabric::recv(Endpoint e) {
  std::vector<Message> one;
  if (!drain(e, one, 1)) return std::nullopt;
  return std::move(one.front());
}

void Fabric::multicast(const Message& m, const std::vector<Endpoint>& dsts) {
  for (const Endpoint d : dsts) {
    Message copy = m;
    copy.dst = d;
    send(std::move(copy));
  }
}

void Fabric::shutdown() {
  // Reliability deadlines held in a mailbox are released at close and are
  // no-ops there (ReliableChannel::drain), so no late retransmit follows.
  for (auto& mb : mailboxes_) mb->close();
}

void Fabric::inject_faults(const FaultPlan& plan) {
  std::scoped_lock lk(ext_mu_);
  if (!ext_storage_) {
    ext_storage_ = std::make_unique<Ext>();
    ext_.store(ext_storage_.get(), std::memory_order_release);
  }
  ext_storage_->fault_storage.push_back(
      std::make_unique<FaultInjector>(plan, endpoints()));
  ext_storage_->faults.store(ext_storage_->fault_storage.back().get(),
                             std::memory_order_release);
}

void Fabric::clear_faults() {
  std::scoped_lock lk(ext_mu_);
  if (ext_storage_) ext_storage_->faults.store(nullptr, std::memory_order_release);
}

void Fabric::enable_reliability(const ReliabilityConfig& cfg) {
  std::scoped_lock lk(ext_mu_);
  if (!ext_storage_) {
    ext_storage_ = std::make_unique<Ext>();
    ext_.store(ext_storage_.get(), std::memory_order_release);
  }
  MC_CHECK_MSG(ext_storage_->rel_storage == nullptr,
               "reliability can only be enabled once per fabric");
  name_kind(kRelAckKind, "rel_ack");
  ext_storage_->rel_storage =
      std::make_unique<ReliableChannel>(*this, endpoints(), cfg);
  ext_storage_->reliable.store(ext_storage_->rel_storage.get(),
                               std::memory_order_release);
}

bool Fabric::reliability_enabled() const {
  Ext* ext = ext_.load(std::memory_order_acquire);
  return ext != nullptr && ext->reliable.load(std::memory_order_acquire) != nullptr;
}

ReliableChannel* Fabric::reliable_channel() {
  Ext* ext = ext_.load(std::memory_order_acquire);
  return ext == nullptr ? nullptr : ext->reliable.load(std::memory_order_acquire);
}

template <typename Get>
std::uint64_t Fabric::sum_shards(Get get) const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < endpoints(); ++s) total += get(shards_[s]);
  return total;
}

std::uint64_t Fabric::messages_of_kind(std::uint16_t kind) const {
  const std::size_t bucket = std::min<std::size_t>(kind, kKindBuckets - 1);
  return sum_shards([&](const SenderShard& sh) { return sh.per_kind[bucket].get(); });
}

std::uint64_t Fabric::bytes_of_kind(std::uint16_t kind) const {
  const std::size_t bucket = std::min<std::size_t>(kind, kKindBuckets - 1);
  return sum_shards([&](const SenderShard& sh) { return sh.per_kind_bytes[bucket].get(); });
}

std::uint64_t Fabric::messages_sent() const {
  return sum_shards([](const SenderShard& sh) {
    std::uint64_t n = 0;
    for (const Counter& c : sh.per_kind) n += c.get();
    return n;
  });
}

std::uint64_t Fabric::bytes_sent() const {
  return sum_shards([](const SenderShard& sh) {
    std::uint64_t n = 0;
    for (const Counter& c : sh.per_kind_bytes) n += c.get();
    return n;
  });
}

std::uint64_t Fabric::sends_after_close() const {
  return sum_shards([](const SenderShard& sh) { return sh.send_after_close.get(); });
}

LatencyHistogram Fabric::send_latency() const {
  LatencyHistogram merged;
  for (std::size_t s = 0; s < endpoints(); ++s) merged.merge(shards_[s].send_ns);
  return merged;
}

std::vector<std::size_t> Fabric::in_flight() const {
  std::vector<std::size_t> counts;
  counts.reserve(mailboxes_.size());
  for (const auto& mb : mailboxes_) counts.push_back(mb->pending());
  return counts;
}

void Fabric::name_kind(std::uint16_t kind, std::string name) {
  MC_CHECK(kind < kKindBuckets);
  std::scoped_lock lk(names_mu_);
  kind_names_[kind] = std::move(name);
}

MetricsSnapshot Fabric::metrics() const {
  MetricsSnapshot snap;
  // Each kind's count and bytes are read from the shards once and
  // net.messages / net.bytes are their sums, so the per-kind keys reconcile
  // exactly with the totals even while senders are still running.
  std::array<std::uint64_t, kKindBuckets> kind_msgs{};
  std::array<std::uint64_t, kKindBuckets> kind_bytes{};
  for (std::size_t s = 0; s < endpoints(); ++s) {
    for (std::size_t k = 0; k < kKindBuckets; ++k) {
      kind_msgs[k] += shards_[s].per_kind[k].get();
      kind_bytes[k] += shards_[s].per_kind_bytes[k].get();
    }
  }
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  // Standalone acks follow the host's timing (a delayed ack may or may not
  // find reverse traffic), so once reliability is installed rel_ack is
  // reported even at zero: every run of a configuration has the same keys.
  const bool acks_sendable = reliability_enabled();
  {
    std::scoped_lock lk(names_mu_);
    for (std::size_t k = 0; k < kKindBuckets; ++k) {
      if (kind_msgs[k] == 0 && !(k == kRelAckKind && acks_sendable)) continue;
      messages += kind_msgs[k];
      bytes += kind_bytes[k];
      const std::string& name = kind_names_[k];
      const std::string label = name.empty() ? std::to_string(k) : name;
      snap.values["net.msg." + label] = kind_msgs[k];
      snap.values["net.bytes." + label] = kind_bytes[k];
    }
  }
  snap.values["net.messages"] = messages;
  snap.values["net.bytes"] = bytes;
  snap.values["net.send_after_close"] = sends_after_close();
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  for (const auto& mb : mailboxes_) {
    parks += mb->parks();
    wakes += mb->wakes();
  }
  snap.values["net.mailbox.parks"] = parks;
  snap.values["net.mailbox.wakes"] = wakes;
  snap.add_histogram("net.send_ns", send_latency());
  {
    std::scoped_lock lk(ext_mu_);
    if (ext_storage_) {
      // Retired injectors are reported too (later installs overwrite the
      // shared keys; chaos runs install one plan, so this is exact there).
      for (const auto& inj : ext_storage_->fault_storage) inj->add_metrics(snap);
      if (ext_storage_->rel_storage) ext_storage_->rel_storage->add_metrics(snap);
    }
  }
  return snap;
}

}  // namespace mc::net
