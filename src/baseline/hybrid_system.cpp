#include "baseline/hybrid_system.h"

#include <numeric>

#include "baseline/run.h"
#include "common/check.h"

namespace mc::baseline {

using net::wait_or_die;

namespace {
void register_hybrid_kind_names(net::Fabric& fabric) {
  fabric.name_kind(kHybridWeak, "hy_weak");
  fabric.name_kind(kHybridStrongWrite, "hy_strong_write");
  fabric.name_kind(kHybridOrdered, "hy_ordered");
  fabric.name_kind(kHybridFlush, "hy_flush");
  fabric.name_kind(kHybridFlushAck, "hy_flush_ack");
  fabric.name_kind(kHybridReadTicket, "hy_read_ticket");
  fabric.name_kind(kHybridTicket, "hy_ticket");
}
}  // namespace

HybridNode::HybridNode(const HybridConfig& cfg, ProcId self, net::Fabric& fabric,
                       net::Endpoint sequencer)
    : cfg_(cfg), self_(self), fabric_(fabric), sequencer_(sequencer),
      store_(cfg.num_vars, 0) {
  actor_.on(kHybridWeak, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    store_[static_cast<VarId>(m.a)] = m.b;
  });
  actor_.on(kHybridOrdered, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    MC_CHECK_MSG(m.d == applied_global_ + 1, "strong order gap at a replica");
    applied_global_ = m.d;
    store_[static_cast<VarId>(m.a)] = m.b;
    if (static_cast<ProcId>(m.payload.at(0)) == self_) ++applied_own_strong_;
  });
  actor_.on(kHybridFlush, [this](const net::Message& m) {
    // FIFO channels: by the time the probe arrives, every earlier weak
    // write from the prober has been applied here.
    net::Message ack;
    ack.src = self_;
    ack.dst = m.src;
    ack.kind = kHybridFlushAck;
    ack.a = m.a;
    fabric_.send(std::move(ack));
  });
  actor_.on(kHybridFlushAck, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    ++flush_acks_[m.a];
  });
  actor_.on(kHybridTicket, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    read_tickets_[m.a] = m.b;
  });
  actor_.after_batch([this] { cv_.notify_all(); });
  actor_.start();
}

Value HybridNode::weak_read(VarId x) {
  stats_.weak_reads.add();
  std::scoped_lock lk(mu_);
  MC_CHECK(x < store_.size());
  return store_[x];
}

void HybridNode::weak_write(VarId x, Value v) {
  stats_.weak_writes.add();
  std::scoped_lock lk(mu_);
  MC_CHECK(x < store_.size());
  store_[x] = v;
  net::Message m;
  m.src = self_;
  m.kind = kHybridWeak;
  m.a = x;
  m.b = v;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if (p == self_) continue;
    net::Message copy = m;
    copy.dst = p;
    fabric_.send(std::move(copy));
  }
}

void HybridNode::flush(std::unique_lock<std::mutex>& lk) {
  if (cfg_.num_procs <= 1) return;
  const std::uint64_t token = ++token_counter_;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if (p == self_) continue;
    net::Message probe;
    probe.src = self_;
    probe.dst = p;
    probe.kind = kHybridFlush;
    probe.a = token;
    fabric_.send(std::move(probe));
  }
  wait_or_die(cv_, lk, "hybrid flush blocked past the liveness deadline",
              [&] { return flush_acks_[token] == cfg_.num_procs - 1; });
  flush_acks_.erase(token);
}

void HybridNode::strong_write(VarId x, Value v) {
  stats_.strong_writes.add();
  Stopwatch blocked;
  std::unique_lock lk(mu_);
  flush(lk);
  const SeqNo my_seq = ++issued_strong_;
  net::Message m;
  m.src = self_;
  m.dst = sequencer_;
  m.kind = kHybridStrongWrite;
  m.a = x;
  m.b = v;
  m.c = my_seq;
  fabric_.send(std::move(m));
  wait_or_die(cv_, lk, "hybrid strong write blocked past the liveness deadline",
              [&] { return applied_own_strong_ >= my_seq; });
  stats_.strong_blocked.record(blocked.elapsed());
}

Value HybridNode::strong_read(VarId x) {
  stats_.strong_reads.add();
  Stopwatch blocked;
  std::unique_lock lk(mu_);
  flush(lk);
  const std::uint64_t token = ++token_counter_;
  net::Message m;
  m.src = self_;
  m.dst = sequencer_;
  m.kind = kHybridReadTicket;
  m.a = token;
  fabric_.send(std::move(m));
  wait_or_die(cv_, lk, "hybrid strong read blocked past the liveness deadline", [&] {
    auto it = read_tickets_.find(token);
    return it != read_tickets_.end() && applied_global_ >= it->second;
  });
  read_tickets_.erase(token);
  stats_.strong_blocked.record(blocked.elapsed());
  return store_[x];
}

HybridSystem::HybridSystem(HybridConfig cfg)
    : cfg_(std::move(cfg)), fabric_(cfg_.num_procs + 1, cfg_.latency, cfg_.seed) {
  register_hybrid_kind_names(fabric_);
  // Same layering as dsm::MixedSystem: reliability first so every protocol
  // message is sequenced from the start, then the lossy fault plan.
  if (cfg_.reliable) fabric_.enable_reliability(cfg_.reliability);
  if (cfg_.faults.has_value()) fabric_.inject_faults(*cfg_.faults);
  const auto seq_ep = static_cast<net::Endpoint>(cfg_.num_procs);
  nodes_.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    nodes_.push_back(std::make_unique<HybridNode>(cfg_, p, fabric_, seq_ep));
  }
  std::vector<net::Endpoint> everyone(cfg_.num_procs);
  std::iota(everyone.begin(), everyone.end(), net::Endpoint{0});
  sequencer_.on(kHybridStrongWrite, [this, seq_ep, everyone](const net::Message& m) {
    net::Message ordered;
    ordered.src = seq_ep;
    ordered.kind = kHybridOrdered;
    ordered.a = m.a;
    ordered.b = m.b;
    ordered.c = m.c;
    ordered.d = ++next_seq_;
    ordered.payload = {m.src};
    fabric_.multicast(ordered, everyone);
  });
  sequencer_.on(kHybridReadTicket, [this, seq_ep](const net::Message& m) {
    net::Message ticket;
    ticket.src = seq_ep;
    ticket.dst = m.src;
    ticket.kind = kHybridTicket;
    ticket.a = m.a;
    ticket.b = next_seq_;  // the strong prefix the reader must apply
    fabric_.send(std::move(ticket));
  });
  sequencer_.start();
}

HybridSystem::~HybridSystem() { shutdown(); }

HybridNode& HybridSystem::node(ProcId p) {
  MC_CHECK(p < nodes_.size());
  return *nodes_[p];
}

void HybridSystem::run(const std::function<void(HybridNode&, ProcId)>& body) {
  run_threads(nodes_, body);
}

MetricsSnapshot HybridSystem::metrics() const {
  MetricsSnapshot snap = fabric_.metrics();
  std::uint64_t blocked = 0;
  for (const auto& n : nodes_) blocked += n->stats().strong_blocked.sum_ns();
  snap.values["hybrid.blocked_ns"] = blocked;
  return snap;
}

void HybridSystem::shutdown() {
  if (down_) return;
  down_ = true;
  fabric_.shutdown();
  sequencer_.join();
  for (auto& n : nodes_) n->stop();
}

}  // namespace mc::baseline
