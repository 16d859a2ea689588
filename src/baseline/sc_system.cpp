#include "baseline/sc_system.h"

#include "baseline/run.h"
#include "common/check.h"

namespace mc::baseline {

using net::wait_or_die;

ScNode::ScNode(const ScConfig& cfg, ProcId self, net::Fabric& fabric,
               net::Endpoint sequencer)
    : cfg_(cfg), self_(self), fabric_(fabric), sequencer_(sequencer),
      store_(cfg.num_vars) {
  actor_.on(kScOrdered, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    // The sequencer multicasts in sequence order over FIFO channels, so
    // ordered writes arrive — and are applied — in global order.
    MC_CHECK_MSG(m.d == applied_seq_ + 1, "global order gap at a replica");
    applied_seq_ = m.d;
    const auto writer = static_cast<ProcId>(m.payload.at(0));
    Slot& s = store_[static_cast<VarId>(m.a)];
    s.value = m.b;
    s.last = WriteId{writer, m.c};
    if (writer == self_) ++applied_own_writes_;
  });
  actor_.on(kScBarrierRelease, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    barrier_release_[{static_cast<BarrierId>(m.a), m.b}] = m.c;
  });
  actor_.after_batch([this] { cv_.notify_all(); });
  actor_.start();
}

Value ScNode::read(VarId x) {
  stats_.reads.add();
  std::scoped_lock lk(mu_);
  MC_CHECK(x < store_.size());
  const Slot& s = store_[x];
  if (cfg_.record_trace) {
    history::Operation op;
    op.kind = history::OpKind::kRead;
    op.proc = self_;
    op.var = x;
    op.value = s.value;
    op.mode = ReadMode::kCausal;  // label is irrelevant for the SC checker
    op.write_id = s.last;
    trace_.push_back(op);
  }
  return s.value;
}

void ScNode::write(VarId x, Value v) {
  stats_.writes.add();
  Stopwatch blocked;
  SeqNo my_seq = 0;
  {
    std::scoped_lock lk(mu_);
    my_seq = ++issued_writes_;
  }
  net::Message m;
  m.src = self_;
  m.dst = sequencer_;
  m.kind = kScWrite;
  m.a = x;
  m.b = v;
  m.c = my_seq;
  fabric_.send(std::move(m));

  std::unique_lock lk(mu_);
  wait_or_die(cv_, lk, "SC write blocked past the liveness deadline",
              [&] { return applied_own_writes_ >= my_seq; });
  stats_.write_blocked.record(blocked.elapsed());
  if (cfg_.record_trace) {
    history::Operation op;
    op.kind = history::OpKind::kWrite;
    op.proc = self_;
    op.var = x;
    op.value = v;
    op.write_id = WriteId{self_, my_seq};
    trace_.push_back(op);
  }
}

void ScNode::await(VarId x, Value v) {
  stats_.awaits.add();
  Stopwatch blocked;
  std::unique_lock lk(mu_);
  wait_or_die(cv_, lk, "SC await blocked past the liveness deadline",
              [&] { return store_[x].value == v; });
  stats_.await_blocked.record(blocked.elapsed());
  if (cfg_.record_trace) {
    history::Operation op;
    op.kind = history::OpKind::kAwait;
    op.proc = self_;
    op.var = x;
    op.value = v;
    op.write_id = store_[x].last;
    trace_.push_back(op);
  }
}

void ScNode::barrier(BarrierId b) {
  stats_.barriers.add();
  Stopwatch blocked;
  std::uint64_t epoch = 0;
  {
    std::scoped_lock lk(mu_);
    epoch = barrier_epoch_[b]++;
  }
  net::Message arrive;
  arrive.src = self_;
  arrive.dst = sequencer_;
  arrive.kind = kScBarrierArrive;
  arrive.a = b;
  arrive.b = epoch;
  fabric_.send(std::move(arrive));

  std::unique_lock lk(mu_);
  const auto key = std::make_pair(b, epoch);
  wait_or_die(cv_, lk, "SC barrier blocked past the liveness deadline", [&] {
    auto it = barrier_release_.find(key);
    return it != barrier_release_.end() && applied_seq_ >= it->second;
  });
  barrier_release_.erase(key);
  stats_.barrier_blocked.record(blocked.elapsed());
  if (cfg_.record_trace) {
    history::Operation op;
    op.kind = history::OpKind::kBarrier;
    op.proc = self_;
    op.barrier = b;
    op.barrier_epoch = static_cast<std::uint32_t>(epoch);
    trace_.push_back(op);
  }
}

ScSystem::ScSystem(ScConfig cfg)
    : cfg_(std::move(cfg)), fabric_(cfg_.num_procs + 1, cfg_.latency, cfg_.seed) {
  register_kind_names(fabric_);
  // Same layering as dsm::MixedSystem: reliability first so every protocol
  // message is sequenced from the start, then the lossy fault plan.
  if (cfg_.reliable) fabric_.enable_reliability(cfg_.reliability);
  if (cfg_.faults.has_value()) fabric_.inject_faults(*cfg_.faults);
  const auto seq_ep = static_cast<net::Endpoint>(cfg_.num_procs);
  sequencer_ = std::make_unique<Sequencer>(fabric_, seq_ep, cfg_.num_procs);
  nodes_.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    nodes_.push_back(std::make_unique<ScNode>(cfg_, p, fabric_, seq_ep));
  }
}

ScSystem::~ScSystem() { shutdown(); }

ScNode& ScSystem::node(ProcId p) {
  MC_CHECK(p < nodes_.size());
  return *nodes_[p];
}

void ScSystem::run(const std::function<void(ScNode&, ProcId)>& body) {
  run_threads(nodes_, body);
}

history::History ScSystem::collect_history() const {
  history::History h(cfg_.num_procs);
  for (const auto& n : nodes_) {
    for (const history::Operation& op : n->trace()) h.add(op);
  }
  return h;
}

MetricsSnapshot ScSystem::metrics() const {
  MetricsSnapshot snap = fabric_.metrics();
  std::uint64_t blocked = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (const auto& n : nodes_) {
    blocked += n->stats().write_blocked.sum_ns() + n->stats().await_blocked.sum_ns() +
               n->stats().barrier_blocked.sum_ns();
    reads += n->stats().reads.get();
    writes += n->stats().writes.get();
  }
  snap.values["sc.blocked_ns"] = blocked;
  snap.values["sc.reads"] = reads;
  snap.values["sc.writes"] = writes;
  return snap;
}

void ScSystem::shutdown() {
  if (down_) return;
  down_ = true;
  fabric_.shutdown();
  sequencer_->join();
  for (auto& n : nodes_) n->stop();
}

}  // namespace mc::baseline
