#include "dsm/barrier_manager.h"

#include <algorithm>

#include "common/check.h"
#include "obs/tracer.h"

namespace mc::dsm {

BarrierManager::BarrierManager(net::Fabric& fabric, net::Endpoint self,
                               std::size_t num_procs,
                               std::map<BarrierId, std::vector<ProcId>> members,
                               bool count_mode,
                               std::optional<std::uint64_t> initial_alive,
                               bool dir_mode)
    : fabric_(fabric), self_(self), num_procs_(num_procs), count_mode_(count_mode),
      dir_mode_(dir_mode), elastic_(initial_alive.has_value()),
      members_(std::move(members)) {
  MC_CHECK_MSG(!(count_mode && dir_mode), "directory mode requires vector clocks");
  for (const auto& [b, procs] : members_) {
    (void)b;
    MC_CHECK_MSG(!procs.empty(), "a subset barrier needs at least one member");
    for (const ProcId p : procs) MC_CHECK(p < num_procs_);
  }
  if (elastic_) {
    MC_CHECK_MSG(!count_mode_, "elastic membership requires vector-clock mode");
    alive_mask_ = *initial_alive & full_mask(num_procs_);
  }
  thread_ = std::thread([this] { run(); });
}

void BarrierManager::set_join_listener(JoinListener listener) {
  std::scoped_lock lk(state_mu_);
  join_listener_ = std::move(listener);
}

BarrierManager::~BarrierManager() { join(); }

void BarrierManager::join() {
  if (thread_.joinable()) thread_.join();
}

std::vector<ProcId> BarrierManager::members_of(BarrierId b) const {
  auto it = members_.find(b);
  if (it != members_.end()) return it->second;
  std::vector<ProcId> everyone(num_procs_);
  for (ProcId p = 0; p < num_procs_; ++p) everyone[p] = p;
  return everyone;
}

void BarrierManager::run() {
  std::vector<net::Message> batch;
  while (fabric_.drain(self_, batch)) {
    for (const net::Message& m : batch) {
      heartbeats_.add();
      obs::TraceSpan span("deliver", "net", {"kind", m.kind}, {"src", m.src});
      obs::trace_flow_end("msg", "net", m.trace_id);
      if (m.kind == kBarrierArrive) handle_arrive(m);
      else if (m.kind == kViewCommit) handle_view_commit(m);
    }
  }
}

std::vector<ProcId> BarrierManager::participants_at(BarrierId b,
                                                    std::uint64_t epoch) const {
  std::vector<ProcId> out;
  const auto mf = member_from_.find(b);
  for (const ProcId p : members_of(b)) {
    if (p >= 64 || ((alive_mask_ >> p) & 1) == 0) continue;
    if (mf != member_from_.end()) {
      const auto it = mf->second.find(p);
      if (it != mf->second.end() && it->second > epoch) continue;
    }
    out.push_back(p);
  }
  return out;
}

std::vector<std::string> BarrierManager::dump() const {
  std::vector<std::string> out;
  std::scoped_lock lk(state_mu_);
  for (const auto& [key, inst] : instances_) {
    const std::vector<ProcId> participants = members_of(key.first);
    std::string line = "barrier " + std::to_string(key.first) + " epoch " +
                       std::to_string(key.second) + ": " +
                       std::to_string(inst.count) + "/" +
                       std::to_string(participants.size()) +
                       " arrived, missing=[";
    bool first = true;
    for (const ProcId p : participants) {
      if (inst.arrived[p]) continue;
      line += (first ? "p" : " p") + std::to_string(p);
      first = false;
    }
    line += "]";
    out.push_back(std::move(line));
  }
  return out;
}

void BarrierManager::handle_arrive(const net::Message& m) {
  const auto barrier = static_cast<BarrierId>(m.a);
  const auto src = static_cast<ProcId>(m.src);
  const std::vector<ProcId> configured = members_of(barrier);

  const auto key = std::make_pair(barrier, m.b);
  std::scoped_lock state_lk(state_mu_);
  // Elastic: an arrival racing the sender's eviction lands after the
  // commit already waived it — drop it (its clock contribution is covered
  // by the re-mastering path, not the release).
  if (elastic_ && (src >= 64 || ((alive_mask_ >> src) & 1) == 0)) return;
  MC_CHECK_MSG(std::find(configured.begin(), configured.end(), src) !=
                   configured.end(),
               "barrier arrival from a non-member process");
  Instance& inst = instances_[key];
  if (inst.arrived.empty()) {
    inst.arrived.assign(num_procs_, false);
    inst.merged = VectorClock(num_procs_);
    inst.first_arrival = std::chrono::steady_clock::now();
  }
  MC_CHECK_MSG(!inst.arrived[m.src], "double arrival at one barrier instance");
  inst.arrived[m.src] = true;
  ++inst.count;

  // Directory mode stacks both synchronization currencies: the arriver's
  // per-receiver sent-counts first, then its dependency clock.
  const std::size_t vc_at = dir_mode_ ? num_procs_ : 0;
  MC_CHECK(m.payload.size() == vc_at + num_procs_);
  if (count_mode_ || dir_mode_) {
    inst.payloads[src] = std::vector<std::uint64_t>(
        m.payload.begin(), m.payload.begin() + num_procs_);
  }
  if (!count_mode_) {
    VectorClock vc(num_procs_);
    for (ProcId p = 0; p < num_procs_; ++p) vc.set(p, m.payload[vc_at + p]);
    inst.merged.merge(vc);
  }

  maybe_release(key);
}

bool BarrierManager::maybe_release(
    const std::pair<BarrierId, std::uint64_t>& key) {
  const auto it = instances_.find(key);
  if (it == instances_.end()) return false;
  Instance& inst = it->second;
  const std::vector<ProcId> participants =
      elastic_ ? participants_at(key.first, key.second) : members_of(key.first);
  for (const ProcId p : participants) {
    if (!inst.arrived[p]) return false;
  }

  const auto skew = std::chrono::steady_clock::now() - inst.first_arrival;
  assemble_ns_.record(skew);
  releases_.add(participants.size());
  if (profiler_ != nullptr) {
    // Arrival skew for this instance: how long the earliest arriver waited
    // for the slowest participant.
    profiler_->record_barrier_instance(
        key.first,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(skew).count()),
        participants.size());
  }
  if (count_mode_ || dir_mode_) {
    // Transpose: receiver i must wait, per sender j, for the number of
    // updates j reported having sent to i before arriving (Section 6).
    // Directory mode appends the merged clock after the counts.
    for (const ProcId i : participants) {
      net::Message release;
      release.src = self_;
      release.dst = i;
      release.kind = kBarrierRelease;
      release.a = key.first;
      release.b = key.second;
      release.payload.assign(num_procs_, 0);
      for (const auto& [j, sent] : inst.payloads) release.payload[j] = sent[i];
      if (dir_mode_) {
        release.payload.insert(release.payload.end(),
                               inst.merged.components().begin(),
                               inst.merged.components().end());
      }
      fabric_.send(std::move(release));
    }
  } else {
    // The merged clock keeps every recorded arrival, including a member
    // that died after arriving: its pre-barrier writes are still ordered
    // before the release.
    net::Message release;
    release.src = self_;
    release.kind = kBarrierRelease;
    release.a = key.first;
    release.b = key.second;
    release.payload.assign(inst.merged.components().begin(),
                           inst.merged.components().end());
    std::vector<net::Endpoint> dsts;
    dsts.reserve(participants.size());
    for (const ProcId p : participants) dsts.push_back(p);
    fabric_.multicast(release, dsts);
  }
  if (elastic_) {
    auto& next = next_epoch_[key.first];
    next = std::max(next, key.second + 1);
  }
  instances_.erase(it);
  return true;
}

void BarrierManager::handle_view_commit(const net::Message& m) {
  if (!elastic_) return;
  std::vector<std::pair<BarrierId, std::uint64_t>> joined;
  ProcId joiner = kNoProc;
  JoinListener listener;
  {
    std::scoped_lock state_lk(state_mu_);
    if (m.a < view_epoch_) return;  // stale — epochs are monotone
    view_epoch_ = m.a;
    alive_mask_ = m.b;
    listener = join_listener_;
    if (m.c != ~std::uint64_t{0}) {
      joiner = static_cast<ProcId>(m.c);
      // The joiner participates from the next unseen instance of every
      // barrier object — open instances belong to phases whose work was
      // partitioned before it existed.
      std::map<BarrierId, std::uint64_t> start = next_epoch_;
      for (const auto& [key, inst] : instances_) {
        (void)inst;
        auto& s = start[key.first];
        s = std::max(s, key.second + 1);
      }
      net::Message sync;
      sync.src = self_;
      sync.dst = joiner;
      sync.kind = kViewBarrierSync;
      sync.a = start.size();
      sync.b = view_epoch_;
      for (const auto& [b, e] : start) {
        member_from_[b][joiner] = e;
        joined.emplace_back(b, e);
        sync.payload.push_back(b);
        sync.payload.push_back(e);
      }
      fabric_.send(std::move(sync));
    }
    // Survivors stranded mid-phase: a departed member's missing arrival is
    // waived, so re-check every open instance under the new membership.
    std::vector<std::pair<BarrierId, std::uint64_t>> keys;
    keys.reserve(instances_.size());
    for (const auto& [key, inst] : instances_) {
      (void)inst;
      keys.push_back(key);
    }
    for (const auto& key : keys) maybe_release(key);
  }
  if (listener) {
    for (const auto& [b, e] : joined) listener(b, joiner, e);
  }
}

}  // namespace mc::dsm
