#include "dsm/sync_manager.h"

#include <algorithm>

#include "common/check.h"
#include "obs/tracer.h"

namespace mc::dsm {

SyncManager::SyncManager(net::Fabric& fabric, net::Endpoint self, std::size_t num_procs,
                         std::map<BarrierId, std::vector<ProcId>> members, StampForm stamp,
                         std::optional<std::uint64_t> initial_alive)
    : fabric_(fabric), self_(self), num_procs_(num_procs), stamp_(stamp),
      elastic_(initial_alive.has_value()), members_(std::move(members)) {
  MC_CHECK_MSG(num_procs <= 64, "episode holder sets are encoded as 64-bit masks");
  for (const auto& [b, procs] : members_) {
    (void)b;
    MC_CHECK_MSG(!procs.empty(), "a subset barrier needs at least one member");
    for (const ProcId p : procs) MC_CHECK(p < num_procs_);
  }
  if (elastic_) {
    MC_CHECK_MSG(stamp_ != StampForm::kCounts,
                 "elastic membership requires vector-clock mode");
    view_.alive_mask = *initial_alive & full_mask(num_procs);
  }
  // Each handled message is a heartbeat of the side it serves: barrier
  // arrivals, or lock and view traffic.
  auto handle = [this](Counter& beats, void (SyncManager::*h)(const net::Message&)) {
    return [this, &beats, h](const net::Message& m) {
      beats.add();
      (this->*h)(m);
    };
  };
  actor_.on(kLockReq, handle(lock_heartbeats_, &SyncManager::handle_request));
  actor_.on(kUnlock, handle(lock_heartbeats_, &SyncManager::handle_unlock));
  actor_.on(kBarrierArrive, handle(barrier_heartbeats_, &SyncManager::handle_arrive));
  for (const std::uint16_t kind : {kViewFault, kViewJoin, kViewLeave}) {
    actor_.on(kind, handle(lock_heartbeats_, &SyncManager::handle_view_trigger));
  }
  actor_.on(kViewAck, handle(lock_heartbeats_, &SyncManager::handle_view_ack));
  actor_.start();
}

bool SyncManager::stale_sender(net::Endpoint src) const {
  return elastic_ && (src >= num_procs_ || !view_.is_alive(src));
}

// ----------------------------------------------------------------------
// Locks
// ----------------------------------------------------------------------

void SyncManager::handle_request(const net::Message& m) {
  const auto id = static_cast<LockId>(m.a);
  std::scoped_lock state_lk(state_mu_);
  // Granting a stale request would wedge the lock.
  if (stale_sender(m.src)) return;
  LockState& lock = locks_[id];
  if (lock.release_vc.empty()) lock.release_vc = VectorClock(num_procs_);
  lock.queue.push_back(Request{m.src, static_cast<LockRequestKind>(m.b),
                               std::chrono::steady_clock::now()});
  const std::size_t depth = lock.queue.size();
  try_grant(id, lock);
  if (profiler_ != nullptr) {
    // Contended = the request could not be granted on arrival (it is still
    // queued behind an incompatible holder or an earlier writer).
    bool still_queued = false;
    for (const Request& r : lock.queue) {
      if (r.who == m.src) {
        still_queued = true;
        break;
      }
    }
    profiler_->record_lock_queue(id, depth, still_queued);
  }
}

void SyncManager::handle_unlock(const net::Message& m) {
  const auto id = static_cast<LockId>(m.a);
  std::scoped_lock state_lk(state_mu_);
  // An unlock racing the sender's eviction arrives after the commit
  // already revoked its tenure — drop it instead of asserting.
  if (stale_sender(m.src)) return;
  LockState& lock = locks_[id];
  MC_CHECK_MSG(lock.holders.erase(m.src) == 1, "unlock from a non-holder");

  VectorClock counts, clock;
  const std::size_t digest_at = decode_stamp(stamp_, num_procs_, m.payload, counts, clock);
  MC_CHECK(m.payload.size() >= digest_at + m.d);
  if (has_counts(stamp_)) lock.unlock_counts[m.src] = std::move(counts);
  if (has_clock(stamp_)) lock.release_vc.merge(clock);
  lock.current_unlockers_mask |= std::uint64_t{1} << m.src;

  // Demand-driven digest: variables written in the critical section now
  // have the releaser as their authoritative owner.
  for (std::uint64_t k = 0; k < m.d; ++k) {
    lock.ownership[static_cast<VarId>(m.payload[digest_at + k])] = m.src;
  }

  if (lock.holders.empty()) {
    lock.mode = Mode::kFree;
    lock.prev_holders_mask = lock.current_unlockers_mask;
    lock.current_unlockers_mask = 0;
  }
  try_grant(id, lock);
}

void SyncManager::try_grant(LockId id, LockState& lock) {
  while (!lock.queue.empty()) {
    const Request head = lock.queue.front();
    if (head.kind == LockRequestKind::kWrite) {
      if (lock.mode != Mode::kFree) return;
      lock.queue.pop_front();
      lock.mode = Mode::kWrite;
      lock.holders.insert(head.who);
      ++lock.episode;
      send_grant(id, lock, head);
      return;
    }
    // Reader at the head: admit into a fresh episode when the lock is free,
    // or join the running read episode.  FIFO order prevents writer
    // starvation (a queued writer blocks later readers behind it).
    if (lock.mode == Mode::kWrite) return;
    lock.queue.pop_front();
    if (lock.mode == Mode::kFree) {
      lock.mode = Mode::kRead;
      ++lock.episode;
    }
    lock.holders.insert(head.who);
    send_grant(id, lock, head);
  }
}

void SyncManager::send_grant(LockId id, LockState& lock, const Request& req) {
  const net::Endpoint who = req.who;
  grant_wait_ns_.record(std::chrono::steady_clock::now() - req.enqueued);
  grants_.add();
  if (profiler_ != nullptr && lock.prev_holders_mask != 0 &&
      (lock.prev_holders_mask & (std::uint64_t{1} << who)) == 0) {
    // The grantee was not part of the previous episode: the protected data
    // migrates to another process (handoff).
    profiler_->record_lock_handoff(id);
  }
  net::Message grant;
  grant.src = self_;
  grant.dst = who;
  grant.kind = kLockGrant;
  grant.a = id;
  grant.b = lock.episode;
  grant.c = lock.prev_holders_mask;
  VectorClock counts;
  if (has_counts(stamp_)) {
    // Per sender j: how many updates j had shipped to `who` when it last
    // unlocked.  The acquirer waits for that many before reading.
    counts = VectorClock(num_procs_);
    for (const auto& [j, sent] : lock.unlock_counts) {
      if (j < num_procs_ && who < sent.size()) counts.set(j, sent[who]);
    }
  }
  encode_stamp(stamp_, counts, lock.release_vc, grant.payload);
  std::uint64_t digest = 0;
  for (const auto& [var, owner] : lock.ownership) {
    if (owner == who) continue;  // acquirer already has the latest copy
    grant.payload.push_back(var);
    grant.payload.push_back(owner);
    ++digest;
  }
  grant.d = digest;
  fabric_.send(std::move(grant));
}

std::vector<Watchdog::WaitEdge> SyncManager::wait_edges() const {
  std::vector<Watchdog::WaitEdge> edges;
  std::scoped_lock lk(state_mu_);
  for (const auto& [id, lock] : locks_) {
    if (lock.holders.empty()) continue;
    for (const Request& req : lock.queue) {
      for (const net::Endpoint holder : lock.holders) {
        edges.push_back(Watchdog::WaitEdge{static_cast<ProcId>(req.who),
                                           static_cast<ProcId>(holder), id});
      }
    }
  }
  return edges;
}

std::vector<std::string> SyncManager::dump_locks() const {
  std::vector<std::string> out;
  std::scoped_lock lk(state_mu_);
  for (const auto& [id, lock] : locks_) {
    if (lock.holders.empty() && lock.queue.empty()) continue;
    std::string line = "lock " + std::to_string(id) + ": mode=";
    line += lock.mode == Mode::kFree ? "free"
            : lock.mode == Mode::kRead ? "read"
                                       : "write";
    line += " episode=" + std::to_string(lock.episode) + " holders=[";
    bool first = true;
    for (const net::Endpoint h : lock.holders) {
      line += (first ? "p" : " p") + std::to_string(h);
      first = false;
    }
    line += "] queue=[";
    first = true;
    for (const Request& r : lock.queue) {
      line += (first ? "p" : " p") + std::to_string(r.who) +
              (r.kind == LockRequestKind::kWrite ? "(w)" : "(r)");
      first = false;
    }
    line += "]";
    out.push_back(std::move(line));
  }
  return out;
}

// ----------------------------------------------------------------------
// Barriers
// ----------------------------------------------------------------------

std::vector<ProcId> SyncManager::members_of(BarrierId b) const {
  auto it = members_.find(b);
  if (it != members_.end()) return it->second;
  std::vector<ProcId> everyone(num_procs_);
  for (ProcId p = 0; p < num_procs_; ++p) everyone[p] = p;
  return everyone;
}

std::vector<ProcId> SyncManager::participants_at(BarrierId b, std::uint64_t epoch) const {
  std::vector<ProcId> out;
  const auto mf = member_from_.find(b);
  for (const ProcId p : members_of(b)) {
    if (!view_.is_alive(p)) continue;
    if (mf != member_from_.end()) {
      const auto it = mf->second.find(p);
      if (it != mf->second.end() && it->second > epoch) continue;
    }
    out.push_back(p);
  }
  return out;
}

std::vector<std::string> SyncManager::dump_barriers() const {
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

void SyncManager::handle_arrive(const net::Message& m) {
  const auto barrier = static_cast<BarrierId>(m.a);
  const auto src = static_cast<ProcId>(m.src);
  const std::vector<ProcId> configured = members_of(barrier);

  const InstanceKey key{barrier, m.b};
  std::scoped_lock state_lk(state_mu_);
  // An arrival racing the sender's eviction lands after the commit already
  // waived it (its clock contribution is covered by the re-mastering path,
  // not the release).
  if (stale_sender(src)) return;
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

  VectorClock counts, clock;
  const std::size_t words = decode_stamp(stamp_, num_procs_, m.payload, counts, clock);
  MC_CHECK(m.payload.size() == words);
  if (has_counts(stamp_)) inst.payloads[src] = std::move(counts);
  if (has_clock(stamp_)) inst.merged.merge(clock);

  maybe_release(key);
}

void SyncManager::maybe_release(const InstanceKey& key) {
  const auto it = instances_.find(key);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  const std::vector<ProcId> participants =
      elastic_ ? participants_at(key.first, key.second) : members_of(key.first);
  for (const ProcId p : participants) {
    if (!inst.arrived[p]) return;
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
  net::Message release;
  release.src = self_;
  release.kind = kBarrierRelease;
  release.a = key.first;
  release.b = key.second;
  if (has_counts(stamp_)) {
    // Transpose: receiver i must wait, per sender j, for the number of
    // updates j reported having sent to i before arriving (Section 6).
    for (const ProcId i : participants) {
      net::Message to_i = release;
      to_i.dst = i;
      VectorClock counts(num_procs_);
      for (const auto& [j, sent] : inst.payloads) counts.set(j, sent[i]);
      encode_stamp(stamp_, counts, inst.merged, to_i.payload);
      fabric_.send(std::move(to_i));
    }
  } else {
    // The merged clock keeps every recorded arrival, including a member
    // that died after arriving: its pre-barrier writes are still ordered
    // before the release.
    encode_stamp(stamp_, {}, inst.merged, release.payload);
    std::vector<net::Endpoint> dsts(participants.begin(), participants.end());
    fabric_.multicast(release, dsts);
  }
  if (elastic_) {
    auto& next = next_epoch_[key.first];
    next = std::max(next, key.second + 1);
  }
  instances_.erase(it);
}

// ----------------------------------------------------------------------
// Views (elastic membership)
// ----------------------------------------------------------------------

View SyncManager::view() const {
  std::scoped_lock lk(state_mu_);
  return view_;
}

void SyncManager::set_view_listener(ViewListener listener) {
  std::scoped_lock lk(state_mu_);
  view_listener_ = std::move(listener);
}

void SyncManager::handle_view_trigger(const net::Message& m) {
  std::function<void()> post;
  {
    std::scoped_lock state_lk(state_mu_);
    if (!elastic_) return;
    const auto p = static_cast<ProcId>(m.a);
    if (p >= num_procs_) return;
    const std::uint64_t bit = std::uint64_t{1} << p;
    if (m.kind == kViewJoin) {
      const bool member_soon = (pending_ && (pending_->mask & bit) != 0) ||
                               (deferred_join_mask_ & bit) != 0;
      if ((view_.alive_mask & bit) != 0 || member_soon) return;  // duplicate
      view_joins_.add();
      deferred_join_mask_ |= bit;
      deferred_remove_mask_ &= ~bit;
    } else {
      const bool in_view = (view_.alive_mask & bit) != 0;
      const bool in_pending = pending_ && (pending_->mask & bit) != 0;
      if (!in_view && !in_pending && (deferred_join_mask_ & bit) == 0) {
        return;  // already out — duplicate fault verdicts are routine
      }
      if (m.kind == kViewFault) view_faults_.add(); else view_leaves_.add();
      deferred_join_mask_ &= ~bit;
      if (in_pending && m.kind == kViewFault) {
        // A dead proposed member will never ack: drop it from the pending
        // proposal in place (same epoch; acks already collected stay
        // valid) so the commit isn't wedged on a dead acker.
        pending_->mask &= ~bit;
        pending_->acked_mask &= ~bit;
        pending_->acked_vc.erase(p);
        if (pending_->joiner == p) pending_->joiner = kNoProc;
      } else {
        // A live leaver keeps acking; removal waits for the next proposal.
        deferred_remove_mask_ |= bit;
      }
    }
    maybe_propose();
    if (pending_ && (pending_->acked_mask & pending_->mask) == pending_->mask) {
      post = commit_pending();
    }
  }
  if (post) post();
}

void SyncManager::handle_view_ack(const net::Message& m) {
  std::function<void()> post;
  {
    std::scoped_lock state_lk(state_mu_);
    if (!elastic_ || !pending_ || m.a != pending_->epoch) return;  // stale
    const auto p = static_cast<ProcId>(m.src);
    if (p >= num_procs_ || ((pending_->mask >> p) & 1) == 0) return;
    pending_->acked_mask |= std::uint64_t{1} << p;
    VectorClock vc(num_procs_);
    if (m.payload.size() >= num_procs_) {
      for (ProcId k = 0; k < num_procs_; ++k) vc.set(k, m.payload[k]);
    }
    pending_->acked_vc[p] = std::move(vc);
    if ((pending_->acked_mask & pending_->mask) == pending_->mask) {
      post = commit_pending();
    }
  }
  if (post) post();
}

void SyncManager::maybe_propose() {
  if (pending_) return;
  deferred_join_mask_ &= ~view_.alive_mask;  // raced a commit that admitted
  const std::uint64_t removes = deferred_remove_mask_ & view_.alive_mask;
  deferred_remove_mask_ = 0;
  ProcId joiner = kNoProc;
  std::uint64_t join_bit = 0;
  for (ProcId p = 0; p < static_cast<ProcId>(num_procs_); ++p) {
    const std::uint64_t bit = std::uint64_t{1} << p;
    if ((deferred_join_mask_ & bit) != 0) {
      joiner = p;
      join_bit = bit;
      break;  // one joiner per view change; the rest wait their turn
    }
  }
  deferred_join_mask_ &= ~join_bit;
  const std::uint64_t new_mask = (view_.alive_mask & ~removes) | join_bit;
  if (new_mask == view_.alive_mask) return;
  PendingView pv;
  pv.epoch = view_.epoch + 1;
  pv.mask = new_mask;
  pv.joiner = joiner;
  pending_ = std::move(pv);
  for (ProcId p = 0; p < static_cast<ProcId>(num_procs_); ++p) {
    if (((new_mask >> p) & 1) == 0) continue;
    net::Message msg;
    msg.src = self_;
    msg.dst = p;
    msg.kind = kViewPropose;
    msg.a = pending_->epoch;
    msg.b = new_mask;
    msg.c = view_.alive_mask;
    fabric_.send(std::move(msg));
  }
}

std::function<void()> SyncManager::commit_pending() {
  MC_CHECK(pending_.has_value());
  const PendingView pv = *pending_;
  pending_.reset();
  const std::uint64_t old_mask = view_.alive_mask;
  const std::uint64_t departed = old_mask & ~pv.mask;
  view_.epoch = pv.epoch;
  view_.alive_mask = pv.mask;
  view_changes_.add();

  // Re-master lock state: purge dead requesters, revoke dead holders to
  // their episode boundary, drop dead demand-ownership (those migratory
  // writes lived only on the departed node — a documented loss, see
  // docs/FAULTS.md "Membership and views").
  for (auto& [id, lock] : locks_) {
    for (auto it = lock.queue.begin(); it != lock.queue.end();) {
      if (it->who < num_procs_ && ((departed >> it->who) & 1) != 0) {
        it = lock.queue.erase(it);
      } else {
        ++it;
      }
    }
    bool revoked = false;
    for (auto it = lock.holders.begin(); it != lock.holders.end();) {
      if (*it < num_procs_ && ((departed >> *it) & 1) != 0) {
        locks_revoked_.add();
        revoked = true;
        it = lock.holders.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = lock.ownership.begin(); it != lock.ownership.end();) {
      if (it->second < num_procs_ && ((departed >> it->second) & 1) != 0) {
        it = lock.ownership.erase(it);
      } else {
        ++it;
      }
    }
    if (revoked && lock.holders.empty()) {
      lock.mode = Mode::kFree;
      // The revoked episode ends at its boundary: survivors' unlock clocks
      // stand; the dead holder's unflushed tail is simply not part of the
      // release set the next grant forwards.
      lock.prev_holders_mask = lock.current_unlockers_mask;
      lock.current_unlockers_mask = 0;
    }
    try_grant(id, lock);
  }

  // Re-mastering assignments: for each departed d, the survivor whose
  // acked applied clock absorbed the most of d's writes re-broadcasts the
  // d-authored state it holds (LWW makes redundant copies harmless); a
  // joiner snapshot-fetches from the most caught-up member.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> assignments;
  for (ProcId d = 0; d < static_cast<ProcId>(num_procs_); ++d) {
    if (((departed >> d) & 1) == 0) continue;
    ProcId donor = kNoProc;
    std::uint64_t best = 0;
    for (const auto& [p, vc] : pv.acked_vc) {
      if (((pv.mask >> p) & 1) == 0) continue;
      if (donor == kNoProc || vc[d] > best) {
        donor = p;
        best = vc[d];
      }
    }
    if (donor != kNoProc) {
      assignments.emplace_back(d, donor);
      reseed_assignments_.add();
    }
  }
  // The joiner participates from the next unseen instance of every barrier
  // object — open instances belong to phases whose work was partitioned
  // before it existed.
  std::vector<std::pair<BarrierId, std::uint64_t>> joined_from;
  if (pv.joiner != kNoProc) {
    ProcId donor = kNoProc;
    std::uint64_t best = 0;
    for (const auto& [p, vc] : pv.acked_vc) {
      if (p == pv.joiner || ((pv.mask >> p) & 1) == 0) continue;
      if (donor == kNoProc || vc.total() > best) {
        donor = p;
        best = vc.total();
      }
    }
    if (donor != kNoProc) assignments.emplace_back(pv.joiner, donor);
    std::map<BarrierId, std::uint64_t> start = next_epoch_;
    for (const auto& [key, inst] : instances_) {
      (void)inst;
      auto& s = start[key.first];
      s = std::max(s, key.second + 1);
    }
    for (const auto& [b, e] : start) {
      member_from_[b][pv.joiner] = e;
      joined_from.emplace_back(b, e);
    }
  }

  // Commit goes to every node of the old and new views (a graceful leaver
  // is waiting for it); the joiner's copy carries its barrier epochs.
  const std::uint64_t notify = old_mask | pv.mask;
  for (ProcId p = 0; p < static_cast<ProcId>(num_procs_); ++p) {
    if (((notify >> p) & 1) == 0) continue;
    net::Message msg;
    msg.src = self_;
    msg.dst = p;
    msg.kind = kViewCommit;
    msg.a = view_.epoch;
    msg.b = view_.alive_mask;
    msg.c = pv.joiner == kNoProc ? ~std::uint64_t{0} : pv.joiner;
    msg.d = assignments.size();
    for (const auto& [target, donor] : assignments) {
      msg.payload.push_back(target);
      msg.payload.push_back(donor);
    }
    if (p == pv.joiner) {
      for (const auto& [b, e] : joined_from) {
        msg.payload.push_back(b);
        msg.payload.push_back(e);
      }
    }
    fabric_.send(std::move(msg));
  }
  if (obs::trace_enabled()) {
    obs::trace_instant("view.commit", "dsm", {"epoch", view_.epoch},
                       {"mask", view_.alive_mask});
  }

  // Survivors stranded mid-phase: a departed member's missing arrival is
  // waived, so re-check every open instance under the new membership.  The
  // releases follow the commit on each member's channel.
  std::vector<InstanceKey> keys;
  keys.reserve(instances_.size());
  for (const auto& [key, inst] : instances_) {
    (void)inst;
    keys.push_back(key);
  }
  for (const InstanceKey& key : keys) maybe_release(key);

  // Accumulated churn that arrived while this change was in flight.
  maybe_propose();

  const View committed = view_;
  const ProcId joiner = pv.joiner;
  auto listener = view_listener_;
  return [listener = std::move(listener), committed, departed, joiner,
          joined_from = std::move(joined_from)] {
    if (listener) listener(committed, departed, joiner, joined_from);
  };
}

}  // namespace mc::dsm
