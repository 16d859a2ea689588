#include "dsm/node.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <span>
#include <thread>

#include "common/check.h"
#include "dsm/staleness.h"
#include "obs/op_sink.h"
#include "obs/tracer.h"

namespace mc::dsm {

namespace {

/// Node::static_dests_ for `cfg`: empty unless it lists subscribers.
std::vector<std::uint64_t> subscriber_dests(const Config& cfg) {
  if (!cfg.count_vectors.has_value() || cfg.count_vectors->subscribers.empty()) return {};
  std::vector<std::uint64_t> dests(cfg.num_vars, full_mask(cfg.num_procs));
  for (const auto& [x, subs] : cfg.count_vectors->subscribers) dests[x] = mask_of(subs);
  return dests;
}

}  // namespace

Node::Node(const Config& cfg, ProcId self, net::Fabric& fabric, net::Endpoint mgr,
           StalenessTable* staleness)
    : cfg_(cfg),
      self_(self),
      fabric_(fabric),
      mgr_(mgr),
      stamp_(stamp_form(cfg)),
      clock_words_(has_clock(stamp_) ? cfg.num_procs : 0),
      static_dests_(subscriber_dests(cfg)),
      full_replication_(!dir_mode() && static_dests_.empty()),
      staleness_(staleness),
      mem_(cfg.num_vars, cfg.num_procs),
      dep_vc_(cfg.num_procs),
      applied_(cfg.num_procs),
      update_arrived_(cfg.num_procs),
      pram_floor_(cfg.num_procs),
      causal_floor_(cfg.num_procs),
      causal_buffer_(cfg.num_procs),
      sent_to_(cfg.num_procs),
      received_from_(cfg.num_procs),
      count_floor_(cfg.num_procs),
      elastic_(cfg.elastic),
      trace_(cfg.record_trace) {
  if (elastic_) {
    view_.alive_mask = cfg_.initial_members.has_value()
                           ? mask_of(*cfg_.initial_members)
                           : full_mask(cfg_.num_procs);
  }
  if (dir_mode()) {
    sharer_mask_.assign(cfg_.num_vars, 0);
    writer_mask_.assign(cfg_.num_vars, elastic_ ? full_mask(cfg_.num_procs) : 0);
    cached_.assign(cfg_.num_vars, false);
    last_use_.assign(cfg_.num_vars, 0);
    frame_of_.assign(cfg_.num_vars, 0);
    fill_inflight_.assign(cfg_.num_vars, false);
    resolved_ = VectorClock(cfg_.num_procs);
    // Owner pin: the home's copy of each of its variables is always
    // resident, so eviction elsewhere can never drop the last replica.
    // Demand-association variables keep full replication.
    for (VarId x = 0; x < cfg_.num_vars; ++x) {
      if (!dir_managed(x) || effective_home(x) == self_) cached_[x] = true;
      writer_mask_[x] |= std::uint64_t{1} << static_home(x);
    }
  }
  register_handlers();
  actor_.start();
}

template <typename Pred>
void Node::wait_or_die(std::unique_lock<std::mutex>& lk, const char* what, Pred pred) {
  // Elastic: an evicted process has no further obligations anyone will
  // meet — unwind it instead of letting it stall (system.cpp treats
  // EvictedError as a clean per-process exit).
  if (evicted_) throw EvictedError(what);
  auto stop = [&] { return evicted_ || pred(); };
  Watchdog* wd = watchdog_.load(std::memory_order_acquire);
  if (wd == nullptr) {
    net::wait_or_die(cv_, lk, what, stop);
    if (evicted_) throw EvictedError(what);
    return;
  }
  // Watchdog-supervised wait: register while blocked, poll fired() so a
  // stall anywhere in the system unwinds this thread with StallError
  // instead of wedging it until its own deadline.
  if (wd->fired()) throw StallError(what);
  Watchdog::WaitScope scope(*wd, self_, what);
  const auto deadline = net::liveness_deadline();
  for (;;) {
    if (cv_.wait_for(lk, wd->poll_interval(), stop)) {
      if (evicted_) throw EvictedError(what);
      return;
    }
    if (wd->fired()) throw StallError(what);
    MC_CHECK_MSG(std::chrono::steady_clock::now() < deadline, what);
  }
}

// ----------------------------------------------------------------------
// Delivery (the endpoint actor's handlers)
// ----------------------------------------------------------------------

void Node::register_handlers() {
  // The actor dispatches one drained batch in arrival order across kinds:
  // a kViewHello baseline, say, must land before the updates queued behind
  // it.  Each maximal run of consecutive kUpdate frames applies under one
  // mu_ hold with one causal drain, and the whole batch ends with one
  // wake-up of the application thread (DESIGN.md decision 9).
  auto bind = [this](void (Node::*h)(const net::Message&)) {
    return [this, h](const net::Message& m) { (this->*h)(m); };
  };
  actor_.on_run(kUpdate, [this](const std::function<void()>& dispatch) {
    std::scoped_lock lk(mu_);
    dispatch();
    // A frame applied in the run may have made buffered ones ready.
    if (stamp_ == StampForm::kClock) drain_causal_buffers();
  });
  actor_.on(kUpdate, bind(&Node::on_update_frame_locked));
  actor_.after_batch([this] {
    cv_.notify_all();
    // Let the application thread just woken take mu_ before this thread
    // re-takes it for the next batch: on a busy host, draining straight
    // on hands the woken thread a lock convoy instead of the lock.
    std::this_thread::yield();
  });

  actor_.on(kLockGrant, [this](const net::Message& m) {
    GrantInfo info;
    info.episode = m.b;
    info.prev_holders_mask = m.c;
    const std::size_t at =
        decode_stamp(stamp_, cfg_.num_procs, m.payload, info.counts, info.release_vc);
    MC_CHECK(m.payload.size() >= at + 2 * m.d);
    for (std::uint64_t k = 0; k < m.d; ++k) {
      info.invalid.emplace_back(static_cast<VarId>(m.payload[at + 2 * k]),
                                static_cast<net::Endpoint>(m.payload[at + 2 * k + 1]));
    }
    info.trace_id = m.trace_id;
    std::scoped_lock lk(mu_);
    pending_grants_[static_cast<LockId>(m.a)] = std::move(info);
  });
  actor_.on(kBarrierRelease, [this](const net::Message& m) {
    BarrierRelease rel;
    const std::size_t words =
        decode_stamp(stamp_, cfg_.num_procs, m.payload, rel.counts, rel.vc);
    MC_CHECK(m.payload.size() == words);
    rel.trace_id = m.trace_id;
    std::scoped_lock lk(mu_);
    barrier_release_[{static_cast<BarrierId>(m.a), m.b}] = std::move(rel);
  });
  actor_.on(kSyncReq, [this](const net::Message& m) {
    // FIFO channels guarantee the prober's earlier updates were handled
    // ahead of this probe (the delivery batch keeps arrival order);
    // acknowledge immediately.
    fabric_.send(msg_to(m.src, kSyncAck, m.a));
  });
  actor_.on(kSyncAck, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    ++sync_acks_[m.a];
  });
  if (elastic_) {
    actor_.on(kViewPropose, bind(&Node::on_view_propose));
    actor_.on(kViewCommit, bind(&Node::on_view_commit));
    actor_.on(kViewState, bind(&Node::on_view_state));
    actor_.on(kViewHello, bind(&Node::on_view_hello));
  }
  actor_.on(kFetchBulkReq, bind(&Node::on_fetch_bulk_req));
  actor_.on(kFetchBulkResp, bind(&Node::on_fetch_bulk_resp));
  actor_.on(kDirSharerAdd, bind(&Node::on_dir_sharer_add));
  actor_.on(kDirAck, bind(&Node::on_dir_ack));
  actor_.on(kDirUnregister, bind(&Node::on_dir_unregister));
  actor_.on(kDirSharerDel, bind(&Node::on_dir_sharer_del));
  actor_.on(kFrontierReq, [this](const net::Message& m) {
    // Flush first, reply second, same channel: FIFO puts every staged
    // write ahead of the frontier stamp, so the stamp's promise ("all
    // my writes up to this counter are on the wire to you") holds.
    net::Message resp;
    {
      std::scoped_lock lk(mu_);
      flush_staged_locked();
      resp = msg_to(m.src, kFrontierResp, dep_vc_[self_]);
    }
    fabric_.send(std::move(resp));
  });
  actor_.on(kFrontierResp, [this](const net::Message& m) {
    std::scoped_lock lk(mu_);
    resolved_.set(static_cast<ProcId>(m.src),
                  std::max(resolved_[static_cast<ProcId>(m.src)], m.a));
  });
  actor_.on(kDirSharerSync, bind(&Node::on_dir_sharer_sync));
  actor_.on(kFlushDue, [this](const net::Message& m) {
    // The staging run this deadline was posted for is still open: its
    // oldest record has waited max_delay.  After shutdown (the mailbox
    // releases what it holds at close) nobody is left to receive it.
    std::scoped_lock lk(mu_);
    if (m.a == staging_run_ && !fabric_.mailbox(self_).closed()) flush_staged_locked();
  });
}

void Node::on_update_frame_locked(const net::Message& m) {
  const auto sender = static_cast<ProcId>(m.src);
  std::size_t n = 0;
  for (FrameReader reader(m, clock_words_); !reader.done(); ++n) {
    if (n == frame_.size()) frame_.emplace_back();
    reader.next(frame_[n]);
  }
  const std::span<const BatchRecord> recs(frame_.data(), n);

  // Per-sender FIFO.  Coalescing keeps a merged record at its staging
  // position with its latest stamp, so the frame's position is the
  // maximum over its records, not the last record's.
  std::uint64_t weight = 0;
  std::uint64_t pos = 0;
  for (const BatchRecord& r : recs) {
    weight += r.weight;
    pos = std::max(pos, has_clock(stamp_) ? r.vc[sender] : r.seq);
  }
  if (!dir_mode()) {
    MC_CHECK_MSG(full_replication_ ? pos == update_arrived_[sender] + weight
                                   : pos > update_arrived_[sender],
                 "per-sender FIFO violated on the update channel");
  }
  update_arrived_.set(sender, std::max(update_arrived_[sender], pos));

  if (stamp_ == StampForm::kCounts) {
    // Section 6's count vectors: apply in arrival order and advance the
    // receive index by each record's weight — the collapsed originals
    // never travel, but the sender counted them in sent_to_.
    for (const BatchRecord& r : recs) {
      received_from_.set(sender, received_from_[sender] + r.weight);
      mem_.apply(r.var, r.value, r.flags, WriteId{sender, r.seq}, r.vc,
                 received_from_[sender], /*force=*/false, r.weight);
    }
    return;
  }
  if (dir_mode()) {
    apply_dir_frame_locked(sender, recs);
    // The flush stamp: everything this sender addressed to us up to its
    // m.b-th clocked write has now arrived (per-channel FIFO).
    resolved_.set(sender, std::max(resolved_[sender], m.b));
    return;
  }
  frame_vc_.assign(recs[0].vc.components());
  for (const BatchRecord& r : recs.subspan(1)) frame_vc_.merge(r.vc);
  if (causal_buffer_[sender].empty() && causally_ready(frame_vc_, sender)) {
    // The common case: nothing from this sender is waiting and the
    // frame's dependencies are applied, so it applies now, unbuffered.
    for (const BatchRecord& r : recs) {
      mem_.apply(r.var, r.value, r.flags, WriteId{sender, r.seq}, r.vc, 0,
                 /*force=*/false, r.weight, r.epoch);
    }
    applied_.set(sender, frame_vc_[sender]);
    return;
  }
  causal_buffer_[sender].push_back(
      PendingUpdate{std::vector<BatchRecord>(recs.begin(), recs.end()), frame_vc_});
}

void Node::apply_dir_frame_locked(ProcId sender, std::span<const BatchRecord> recs) {
  // Directory mode applies at arrival with no causal buffering: each
  // variable is an apply-order-independent LWW register (store.cpp), and
  // the read gate blocks on the resolved frontier instead of waiting for
  // causally-ready application.  Records for variables this node does not
  // cache are counted (the sender counted them in sent_to_, and Section
  // 6's count synchronization compares the two) but not applied.
  for (const BatchRecord& r : recs) {
    received_from_.set(sender, received_from_[sender] + r.weight);
    // Re-homing offers carry the original writer's id.
    const ProcId writer = r.writer == kNoProc ? sender : r.writer;
    if (cached_[r.var]) {
      mem_.apply(r.var, r.value, r.flags, WriteId{writer, r.seq}, r.vc,
                 received_from_[sender], /*force=*/false, r.weight, r.epoch);
    } else if (fill_inflight_[r.var]) {
      // The fill's ack fence already registered us, so writers multicast
      // here before our snapshot arrives.  The home's snapshot is fixed
      // when its last fence ack lands — it may or may not cover this
      // write — so hold the record and let the install replay it against
      // the snapshot clock (on_fetch_bulk_resp).
      BatchRecord held = r;
      held.writer = writer;
      fill_backlog_[r.var].push_back(std::move(held));
    } else if (r.writer != kNoProc) {
      // A re-homing offer or leave handoff addressed to this node as an
      // incoming home: the offer and the view commit that pins cached_
      // race on independent channels, so apply it to the store either
      // way — the entry only becomes readable once the pin (or a fill)
      // marks the variable cached.
      mem_.apply(r.var, r.value, r.flags, WriteId{writer, r.seq}, r.vc,
                 received_from_[sender], /*force=*/false, r.weight, r.epoch);
    }
    applied_.set(sender, std::max(applied_[sender], r.vc[sender]));
  }
}

bool Node::causally_ready(const VectorClock& vc, ProcId sender) const {
  return elastic_ ? vc.ready_after_masked(applied_, sender, /*allow_gap=*/true,
                                          view_.alive_mask)
                  : vc.ready_after(applied_, sender, /*allow_gap=*/true);
}

void Node::drain_causal_buffers() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcId s = 0; s < cfg_.num_procs; ++s) {
      auto& q = causal_buffer_[s];
      while (!q.empty() && causally_ready(q.front().vc, s)) {
        const PendingUpdate& u = q.front();
        // A frame applies atomically: every record lands under this one
        // mutex hold, so no reader observes a mid-frame state (which the
        // coalesced per-write history could not serialize).
        for (const BatchRecord& r : u.recs) {
          mem_.apply(r.var, r.value, r.flags, WriteId{s, r.seq}, r.vc, 0,
                     /*force=*/false, r.weight, r.epoch);
        }
        applied_.set(s, u.vc[s]);
        q.pop_front();
        progress = true;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Elastic membership (Config::elastic; dsm/view.h, docs/FAULTS.md)
// ----------------------------------------------------------------------

void Node::on_view_propose(const net::Message& m) {
  // Ack = "my staging buffers are flushed and this applied clock is
  // truthful" — the manager picks re-seed donors from these snapshots.
  net::Message ack = msg_to(m.src, kViewAck, m.a);
  std::scoped_lock lk(mu_);
  flush_staged_locked();
  ack.payload.assign(applied_.components().begin(), applied_.components().end());
  fabric_.send(std::move(ack));
}

void Node::on_view_commit(const net::Message& m) {
  std::vector<net::Message> replay;
  std::unique_lock lk(mu_);
  if (m.a <= view_.epoch) return;  // stale — epochs are monotone
  const std::uint64_t prev_mask = view_.alive_mask;
  view_.epoch = m.a;
  view_.alive_mask = m.b;
  const std::uint64_t departed = prev_mask & ~m.b;
  const ProcId joiner =
      m.c == ~std::uint64_t{0} ? kNoProc : static_cast<ProcId>(m.c);

  if (self_ < 64 && ((prev_mask >> self_) & 1) != 0 && !view_.is_alive(self_)) {
    if (leaving_) left_ = true;
    else evicted_ = true;
  }
  // The joiner's copy carries, past the re-seed assignments, the first
  // instance of each barrier object it participates in.
  MC_CHECK(m.payload.size() >= 2 * m.d);
  for (std::size_t k = 2 * m.d; joiner == self_ && k + 1 < m.payload.size(); k += 2) {
    auto& e = barrier_epoch_[static_cast<BarrierId>(m.payload[k])];
    e = std::max(e, m.payload[k + 1]);
  }

  // Staged updates to the departed will never be acknowledged; drop them.
  // Their sent_to_ counts stand — nobody synchronizes on a dead sender's
  // counts again.
  if (split_) {
    for (ProcId p = 0; p < cfg_.num_procs && p < 64; ++p) {
      if (((departed >> p) & 1) != 0) split_staged_[p].clear();
    }
  } else if ((shared_dests_ &= ~departed) == 0) {
    shared_n_ = 0;
  }
  // Demand-driven invalidations pointing at a dead owner: fall back to the
  // local copy (the re-mastering pass re-seeds it if the owner's write was
  // the global winner).
  for (auto it = invalid_.begin(); it != invalid_.end();) {
    const auto owner = it->second;
    if (owner < 64 && ((departed >> owner) & 1) != 0) it = invalid_.erase(it);
    else ++it;
  }
  // Fetches in flight.  A demand fetch keeps waiting on a live owner; one
  // whose owner departed completes with no install, so the reader falls
  // back to its local copy as above.  A directory fill aborts rather than
  // re-aims — re-homing can even split a prefetch frame across new homes —
  // and the blocked reader wakes, re-checks its miss, and re-faults under
  // the new view.
  for (auto& [token, pf] : fills_) {
    if (pf.done) continue;
    if (pf.owner != kNoProc) {
      pf.done = pf.owner < 64 && ((departed >> pf.owner) & 1) != 0;
      continue;
    }
    for (const VarId x : pf.vars) {
      fill_inflight_[x] = false;
      // Held raced-the-fill records die with the fill: the re-issued
      // fill's fence re-covers anything a surviving writer sent.
      fill_backlog_.erase(x);
    }
    pf.done = true;
  }
  // Buffered updates gated on a dead component may be ready under the mask.
  drain_causal_buffers();

  // Directory reconfiguration (docs/DIRECTORY.md): purge dead sharers,
  // re-home, and unwind fills that straddle the view change.
  if (dir_mode()) {
    // A departed process can never receive another update; clear its bits
    // from every mirror row so multicasts stop addressing it.
    if (departed != 0) {
      for (VarId x = 0; x < cfg_.num_vars; ++x) {
        const std::uint64_t purged = sharer_mask_[x] & departed;
        if (purged == 0) continue;
        sharer_mask_[x] &= ~departed;
        stats_.dir_sharers_purged.add(popcount64(purged));
      }
    }
    if (view_.is_alive(self_)) {
      const bool run_started = staging_empty();
      // Re-home: a variable whose effective home moved to this node is
      // pinned here from now on; when it moved *away*, offer our copy to
      // the new home — which may never have been a sharer.  LWW
      // arbitration dedupes offers from multiple holders.  Counters are
      // skipped: a delta-merged value is a sum of per-replica
      // applications, not a transplantable winner (docs/FAULTS.md — same
      // class as re-seeding).
      for (VarId x = 0; x < cfg_.num_vars; ++x) {
        if (!dir_managed(x)) continue;
        const ProcId old_home = home_under(prev_mask, x);
        const ProcId new_home = home_under(view_.alive_mask, x);
        if (old_home == new_home) continue;
        if (new_home == self_) {
          cached_[x] = true;  // owner pin: the home always holds a copy
        } else if (cached_[x]) {
          const VarEntry& e = mem_.entry(x);
          if (e.last.valid() && !e.delta_touched) {
            stage_update(std::uint64_t{1} << new_home, x, e.value, kFlagWrite,
                         e.last.seq, e.vc, e.epoch, e.last.proc);
          }
          // The owner pin lapses with the homing: a pin-only copy has no
          // row bit, so the new home's multicasts would never refresh it —
          // drop it rather than serve stale reads.  Demand-registered
          // copies (own row bit set) stay live, and counter copies stay
          // because a delta sum is not transplantable.
          if (old_home == self_ && !e.delta_touched &&
              ((sharer_mask_[x] >> self_) & 1) == 0) {
            cached_[x] = false;
          }
        }
      }
      // The offers ship with the next flush, or at the run's deadline.
      if (run_started && !staging_empty()) post_flush_deadline_locked();
    }
    // Home-side fills: a dead requester's fill is abandoned, dead ackers
    // leave the fence, and a variable re-homed away is the new home's
    // problem (its requester re-faults below).
    for (auto it = fills_serving_.begin(); it != fills_serving_.end();) {
      ServingFill& f = it->second;
      if (!view_.is_alive(f.requester) ||
          effective_home(f.vars.front()) != self_) {
        it = fills_serving_.erase(it);
        continue;
      }
      f.need_acks &= view_.alive_mask;
      if (f.need_acks == 0) {
        send_fetch_response_locked(f.requester, f.vars, it->first.second);
        it = fills_serving_.erase(it);
      } else {
        ++it;
      }
    }
    // Handlers deferred to this epoch re-run once mu_ drops at the end of
    // this function (they take the lock themselves, and may re-defer).
    replay.swap(dir_deferred_);
  }

  // The kViewState snapshot of the variables this node holds whose entries
  // pass `keep`.  Directory mode ships only variables this node actually
  // caches: an evicted replica's stale entry is not a donatable copy.
  const auto view_state = [&](ViewStateFlavour flavour, auto keep) {
    std::vector<VarId> vars;
    for (VarId x = 0; x < mem_.size(); ++x) {
      if ((!dir_managed(x) || cached_[x]) && keep(mem_.entry(x))) vars.push_back(x);
    }
    net::Message st = snapshot_frame_locked(vars);
    st.kind = kViewState;
    st.b = flavour;
    stats_.reseeds_out.add(vars.size());
    return st;
  };

  // Donor duties: re-seed each departed process's surviving latest writes,
  // or ship the joiner a full snapshot.
  for (std::uint64_t k = 0; k < m.d; ++k) {
    const auto target = static_cast<ProcId>(m.payload[2 * k]);
    const auto donor = static_cast<ProcId>(m.payload[2 * k + 1]);
    if (donor != self_) continue;
    const bool to_joiner = target == joiner && joiner != kNoProc;
    // A full snapshot ships every entry ever touched, counters included
    // (the joiner has no local applications to double-count against).  A
    // re-seed ships only entries whose latest write is the departed
    // process's, and never counters (a delta-merged value is a sum of
    // per-replica applications, not a replicable LWW winner).
    net::Message st = view_state(to_joiner ? kJoinSnapshot : kReseed, [&](const VarEntry& e) {
      return to_joiner ? e.last.valid() || !e.vc.empty()
                       : e.last.proc == target && !e.delta_touched;
    });
    if (to_joiner) {
      st.dst = joiner;
      fabric_.send(std::move(st));
    } else {
      // Every survivor might be missing some of the departed's writes.
      for (const ProcId p : view_.members()) {
        if (p == self_ || p >= cfg_.num_procs) continue;
        net::Message copy = st;
        copy.dst = p;
        fabric_.send(std::move(copy));
      }
    }
  }

  // FIFO baseline for the admitted joiner, sent under mu_ so any update we
  // broadcast afterwards is sequenced behind it on the same channel.
  if (joiner != kNoProc && joiner != self_ && view_.is_alive(self_)) {
    // Self backfill first: the designated donor's snapshot races with
    // updates third parties broadcast to the OLD membership only — such a
    // write can reach the donor after it snapshots and is then never sent
    // to the joiner.  Each survivor therefore re-offers its own latest
    // writes; LWW arbitration at the joiner picks the same winner the
    // survivors converged on, in either arrival order.  Counters stay
    // snapshot-only (a delta-merged value is not a replicable LWW winner).
    net::Message bf = view_state(kSelfBackfill, [&](const VarEntry& e) {
      return e.last.proc == self_ && !e.delta_touched;
    });
    bf.dst = joiner;
    fabric_.send(std::move(bf));

    net::Message hello = msg_to(joiner, kViewHello);
    // The clock component, not write_counter_: demand-lock writes count
    // there but never tick the clock the joiner's FIFO check compares.
    hello.a = dep_vc_[self_];
    hello.b = view_.epoch;
    hello.payload.assign(dep_vc_.components().begin(), dep_vc_.components().end());
    fabric_.send(std::move(hello));

    if (dir_mode()) {
      // Authoritative directory rows for the joiner's mirror: this node's
      // homed variables.  Sent even when empty — the joiner counts sync
      // senders before finishing join(), and FIFO sequencing puts the sync
      // ahead of any later kDirSharerAdd we multicast.
      net::Message sync = msg_to(joiner, kDirSharerSync, 0, view_.epoch);
      std::uint64_t pairs = 0;
      for (VarId x = 0; x < cfg_.num_vars; ++x) {
        if (!dir_managed(x)) continue;
        // Own homed rows, plus rows this node just handed to the joiner by
        // re-homing — the joiner serializes those from now on and must
        // know their registered sharers (every survivor mirrors the row,
        // so duplicate shipments OR-merge to the same value).
        const bool mine = effective_home(x) == self_;
        const bool handed_off =
            home_under(prev_mask, x) == self_ && effective_home(x) == joiner;
        if (!mine && !handed_off) continue;
        if (sharer_mask_[x] == 0) continue;
        sync.payload.push_back(x);
        sync.payload.push_back(sharer_mask_[x]);
        ++pairs;
      }
      sync.a = pairs;
      fabric_.send(std::move(sync));
    }
  }
  lk.unlock();
  for (net::Message& dm : replay) {
    if (dm.kind == kFetchBulkReq) on_fetch_bulk_req(dm);
    else if (dm.kind == kDirSharerAdd) on_dir_sharer_add(dm);
  }
}

void Node::on_view_state(const net::Message& m) {
  const std::vector<BatchRecord> recs = decode_frame(m, cfg_.num_procs);
  std::scoped_lock lk(mu_);
  for (const BatchRecord& r : recs) {
    // Directory mode: a snapshot record for a variable this node does not
    // cache must not materialize a replica outside the directory's
    // knowledge — skip it; a later read demand-pages a fresh copy.
    if (dir_managed(r.var) && !cached_[r.var]) continue;
    install_snapshot_locked(r, /*force=*/false);
    stats_.reseeds_in.add();
  }
  if (m.b == kJoinSnapshot) snapshot_done_ = true;
}

void Node::on_view_hello(const net::Message& m) {
  const auto sender = static_cast<ProcId>(m.src);
  std::scoped_lock lk(mu_);
  // The sender's pre-admission updates were broadcast to the old
  // membership only; waive them.  FIFO sequencing (the hello travels the
  // same channel as the sender's later updates) makes the baseline exact.
  update_arrived_.set(sender, std::max(update_arrived_[sender], m.a));
  applied_.set(sender, std::max(applied_[sender], m.a));
  // Directory mode: the hello's clock component is also the sender's
  // resolved frontier — everything before it was broadcast to the old
  // membership only and is waived for this node.
  if (dir_mode()) resolved_.set(sender, std::max(resolved_[sender], m.a));
  // The raised applied floor may have made buffered updates from other
  // senders ready (their clocks can cover the waived writes).
  drain_causal_buffers();
}

View Node::view() const {
  std::scoped_lock lk(mu_);
  return view_;
}

std::uint64_t Node::next_barrier_epoch(BarrierId b) const {
  std::scoped_lock lk(mu_);
  const auto it = barrier_epoch_.find(b);
  return it == barrier_epoch_.end() ? 0 : it->second;
}

void Node::join() {
  MC_CHECK_MSG(elastic_, "join requires Config::elastic");
  {
    std::scoped_lock lk(mu_);
    MC_CHECK_MSG(!view_.is_alive(self_), "join by a process already in the view");
  }
  fabric_.send(msg_to(mgr_, kViewJoin, self_));
  std::unique_lock lk(mu_);
  wait_or_die(lk, "join blocked past the liveness deadline", [&] {
    // Admitted (the commit also aligned the barrier counters), the donor
    // snapshot landed (vacuous when this process is the view's only
    // member), and — in directory mode — every other live node's
    // authoritative sharer rows arrived (kDirSharerSync, sent even when
    // empty).
    return view_.is_alive(self_) &&
           (snapshot_done_ || view_.live_count() == 1) &&
           (!dir_mode() ||
            (view_.alive_mask & ~(std::uint64_t{1} << self_) & ~dir_sync_from_) == 0);
  });
}

void Node::leave() {
  MC_CHECK_MSG(elastic_, "leave requires Config::elastic");
  std::uint64_t handoff = 0;
  {
    std::scoped_lock lk(mu_);
    MC_CHECK_MSG(held_.empty(), "leave while holding a lock");
    MC_CHECK_MSG(view_.is_alive(self_), "leave by a process outside the view");
    leaving_ = true;
    if (dir_mode()) {
      // Sole-copy handoff: a variable homed here may have no other sharer,
      // so its state would leave with us.  Offer each cached LWW entry to
      // its next home (ring successor under the shrunken mask) and fence
      // the transfer below, BEFORE asking the manager for the view change:
      // by commit time the new home must already hold the copy, or its
      // owner pin would expose an empty entry to fresh reads.
      const std::uint64_t next =
          view_.alive_mask & ~(std::uint64_t{1} << self_);
      for (VarId x = 0; next != 0 && x < cfg_.num_vars; ++x) {
        if (!dir_managed(x) || !cached_[x]) continue;
        if (home_under(view_.alive_mask, x) != self_) continue;
        const VarEntry& e = mem_.entry(x);
        if (!e.last.valid() || e.delta_touched) continue;
        stage_update(std::uint64_t{1} << home_under(next, x), x, e.value, kFlagWrite,
                     e.last.seq, e.vc, e.epoch, e.last.proc);
        handoff |= std::uint64_t{1} << home_under(next, x);
      }
    }
    flush_staged_locked();
    dir_handoff_wait_ = handoff;
    for (ProcId p = 0; handoff != 0 && p < cfg_.num_procs; ++p) {
      if ((handoff >> p & 1) == 0) continue;
      // Flush-and-ack probe (a kDirSharerAdd carrying no variables): FIFO
      // sequences the ack behind the offers just flushed on this channel,
      // so a cleared wait bit means the new home has applied them.
      fabric_.send(msg_to(p, kDirSharerAdd, 0, kDirHandoffToken, self_, view_.epoch));
    }
  }
  if (handoff != 0) {
    std::unique_lock lk(mu_);
    wait_or_die(lk, "leave handoff blocked past the liveness deadline",
                [&] { return dir_handoff_wait_ == 0; });
  }
  fabric_.send(msg_to(mgr_, kViewLeave, self_));
  std::unique_lock lk(mu_);
  wait_or_die(lk, "leave blocked past the liveness deadline", [&] { return left_; });
}

// ----------------------------------------------------------------------
// Directory-based partial replication (Config::directory; docs/DIRECTORY.md)
// ----------------------------------------------------------------------

bool Node::dir_managed(VarId x) const {
  return dir_mode() &&
         cfg_.demand_association.find(x) == cfg_.demand_association.end();
}

ProcId Node::static_home(VarId x) const {
  const std::size_t stride = (cfg_.num_vars + cfg_.num_procs - 1) / cfg_.num_procs;
  return static_cast<ProcId>(std::min<std::size_t>(x / stride, cfg_.num_procs - 1));
}

ProcId Node::home_under(std::uint64_t mask, VarId x) const {
  const ProcId h = static_home(x);
  for (std::size_t i = 0; i < cfg_.num_procs; ++i) {
    const auto p = static_cast<ProcId>((h + i) % cfg_.num_procs);
    if ((mask >> p & 1) != 0) return p;
  }
  return h;  // empty mask: unreachable while this node itself is alive
}

ProcId Node::effective_home(VarId x) const {
  return elastic_ ? home_under(view_.alive_mask, x) : static_home(x);
}

bool Node::replica_pinned(VarId x) const {
  return effective_home(x) == self_ || mem_.entry(x).delta_touched ||
         fill_inflight_[x];
}

void Node::request_fill(std::unique_lock<std::mutex>& lk, VarId x) {
  MC_CHECK(dir_managed(x));
  // Another thread's fill for x is already in flight: piggyback on it.
  if (fill_inflight_[x]) {
    wait_or_die(lk, "directory fill blocked past the liveness deadline",
                [&] { return cached_[x]; });
    return;
  }
  const ProcId h = effective_home(x);
  if (h == self_) {
    // Just re-homed to us (the commit's pin races the faulting thread).
    cached_[x] = true;
    return;
  }
  Stopwatch sw;
  stats_.dir_fills.add();
  if (profiler_ != nullptr) profiler_->record_fetch(x);
  const std::uint64_t token = ++fill_token_counter_;
  PendingFill& pf = fills_[token];
  pf.vars.push_back(x);
  fill_inflight_[x] = true;
  // Same-home prefetch: pull a working-set frame, no larger than the
  // cache, in one bulk reply.
  const std::size_t budget = cfg_.directory->replica_budget;
  const std::size_t frame = std::min(cfg_.directory->fetch_frame, budget > 0 ? budget : SIZE_MAX);
  for (VarId y = 0; y < cfg_.num_vars && pf.vars.size() < frame; ++y) {
    if (y == x || cached_[y] || fill_inflight_[y] || !dir_managed(y)) continue;
    if (effective_home(y) != h) continue;
    pf.vars.push_back(y);
    fill_inflight_[y] = true;
  }
  // Flush first, request second: our own staged writes travel ahead of the
  // request on our channel to the home, so the fill reflects them
  // (read-your-writes across a miss).
  flush_staged_locked();
  net::Message req = msg_to(h, kFetchBulkReq, pf.vars.size(), token,
                            elastic_ ? view_.epoch : 0, kFetchFill);
  req.payload.assign(pf.vars.begin(), pf.vars.end());
  fabric_.send(std::move(req));
  wait_or_die(lk, "directory fill blocked past the liveness deadline", [&] {
    const auto it = fills_.find(token);
    return it == fills_.end() || it->second.done;
  });
  fills_.erase(token);
  stats_.dir_fill_wait_ns.record(sw.elapsed());
}

void Node::register_writer(std::unique_lock<std::mutex>& lk, VarId x) {
  const std::uint64_t self = std::uint64_t{1} << self_;
  if (!dir_managed(x) || (writer_mask_[x] & self) != 0) return;
  // Threads of one process racing to a first write may each register; the
  // home's answer is idempotent, and FIFO keeps each reply's row current.
  net::Message req = msg_to(effective_home(x), kFetchBulkReq, 1, 0, 0, kFetchWriteFault);
  req.payload.push_back(x);
  fabric_.send(std::move(req));
  wait_or_die(lk, "directory writer registration blocked past the liveness deadline",
              [&] { return (writer_mask_[x] & self) != 0; });
}

void Node::on_fetch_bulk_req(const net::Message& m) {
  const auto requester = static_cast<ProcId>(m.src);
  std::scoped_lock lk(mu_);
  MC_CHECK(m.payload.size() >= m.a && m.a >= 1);
  std::vector<VarId> vars(m.payload.begin(), m.payload.begin() + m.a);
  if (m.d == kFetchDemand) {
    // A demand-lock miss: ship our copy.  Nothing to register and nobody
    // to fence — the write lock serializes the variable's writers, and we
    // were the last.
    send_fetch_response_locked(requester, vars, m.b);
    return;
  }
  if (elastic_ && m.c > view_.epoch) {
    // Sent under a view we have not committed yet: our home assignment and
    // the re-homing offers other holders stage at that commit are not in
    // place.  Replay once the commit lands.
    dir_deferred_.push_back(m);
    return;
  }
  // No longer this variable's home (same-epoch assignment is deterministic,
  // so the requester was behind): it re-issues at its own commit.
  if (effective_home(vars[0]) != self_) return;
  if (m.d == kFetchWriteFault) {
    // Write fault: register the writer and answer with the current rows.
    // From here on this node's row changes reach the writer behind the
    // reply (FIFO), and every fill of these variables fences it.
    net::Message sync = msg_to(requester, kDirSharerSync, vars.size());
    for (const VarId x : vars) {
      if ((writer_mask_[x] >> requester & 1) == 0) {
        writer_mask_[x] |= std::uint64_t{1} << requester;
        stats_.dir_writer_registrations.add();
      }
      sync.payload.push_back(x);
      sync.payload.push_back(sharer_mask_[x]);
    }
    fabric_.send(std::move(sync));
    return;
  }
  ServingFill f;
  f.requester = requester;
  f.vars = std::move(vars);
  for (const VarId x : f.vars) {
    if ((sharer_mask_[x] >> requester & 1) == 0) {
      sharer_mask_[x] |= std::uint64_t{1} << requester;
      stats_.dir_sharer_adds.add();
      if (profiler_ != nullptr) profiler_->record_sharer_add(x);
    }
  }
  // Ack fence: every other registered writer of the fill's variables
  // flushes its staging buffers before the snapshot ships.  A write
  // causally preceding the requester's floor was issued before this fill
  // was requested, so at its writer it is either already sent (FIFO ahead
  // of the ack on the writer->home channel) or still staged (the flush
  // ships it ahead of the ack) — either way the snapshot covers it.  No
  // one else can hold such a write: a writer registers here before its
  // first write, and one registered after this point finds the
  // requester's bit in its registration reply.
  std::uint64_t fence = 0;
  for (const VarId x : f.vars) fence |= writer_mask_[x];
  if (elastic_) fence &= view_.alive_mask;
  fence &= ~(std::uint64_t{1} << requester);
  fence &= ~(std::uint64_t{1} << self_);
  if (fence == 0) {
    send_fetch_response_locked(requester, f.vars, m.b);
    return;
  }
  f.need_acks = fence;
  net::Message add;
  add.src = self_;
  add.kind = kDirSharerAdd;
  add.a = f.vars.size();
  add.b = m.b;
  add.c = requester;
  add.d = elastic_ ? view_.epoch : 0;
  add.payload.assign(f.vars.begin(), f.vars.end());
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if ((fence >> p & 1) == 0) continue;
    net::Message copy = add;
    copy.dst = p;
    fabric_.send(std::move(copy));
  }
  fills_serving_[{requester, m.b}] = std::move(f);
}

void Node::on_dir_sharer_add(const net::Message& m) {
  std::scoped_lock lk(mu_);
  if (elastic_ && m.d > view_.epoch) {
    // Epoch agreement: ack only once our commit for the home's epoch has
    // run, so re-homing offers staged at that commit flush under the fence
    // and the ack travels behind them (FIFO).
    dir_deferred_.push_back(m);
    return;
  }
  MC_CHECK(m.payload.size() >= m.a);
  for (std::uint64_t k = 0; k < m.a; ++k) {
    sharer_mask_[static_cast<VarId>(m.payload[k])] |= std::uint64_t{1} << m.c;
  }
  flush_staged_locked();
  fabric_.send(msg_to(m.src, kDirAck, m.b, m.c));
}

void Node::on_dir_ack(const net::Message& m) {
  std::scoped_lock lk(mu_);
  if (m.a == kDirHandoffToken) {
    // Ack for a pre-leave handoff probe (leave()): the target has applied
    // our re-homing offers.
    dir_handoff_wait_ &= ~(std::uint64_t{1} << static_cast<ProcId>(m.src));
    return;
  }
  const auto key = std::make_pair(static_cast<ProcId>(m.b), m.a);
  const auto it = fills_serving_.find(key);
  if (it == fills_serving_.end()) return;  // answered at a view commit re-mask
  it->second.need_acks &= ~(std::uint64_t{1} << static_cast<ProcId>(m.src));
  if (it->second.need_acks == 0) {
    send_fetch_response_locked(it->second.requester, it->second.vars, m.a);
    fills_serving_.erase(it);
  }
}

net::Message Node::snapshot_frame_locked(std::span<const VarId> vars) const {
  std::vector<BatchRecord> recs(vars.size());
  for (std::size_t k = 0; k < vars.size(); ++k) {
    const VarEntry& e = mem_.entry(vars[k]);
    BatchRecord& r = recs[k];
    r.var = vars[k];
    r.value = e.value;
    r.seq = e.last.seq;
    r.writer = e.last.proc;
    r.flags = e.delta_touched ? kFlagCounterBase : kFlagWrite;
    r.epoch = e.epoch;
    r.baseline = e.applied_writes;
    r.vc = e.vc.empty() ? VectorClock(cfg_.num_procs) : e.vc;
  }
  net::Message m = encode_frame(recs, cfg_.num_procs);
  m.src = self_;
  return m;
}

void Node::install_snapshot_locked(const BatchRecord& r, bool force) {
  if (r.writer == kNoProc) return;  // never written: nothing to install
  const WriteId id{r.writer, r.seq};
  if (r.flags & kFlagCounterBase) {
    // Counter baseline: an absolute value with no local applications to
    // double-count against — install verbatim.  delta_touched keeps later
    // re-seeds skipping it and pins a directory replica, so it is never
    // evicted and refetched (a refetch would double-count the deltas
    // applied since).
    mem_.install(r.var, r.value, id, r.vc, /*delta_touched=*/true, r.epoch);
    mem_.set_applied_writes(r.var, r.baseline);
    return;
  }
  // A local counter is a sum of local applications, not an LWW winner the
  // snapshot could replace.
  if (!force && mem_.entry(r.var).delta_touched) return;
  // LWW arbitration (store.cpp) against whatever this replica already
  // holds: snapshots, backfills, fills and direct updates commute to the
  // same winner, and the record's write epoch keeps a dead process's
  // partially-delivered last write from beating a new-view overwrite.
  mem_.apply(r.var, r.value, kFlagWrite, id, r.vc, 0, force, /*weight=*/0, r.epoch);
  mem_.set_applied_writes(r.var, std::max(mem_.entry(r.var).applied_writes, r.baseline));
}

void Node::send_fetch_response_locked(ProcId to, std::span<const VarId> vars,
                                      std::uint64_t token) {
  // Our own staged writes are not fenced by a fill's acks, and a demand
  // fetch's clock may cover them; flush them into the snapshot too.  The
  // flush also puts every earlier write of ours to the requester ahead of
  // the reply, so it carries our frontier stamp.
  flush_staged_locked();
  net::Message resp = snapshot_frame_locked(vars);
  resp.kind = kFetchBulkResp;
  resp.dst = to;
  resp.b = dep_vc_[self_];  // flush stamp, as on update frames
  resp.payload.push_back(token);
  fabric_.send(std::move(resp));
}

void Node::on_fetch_bulk_resp(const net::Message& m) {
  MC_CHECK(!m.payload.empty());
  // The token trails the frame; strip it before decoding.
  const std::uint64_t token = m.payload.back();
  net::Message frame = m;
  frame.payload.pop_back();
  const std::vector<BatchRecord> recs = decode_frame(frame, cfg_.num_procs);
  std::scoped_lock lk(mu_);
  const auto from = static_cast<ProcId>(m.src);
  if (dir_mode()) resolved_.set(from, std::max(resolved_[from], m.b));
  const auto it = fills_.find(token);
  // A fetch a view commit already ended (aborted fill, departed owner).
  if (it == fills_.end() || it->second.done) return;
  PendingFill& pf = it->second;
  pf.done = true;
  if (pf.owner != kNoProc) {
    MC_CHECK(recs.size() == 1);
    const VarId x = recs[0].var;
    install_snapshot_locked(recs[0], /*force=*/true);
    if (staleness_ != nullptr) {
      // The fetched copy is the owner's current entry: it has absorbed
      // every write issued so far (demand vars are write-lock serialized),
      // so reset the local version-lag baseline to the issue counter.
      mem_.set_applied_writes(x, staleness_->issued(x));
    }
    pf.trace_id = m.trace_id;
    return;
  }
  for (const BatchRecord& r : recs) {
    const VarId x = r.var;
    install_snapshot_locked(r, /*force=*/false);
    // Replay updates that raced the fill (apply_dir_frame_locked held
    // them): the snapshot clock decides, per writer, which of them the
    // home had already folded into the snapshot and which are genuinely
    // newer.
    if (const auto held = fill_backlog_.find(x); held != fill_backlog_.end()) {
      for (const BatchRecord& q : held->second) {
        if (q.vc[q.writer] <= r.vc[q.writer]) continue;  // in the snapshot
        mem_.apply(x, q.value, q.flags, WriteId{q.writer, q.seq}, q.vc, 0,
                   /*force=*/false, q.weight, q.epoch);
      }
      fill_backlog_.erase(held);
    }
    cached_[x] = true;
    fill_inflight_[x] = false;
    sharer_mask_[x] |= std::uint64_t{1} << self_;
    last_use_[x] = ++use_tick_;
    frame_of_[x] = token;  // a refill moves x to this frame
    stats_.dir_fill_records.add();
    if (profiler_ != nullptr) profiler_->record_fill_record(x);
  }
  enforce_budget_locked(token);
}

void Node::enforce_budget_locked(std::uint64_t fresh) {
  if (cfg_.directory->replica_budget == 0) return;
  std::map<std::uint64_t, std::uint64_t> recency;  // by installing token
  std::vector<std::pair<std::uint64_t, VarId>> lru;
  std::size_t unpinned = 0;
  for (VarId x = 0; x < cfg_.num_vars; ++x) {
    if (!dir_managed(x) || !cached_[x] || replica_pinned(x)) continue;
    ++unpinned;
    if (frame_of_[x] == fresh) continue;
    std::uint64_t& r = recency[frame_of_[x]];
    r = std::max(r, last_use_[x]);
    lru.emplace_back(frame_of_[x], x);
  }
  if (unpinned <= cfg_.directory->replica_budget) return;
  // Use ticks are unique, so a frame's recency also names it.
  for (auto& [key, x] : lru) key = recency[key];
  std::sort(lru.begin(), lru.end());
  std::vector<std::vector<VarId>> dropped(cfg_.num_procs);
  for (std::size_t i = 0; i < lru.size(); ++i) {
    const VarId x = lru[i].second;
    if (i == 0 || lru[i].first != lru[i - 1].first) {
      if (unpinned <= cfg_.directory->replica_budget) break;
      stats_.dir_evicted_frames.add();
    }
    --unpinned;
    mem_.evict(x);
    cached_[x] = false;
    sharer_mask_[x] &= ~(std::uint64_t{1} << self_);
    stats_.dir_evictions.add();
    if (profiler_ != nullptr) profiler_->record_eviction(x);
    dropped[effective_home(x)].push_back(x);
  }
  // Deregister with each home.  No drain fence is needed: a write already
  // in flight to us lands counted-but-unapplied (the replica is gone), and
  // a later refill's ack fence folds it into the snapshot baseline.
  for (ProcId h = 0; h < cfg_.num_procs; ++h) {
    if (dropped[h].empty()) continue;
    net::Message unreg = msg_to(h, kDirUnregister, dropped[h].size());
    unreg.payload.assign(dropped[h].begin(), dropped[h].end());
    fabric_.send(std::move(unreg));
  }
}

void Node::on_dir_unregister(const net::Message& m) {
  const auto evictor = static_cast<ProcId>(m.src);
  std::scoped_lock lk(mu_);
  MC_CHECK(m.payload.size() >= m.a);
  std::vector<VarId> vars;
  for (std::uint64_t k = 0; k < m.a; ++k) {
    const auto x = static_cast<VarId>(m.payload[k]);
    // Re-homed since the evictor sent this: the stale bit errs in the
    // harmless direction (extra update traffic, never a missed update).
    if (effective_home(x) != self_) continue;
    if ((sharer_mask_[x] >> evictor & 1) != 0) {
      sharer_mask_[x] &= ~(std::uint64_t{1} << evictor);
      stats_.dir_sharer_dels.add();
      if (profiler_ != nullptr) profiler_->record_sharer_del(x);
      vars.push_back(x);
    }
  }
  if (vars.empty()) return;
  // Only the variables' writers mirror their rows.
  std::uint64_t dests = 0;
  for (const VarId x : vars) dests |= writer_mask_[x];
  if (elastic_) dests &= view_.alive_mask;
  dests &= ~(std::uint64_t{1} << self_) & ~(std::uint64_t{1} << evictor);
  net::Message del;
  del.src = self_;
  del.kind = kDirSharerDel;
  del.a = vars.size();
  del.c = evictor;
  del.payload.assign(vars.begin(), vars.end());
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if ((dests >> p & 1) == 0) continue;
    net::Message copy = del;
    copy.dst = p;
    fabric_.send(std::move(copy));
  }
}

void Node::on_dir_sharer_del(const net::Message& m) {
  std::scoped_lock lk(mu_);
  MC_CHECK(m.payload.size() >= m.a);
  for (std::uint64_t k = 0; k < m.a; ++k) {
    sharer_mask_[static_cast<VarId>(m.payload[k])] &=
        ~(std::uint64_t{1} << m.c);
  }
}

void Node::on_dir_sharer_sync(const net::Message& m) {
  std::scoped_lock lk(mu_);
  MC_CHECK(m.payload.size() >= 2 * m.a);
  // Authoritative rows for the sender's homed variables (a joiner's sync or
  // a writer registration reply; either way this node now mirrors them as
  // a registered writer).  Row changes flow only from a variable's home, on
  // the same FIFO channel as this sync, so later kDirSharerAdd/Del
  // multicasts cannot be clobbered by it.
  for (std::uint64_t k = 0; k < m.a; ++k) {
    const auto x = static_cast<VarId>(m.payload[2 * k]);
    sharer_mask_[x] = m.payload[2 * k + 1];
    writer_mask_[x] |= std::uint64_t{1} << self_;
  }
  dir_sync_from_ |= std::uint64_t{1} << static_cast<ProcId>(m.src);
}

void Node::ping_lagging_locked(const VectorClock& floor, VectorClock& pinged) {
  for (ProcId s = 0; s < cfg_.num_procs; ++s) {
    if (s == self_ || (elastic_ && !view_.is_alive(s))) continue;
    if (resolved_[s] >= floor[s] || pinged[s] >= floor[s]) continue;
    pinged.set(s, floor[s]);
    stats_.dir_frontier_pings.add();
    fabric_.send(msg_to(s, kFrontierReq));
  }
}

// ----------------------------------------------------------------------
// Consistency bookkeeping
// ----------------------------------------------------------------------

bool Node::gate_open_locked(ReadMode mode, VectorClock& pinged) {
  if (stamp_ == StampForm::kCounts) return floors_met(received_from_, count_floor_);
  const VectorClock& floor = mode == ReadMode::kPram ? pram_floor_ : causal_floor_;
  if (!dir_mode()) return floors_met(applied_, floor);
  // Directory mode blocks on two gates: the count floor against the
  // weighted receive index (everything peers addressed to us has landed)
  // and the read-label floor against the resolved frontier — applied_ alone
  // cannot witness writes that travel to other sharers only; the fill ack
  // fence covers those once resolved_ catches up (see node.h).
  if (!floors_met(received_from_, count_floor_)) return false;
  if (floors_met(resolved_, floor)) return true;
  // A lagging component may never send to us again; probe it (once per
  // floor level) so its flushed frontier unblocks the wait.
  if (pinged.empty()) pinged = VectorClock(cfg_.num_procs);
  ping_lagging_locked(floor, pinged);
  return false;
}

void Node::absorb_entry(const VarEntry& e) {
  if (!e.vc.empty()) {
    dep_vc_.merge(e.vc);
    causal_floor_.merge(e.vc);
    if (e.last.proc != kNoProc && e.last.proc < cfg_.num_procs) {
      pram_floor_.raise(e.last.proc, e.vc[e.last.proc]);
    }
    return;
  }
  if (e.last.valid() && e.last.proc < cfg_.num_procs && e.last.proc != self_) {
    // Count-vector mode: future reads must keep seeing this sender's
    // prefix up to the observed receive index.
    count_floor_.raise(e.last.proc, e.arrival);
  }
  // Otherwise: location never written (or written locally); nothing to do.
}

void Node::note_issued_locked(VarId x) {
  static const VectorClock kUnstamped;
  if (staleness_ != nullptr) staleness_->on_write(x, has_clock(stamp_) ? dep_vc_ : kUnstamped);
}

void Node::resume_sync_locked(const VectorClock& counts, const VectorClock& clock,
                              std::uint64_t predecessors) {
  if (has_counts(stamp_)) count_floor_.merge(counts);
  if (!has_clock(stamp_)) return;
  dep_vc_.merge(clock);
  // Directory mode merges the clock into the dependency clock ONLY — not
  // the read floors.  Raising pram/causal floors there would demand the
  // resolved frontier of every peer on every later read (a ping storm);
  // reception counts plus the fill ack fence already give the visibility,
  // and the dep_vc merge keeps later-phase writes dominant in the LWW
  // order (bitwise identity with full replication for race-free phased
  // programs).
  if (dir_mode()) return;
  causal_floor_.merge(clock);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if ((predecessors >> p) & 1) pram_floor_.raise(p, clock[p]);
  }
}

std::uint64_t Node::update_dests_locked(VarId x) const {
  std::uint64_t dests = 0;
  if (dir_managed(x)) {
    // Directory multicast: registered sharers plus the home, nobody else.
    dests = sharer_mask_[x] | (std::uint64_t{1} << effective_home(x));
  } else {
    dests = static_dests_.empty() ? full_mask(cfg_.num_procs) : static_dests_[x];
  }
  // Elastic: non-members get nothing — the departed are gone, and a
  // not-yet-admitted joiner gets its baseline via kViewHello instead.
  if (elastic_) dests &= view_.alive_mask;
  return dests & ~(std::uint64_t{1} << self_);
}

void Node::broadcast_update(VarId x, Value value, std::uint64_t flags, SeqNo seq,
                            const VectorClock& stamp, std::uint64_t epoch) {
  const std::uint64_t dests = update_dests_locked(x);
  if (dests == 0) return;
  const bool run_started = staging_empty();
  stage_update(dests, x, value, flags, seq, stamp, epoch);
  if (staging_full_locked()) {
    flush_staged_locked();
  } else if (run_started) {
    post_flush_deadline_locked();
  }
}

// ----------------------------------------------------------------------
// Staging buffers (Config::batching; DESIGN.md §6.3)
// ----------------------------------------------------------------------

std::size_t Node::approx_batch_bytes(std::size_t records) const {
  // Estimate of encode_frame's output: header + base clock + ~5 words per
  // record in VC mode (var/flags/weight, value, seq, delta mask, ~1 clock
  // delta), 3 words in count mode.  The max_bytes threshold is a staging
  // heuristic, not an exact wire budget.
  return net::Message::kHeaderBytes +
         (clock_words_ + approx_record_words() * records) * sizeof(std::uint64_t);
}

namespace {

/// Merge `r` into the *latest* staged record for its variable, if that
/// record may absorb it.  Merging past an intervening record of the other
/// kind would reorder this process's per-variable update sequence, and
/// records differing in epoch or writer never merge.
bool coalesce(std::span<BatchRecord> buf, const BatchRecord& r) {
  for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
    if (it->var != r.var) continue;
    if (it->flags != r.flags || it->epoch != r.epoch || it->writer != r.writer) return false;
    switch (r.flags & kFlagOpMask) {
      case kFlagWrite:
        it->value = r.value;  // last writer wins
        break;
      case kFlagIntDelta:
        it->value = value_of(int_of(it->value) + int_of(r.value));
        break;
      case kFlagDoubleDelta:
        it->value = value_of(double_of(it->value) + double_of(r.value));
        break;
      default:
        MC_CHECK_MSG(false, "unknown update flags");
    }
    it->seq = r.seq;
    it->vc.assign(r.vc.components());
    ++it->weight;
    return true;
  }
  return false;
}

}  // namespace

void Node::stage_update(std::uint64_t dests, VarId x, Value value, std::uint64_t flags,
                        SeqNo seq, const VectorClock& stamp, std::uint64_t epoch,
                        ProcId writer) {
  // Count the staged original immediately: the record WILL travel (every
  // synchronization action flushes first), and Section 6's count
  // synchronization compares this against the receiver's weighted index.
  const auto copies = static_cast<std::uint64_t>(popcount64(dests));
  for (std::uint64_t rest = dests; rest != 0; rest &= rest - 1) {
    const auto p = static_cast<ProcId>(std::countr_zero(rest));
    sent_to_.set(p, sent_to_[p] + 1);
  }
  if (profiler_ != nullptr) {
    // Approximate per-destination wire cost of this record, the same
    // heuristic as approx_batch_bytes (coalescing may shrink it later).
    profiler_->record_update_bytes(
        x, copies * approx_record_words() * sizeof(std::uint64_t));
  }
  if (!split_ && shared_n_ > 0 && dests != shared_dests_) {
    // A second destination set: give every destination its own copy of
    // the run so far, and stage per destination until the next flush.
    split_staged_.resize(cfg_.num_procs);
    for (std::uint64_t rest = shared_dests_; rest != 0; rest &= rest - 1) {
      split_staged_[std::countr_zero(rest)].assign(shared_.begin(),
                                                  shared_.begin() + shared_n_);
    }
    shared_n_ = 0;
    split_ = true;
  }
  // Build the record in the next free shared slot, reusing its clock
  // storage; a split run copies it from there.
  if (shared_n_ == shared_.size()) shared_.emplace_back();
  BatchRecord& r = shared_[shared_n_];
  r.var = x;
  r.value = value;
  r.flags = flags;
  r.seq = seq;
  r.weight = 1;
  r.epoch = epoch;
  r.writer = writer;
  if (has_clock(stamp_)) r.vc.assign(stamp.components());
  if (!split_) {
    // One destination set so far: the record is staged once for all.
    shared_dests_ = dests;
    if (coalesce(std::span(shared_.data(), shared_n_), r)) {
      stats_.batch_coalesced.add_serialized(copies);
    } else {
      ++shared_n_;
    }
    return;
  }
  for (std::uint64_t rest = dests; rest != 0; rest &= rest - 1) {
    auto& buf = split_staged_[std::countr_zero(rest)];
    if (coalesce(buf, r)) {
      stats_.batch_coalesced.add_serialized();
    } else {
      buf.push_back(r);
    }
  }
}

bool Node::staging_full_locked() const {
  const auto full = [&](std::size_t records) {
    return records >= cfg_.batching.max_updates ||
           approx_batch_bytes(records) >= cfg_.batching.max_bytes;
  };
  if (!split_) return full(shared_n_);
  return std::any_of(split_staged_.begin(), split_staged_.end(),
                     [&](const auto& buf) { return full(buf.size()); });
}

void Node::send_frame_locked(std::span<const BatchRecord> recs, std::uint64_t dests) {
  net::Message m = encode_frame(recs, clock_words_);
  m.src = self_;
  // Directory mode: stamp the resolved frontier (wire.h kUpdate) — the
  // clock component, which demand-lock writes never tick.
  if (dir_mode()) m.b = dep_vc_[self_];
  const auto copies = static_cast<std::uint64_t>(popcount64(dests));
  stats_.batch_msgs.add_serialized(copies);
  stats_.batch_updates.add_serialized(copies * recs.size());
  stats_.batch_updates_per_msg.record_serialized(recs.size(), copies);
  // Every destination but the last gets a copy; the last gets the original.
  const auto last = static_cast<ProcId>(63 - std::countl_zero(dests));
  for (std::uint64_t rest = dests; rest != 0; rest &= rest - 1) {
    const auto p = static_cast<ProcId>(std::countr_zero(rest));
    if (p == last) {
      m.dst = p;
      fabric_.send(std::move(m));
    } else {
      net::Message copy = m;
      copy.dst = p;
      fabric_.send(std::move(copy));
    }
  }
}

void Node::flush_staged_locked() {
  if (!split_) {
    if (shared_n_ == 0) return;
    send_frame_locked(std::span(shared_.data(), shared_n_), shared_dests_);
    shared_n_ = 0;
    return;
  }
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    auto& buf = split_staged_[p];
    if (buf.empty()) continue;
    send_frame_locked(buf, std::uint64_t{1} << p);
    buf.clear();
  }
  split_ = false;
}

void Node::post_flush_deadline_locked() {
  net::Message due = msg_to(self_, kFlushDue, ++staging_run_);
  due.deliver_at = std::chrono::steady_clock::now() + cfg_.batching.max_delay;
  // Straight into the mailbox, not through Fabric::send: the deadline is
  // local and costs no wire message (wire.h kFlushDue).
  (void)fabric_.mailbox(self_).push(std::move(due));
}

// ----------------------------------------------------------------------
// Memory operations
// ----------------------------------------------------------------------

void Node::emit_op(history::Operation& op) {
  if (elastic_) op.view_epoch = view_.epoch;
  if (obs::trace_enabled()) {
    // Correlation id: the same value appears on this trace instant and on
    // the operation handed to the monitor, so a live counterexample (DOT)
    // can name the exact trace events on the cycle (docs/TRACING.md).
    op.trace_id = obs::next_flow_id();
    obs::trace_instant("op", "monitor", {"id", op.trace_id}, {"proc", self_});
  }
  trace_.record(op);
  if (auto* sink = op_sink_.load(std::memory_order_acquire)) sink->on_op(op);
}

Value Node::read(VarId x, ReadMode mode) {
  MC_CHECK_MSG(has_clock(stamp_) || mode == ReadMode::kPram,
               "causal reads require vector timestamps (Config::count_vectors)");
  Stopwatch blocked;
  std::unique_lock lk(mu_);
  (mode == ReadMode::kPram ? stats_.reads_pram : stats_.reads_causal).add();
  if (profiler_ != nullptr) profiler_->record_read(x);

  VectorClock pinged;
  auto gate = [&] { return gate_open_locked(mode, pinged); };
  const bool was_ready = gate();
  if (!was_ready) {
    wait_or_die(lk, "read blocked past the liveness deadline", gate);
    const auto waited = blocked.elapsed();
    stats_.read_blocked.record(waited);
    obs::trace_complete_ns("read.block", "dsm",
                           static_cast<std::uint64_t>(waited.count()), {"var", x},
                           {"proc", self_});
  }

  // Demand-driven miss: the lock grant invalidated this variable.
  if (auto it = invalid_.find(x); it != invalid_.end()) {
    const net::Endpoint owner = it->second;
    invalid_.erase(it);
    fetch_var(lk, x, owner);
  }

  // Directory miss: demand-page the replica in (loop: a concurrent fill's
  // budget sweep can evict it again before this thread wakes).
  if (dir_managed(x)) {
    while (!cached_[x]) request_fill(lk, x);
    last_use_[x] = ++use_tick_;
  }

  const VarEntry& e = mem_.entry(x);
  const Value out = e.value;
  absorb_entry(e);
  (mode == ReadMode::kPram ? stats_.read_pram_ns : stats_.read_causal_ns)
      .record(blocked.elapsed());

  if (staleness_ != nullptr) {
    // How far the returned value trails the freshest write known anywhere:
    // issued-write count minus the writes this entry has absorbed, and the
    // vector-clock shortfall against the freshest stamp (dsm/staleness.h).
    const std::uint64_t issued = staleness_->issued(x);
    const std::uint64_t lag =
        issued > e.applied_writes ? issued - e.applied_writes : 0;
    (mode == ReadMode::kPram ? stats_.staleness_versions_pram
                             : stats_.staleness_versions_causal)
        .record_ns(lag);
    if (has_clock(stamp_)) {
      (mode == ReadMode::kPram ? stats_.staleness_vc_pram : stats_.staleness_vc_causal)
          .record_ns(staleness_->vc_distance(x, e.vc));
    }
  }

  if (observing_ops()) {
    history::Operation op;
    op.kind = history::OpKind::kRead;
    op.proc = self_;
    op.var = x;
    op.value = out;
    op.mode = mode;
    op.write_id = e.last;
    emit_op(op);
  }
  return out;
}

void Node::write(VarId x, Value v) {
  stats_.writes.add();
  if (profiler_ != nullptr) profiler_->record_write(x);
  {
    std::unique_lock lk(mu_);
    register_writer(lk, x);
    const SeqNo seq = ++write_counter_;
    const WriteId id{self_, seq};

    history::Operation op;
    op.kind = history::OpKind::kWrite;
    op.proc = self_;
    op.var = x;
    op.value = v;
    op.write_id = id;

    const std::uint64_t ep = elastic_ ? view_.epoch : 0;
    HeldLock* held = nullptr;
    if (demand_local_write(x, &held)) {
      held->cs_writes.push_back(x);
      // Local migratory write: no broadcast, no clock tick (remote causal
      // delivery must not wait for an update that will never arrive).
      // `force` because the untick'd clock can tie the installed entry's —
      // the write lock orders these writes, so forcing is safe.
      mem_.apply(x, v, kFlagWrite, id, dep_vc_, 0, /*force=*/true, 1, ep);
      note_issued_locked(x);
      if (observing_ops()) emit_op(op);
    } else {
      dep_vc_.tick(self_);
      applied_.set(self_, dep_vc_[self_]);
      if (dir_mode()) {
        // Own writes are self-resolved by definition.  No write-allocate:
        // writing an uncached variable applies locally and ships to the
        // sharers and home; a later fill LWW-arbitrates against our copy.
        resolved_.set(self_, dep_vc_[self_]);
        if (cached_[x] && dir_managed(x)) last_use_[x] = ++use_tick_;
      }
      mem_.apply(x, v, kFlagWrite, id, dep_vc_, 0, /*force=*/false, 1, ep);
      note_issued_locked(x);
      // Sink before broadcast (obs/op_sink.h): no peer can observe this
      // write before the live monitor has it.
      if (observing_ops()) emit_op(op);
      // Broadcast while holding the node lock: the model permits
      // multi-threaded user processes, and per-sender FIFO requires this
      // process's updates to enter the fabric in sequence order.
      broadcast_update(x, v, kFlagWrite, seq, dep_vc_, ep);
    }
  }
  cv_.notify_all();
}

void Node::do_delta(VarId x, Value amount, std::uint64_t flags) {
  stats_.deltas.add();
  if (profiler_ != nullptr) profiler_->record_write(x);
  {
    std::unique_lock lk(mu_);
    // Directory mode write-allocates DELTAS (unlike plain writes): a delta
    // applied to an uncached entry would be lost when a later fill installs
    // the home's absolute value over it.  Fill first; the installed entry
    // is delta_touched afterwards (counter pin), so it is never evicted and
    // the race cannot recur.
    if (dir_managed(x)) {
      register_writer(lk, x);
      while (!cached_[x]) request_fill(lk, x);
      last_use_[x] = ++use_tick_;
    }
    const SeqNo seq = ++write_counter_;
    const WriteId id{self_, seq};
    dep_vc_.tick(self_);
    applied_.set(self_, dep_vc_[self_]);
    if (dir_mode()) resolved_.set(self_, dep_vc_[self_]);
    mem_.apply(x, amount, flags, id, dep_vc_);
    note_issued_locked(x);
    // Sink before broadcast (obs/op_sink.h), as in write().
    if (observing_ops()) {
      history::Operation op;
      op.kind = history::OpKind::kDelta;
      op.proc = self_;
      op.var = x;
      op.value = amount;
      op.fp = flags == kFlagDoubleDelta;
      op.write_id = id;
      emit_op(op);
    }
    broadcast_update(x, amount, flags, seq, dep_vc_);
  }
  cv_.notify_all();
}

void Node::dec_int(VarId x, std::int64_t amount) { do_delta(x, value_of(amount), kFlagIntDelta); }

void Node::dec_double(VarId x, double amount) { do_delta(x, value_of(amount), kFlagDoubleDelta); }

bool Node::demand_local_write(VarId x, HeldLock** held_out) {
  auto assoc = cfg_.demand_association.find(x);
  if (assoc == cfg_.demand_association.end()) return false;
  if (cfg_.policy_of(assoc->second) != LockPolicy::kDemand) return false;
  auto held = held_.find(assoc->second);
  if (held == held_.end() || held->second.kind != LockRequestKind::kWrite) return false;
  *held_out = &held->second;
  return true;
}

// ----------------------------------------------------------------------
// Synchronization operations
// ----------------------------------------------------------------------

void Node::await(VarId x, Value v, ReadMode mode) {
  MC_CHECK_MSG(has_clock(stamp_) || mode == ReadMode::kPram,
               "causal awaits require vector timestamps (Config::count_vectors)");
  stats_.awaits.add();
  Stopwatch blocked;
  std::unique_lock lk(mu_);
  // Mandatory flush: our own staged writes must be on the wire
  // before we block — the peer whose write resolves this await may itself
  // be awaiting one of our staged values (liveness), and the |-> await
  // edge's visibility obligations assume our prior writes travel first.
  flush_staged_locked();
  // Directory miss: register as a sharer first, so the write that resolves
  // this await is multicast to us at all.
  if (dir_managed(x)) {
    while (!cached_[x]) request_fill(lk, x);
    last_use_[x] = ++use_tick_;
  }
  // Busy-wait loop of reads in the selected view (Section 6), realized as a
  // condition wait re-evaluated on every applied update.
  VectorClock pinged;
  wait_or_die(lk, "await blocked past the liveness deadline",
              [&] { return gate_open_locked(mode, pinged) && mem_.entry(x).value == v; });
  const auto waited = blocked.elapsed();
  stats_.await_spin_ns.record(waited);
  obs::trace_complete_ns("await", "dsm", static_cast<std::uint64_t>(waited.count()),
                         {"var", x}, {"proc", self_});

  const VarEntry& e = mem_.entry(x);
  absorb_entry(e);

  if (observing_ops()) {
    history::Operation op;
    op.kind = history::OpKind::kAwait;
    op.proc = self_;
    op.var = x;
    op.value = v;
    op.write_id = e.last;
    emit_op(op);
  }
}

void Node::barrier(BarrierId b) {
  stats_.barriers.add();
  Stopwatch blocked;
  std::uint64_t epoch = 0;
  {
    std::scoped_lock lk(mu_);
    epoch = barrier_epoch_[b]++;
  }
  net::Message arrive = msg_to(mgr_, kBarrierArrive, b, epoch);
  {
    std::scoped_lock lk(mu_);
    // Mandatory flush: the snapshot below promises peers that
    // every update it counts is on the wire; staged records would make the
    // promise a lie and Theorem 1's barrier condition unsound.
    flush_staged_locked();
    // Count stamps carry the paper's per-receiver sent-update counts; the
    // manager transposes them.  Clock stamps carry the dependency clock.
    // Directory mode carries both: counts gate reception, the merged clock
    // keeps later-phase writes dominant in the LWW order (see barrier
    // resume below).
    encode_stamp(stamp_, sent_to_, dep_vc_, arrive.payload);
  }
  fabric_.send(std::move(arrive));
  // The traced span covers only the post-arrival wait: the arrival send must
  // precede it so its flow leaves the span (keeps the critical-path DAG
  // acyclic, src/obs/critical_path.cpp).
  const std::uint64_t trace_t0 = obs::trace_enabled() ? obs::Tracer::now_ns() : 0;

  std::unique_lock lk(mu_);
  const auto key = std::make_pair(b, epoch);
  wait_or_die(lk, "barrier blocked past the liveness deadline",
              [&] { return barrier_release_.count(key) > 0; });
  const auto waited = blocked.elapsed();
  stats_.barrier_wait_ns.record(waited);
  if (trace_t0 != 0 && obs::trace_enabled()) {
    // Bind the release message's arrow to this wait, then close the span.
    obs::trace_flow_end("msg", "net", barrier_release_.at(key).trace_id);
    obs::trace_complete_ns("barrier.wait", "dsm", obs::Tracer::now_ns() - trace_t0,
                           {"barrier", b}, {"proc", self_});
  }

  // Counts raise the count floor: all pre-barrier updates addressed to us
  // must land.  A barrier makes every process a direct predecessor.
  const BarrierRelease& rel = barrier_release_.at(key);
  resume_sync_locked(rel.counts, rel.vc, ~std::uint64_t{0});
  barrier_release_.erase(key);

  if (observing_ops()) {
    history::Operation op;
    op.kind = history::OpKind::kBarrier;
    op.proc = self_;
    op.barrier = b;
    op.barrier_epoch = static_cast<std::uint32_t>(epoch);
    emit_op(op);
  }
}

void Node::do_lock(LockId l, LockRequestKind kind) {
  stats_.locks.add();
  Stopwatch blocked;
  {
    std::scoped_lock lk(mu_);
    MC_CHECK_MSG(held_.find(l) == held_.end(), "locks are not re-entrant");
  }
  fabric_.send(msg_to(mgr_, kLockReq, l, static_cast<std::uint64_t>(kind)));
  // Traced span covers only the post-request wait (see barrier()).
  const std::uint64_t trace_t0 = obs::trace_enabled() ? obs::Tracer::now_ns() : 0;

  std::unique_lock lk(mu_);
  wait_or_die(lk, "lock acquisition blocked past the liveness deadline",
              [&] { return pending_grants_.count(l) > 0; });
  const auto waited = blocked.elapsed();
  stats_.lock_acquire_ns.record(waited);
  if (profiler_ != nullptr) {
    profiler_->record_lock_acquire(l, static_cast<std::uint64_t>(waited.count()));
  }

  GrantInfo info = std::move(pending_grants_.at(l));
  pending_grants_.erase(l);
  if (trace_t0 != 0 && obs::trace_enabled()) {
    // Bind the grant message's arrow to this wait, then close the span.
    obs::trace_flow_end("msg", "net", info.trace_id);
    obs::trace_complete_ns("lock.acquire", "dsm", obs::Tracer::now_ns() - trace_t0,
                           {"lock", l}, {"proc", self_});
  }

  // |-> lock obligations: the previous episode's context becomes visible.
  // Count stamps carry, per sender, how many updates that sender had
  // shipped to *us* when it last unlocked (Section 6's lazy
  // implementation: "waits for the required number of messages"); the
  // previous holders are the direct predecessors.
  resume_sync_locked(info.counts, info.release_vc, info.prev_holders_mask);
  for (const auto& [var, owner] : info.invalid) {
    if (owner != self_) invalid_[var] = owner;
  }

  HeldLock held{kind, info.episode, {}};
  if (profiler_ != nullptr) held.acquired = std::chrono::steady_clock::now();
  held_[l] = std::move(held);

  if (observing_ops()) {
    history::Operation op;
    op.kind = kind == LockRequestKind::kWrite ? history::OpKind::kWriteLock
                                              : history::OpKind::kReadLock;
    op.proc = self_;
    op.lock = l;
    op.lock_episode = info.episode;
    emit_op(op);
  }
}

void Node::do_unlock(LockId l, LockRequestKind kind) {
  Stopwatch blocked;
  const LockPolicy policy = cfg_.policy_of(l);

  std::uint64_t episode = 0;
  std::vector<VarId> digest;
  {
    std::scoped_lock lk(mu_);
    // Mandatory flush: critical-section updates must precede the
    // eager flush probes (FIFO makes the probe's ack meaningful) and the
    // unlock's clock/count snapshot, for every propagation policy.
    flush_staged_locked();
    auto it = held_.find(l);
    MC_CHECK_MSG(it != held_.end(), "unlock of a lock that is not held");
    MC_CHECK_MSG(it->second.kind == kind, "unlock kind does not match the held lock");
    episode = it->second.episode;
    if (policy == LockPolicy::kDemand) digest = it->second.cs_writes;
    if (profiler_ != nullptr &&
        it->second.acquired != std::chrono::steady_clock::time_point{}) {
      const auto held_for = std::chrono::steady_clock::now() - it->second.acquired;
      profiler_->record_lock_hold(l, static_cast<std::uint64_t>(held_for.count()));
    }
    held_.erase(it);
  }

  if (policy == LockPolicy::kEager && kind == LockRequestKind::kWrite &&
      cfg_.num_procs > 1) {
    // Flush probe: every peer acknowledges once our prior updates have been
    // applied; only then does the unlock reach the manager (Section 6's
    // eager implementation).
    std::uint64_t token = 0;
    std::uint64_t probed = 0;
    {
      std::scoped_lock lk(mu_);
      token = ++sync_token_counter_;
      for (ProcId p = 0; p < cfg_.num_procs; ++p) {
        if (p == self_ || (elastic_ && !view_.is_alive(p))) continue;
        probed |= std::uint64_t{1} << p;
      }
    }
    for (ProcId p = 0; p < cfg_.num_procs; ++p) {
      if ((probed & (std::uint64_t{1} << p)) == 0) continue;
      fabric_.send(msg_to(p, kSyncReq, token));
    }
    std::unique_lock lk(mu_);
    wait_or_die(lk, "eager unlock blocked past the liveness deadline", [&] {
      // Elastic: a probed peer evicted mid-wait will never ack; its
      // visibility obligation dies with it.
      if (!elastic_) return sync_acks_[token] == cfg_.num_procs - 1;
      return sync_acks_[token] + popcount64(probed & ~view_.alive_mask) >=
             popcount64(probed);
    });
    sync_acks_.erase(token);
    stats_.unlock_blocked.record(blocked.elapsed());
  }

  net::Message unlock = msg_to(mgr_, kUnlock, l, static_cast<std::uint64_t>(kind));
  {
    std::scoped_lock lk(mu_);
    encode_stamp(stamp_, sent_to_, dep_vc_, unlock.payload);
  }
  unlock.d = digest.size();
  for (const VarId x : digest) unlock.payload.push_back(x);

  // Sink before the kUnlock message leaves (obs/op_sink.h): the manager may
  // grant the next episode the instant it arrives, and that episode's lock
  // operations must reach the live monitor after this one.
  if (observing_ops()) {
    std::scoped_lock lk(mu_);
    history::Operation op;
    op.kind = kind == LockRequestKind::kWrite ? history::OpKind::kWriteUnlock
                                              : history::OpKind::kReadUnlock;
    op.proc = self_;
    op.lock = l;
    op.lock_episode = episode;
    emit_op(op);
  }
  fabric_.send(std::move(unlock));
}

void Node::rlock(LockId l) { do_lock(l, LockRequestKind::kRead); }
void Node::runlock(LockId l) { do_unlock(l, LockRequestKind::kRead); }
void Node::wlock(LockId l) { do_lock(l, LockRequestKind::kWrite); }
void Node::wunlock(LockId l) { do_unlock(l, LockRequestKind::kWrite); }

void Node::fetch_var(std::unique_lock<std::mutex>& lk, VarId x, net::Endpoint owner) {
  stats_.fetches.add();
  if (profiler_ != nullptr) profiler_->record_fetch(x);
  // A one-variable snapshot request; the reply installs in
  // on_fetch_bulk_resp.
  const std::uint64_t token = ++fill_token_counter_;
  PendingFill& pf = fills_[token];
  pf.vars.push_back(x);
  pf.owner = static_cast<ProcId>(owner);
  net::Message req = msg_to(owner, kFetchBulkReq, 1, token, 0, kFetchDemand);
  req.payload.push_back(x);
  fabric_.send(std::move(req));
  // Traced span covers only the post-request wait (see barrier()).
  const std::uint64_t trace_t0 = obs::trace_enabled() ? obs::Tracer::now_ns() : 0;

  wait_or_die(lk, "demand fetch blocked past the liveness deadline",
              [&] { return pf.done; });
  const std::uint64_t trace_id = pf.trace_id;
  fills_.erase(token);
  if (trace_t0 != 0 && obs::trace_enabled()) {
    obs::trace_flow_end("msg", "net", trace_id);
    obs::trace_complete_ns("fetch.wait", "dsm", obs::Tracer::now_ns() - trace_t0,
                           {"var", x}, {"proc", self_});
  }
}

// Explicit instantiation not needed: wait_or_die is only used in this TU.

}  // namespace mc::dsm
