#include "net/reliable.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/fabric.h"
#include "obs/tracer.h"

namespace mc::net {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

std::chrono::nanoseconds ReliableChannel::backoff_rto(
    std::chrono::nanoseconds prev, const ReliabilityConfig& cfg,
    std::uint64_t channel, std::uint64_t seq, int attempt) {
  auto next = std::min(prev * 2, cfg.max_rto);
  if (cfg.jitter > 0.0) {
    std::uint64_t h = cfg.jitter_seed;
    h = splitmix64(h ^ channel);
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ static_cast<std::uint64_t>(attempt));
    // 53 uniform bits -> u in [-1, 1).
    const double u =
        static_cast<double>(h >> 11) / 4503599627370496.0 - 1.0;
    const auto scaled = std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(next.count()) * (1.0 + cfg.jitter * u)));
    next = std::clamp(scaled, std::chrono::nanoseconds(1), cfg.max_rto);
  }
  return next;
}

ReliableChannel::ReliableChannel(Fabric& fabric, std::size_t endpoints,
                                 ReliabilityConfig cfg)
    : fabric_(fabric),
      endpoints_(endpoints),
      cfg_(cfg),
      send_(endpoints * endpoints),
      recv_(endpoints * endpoints),
      ready_(endpoints),
      posted_(endpoints) {
  MC_CHECK(cfg_.initial_rto.count() > 0);
  MC_CHECK(cfg_.max_retries >= 1);
  MC_CHECK(cfg_.ack_every >= 1);
  MC_CHECK(cfg_.jitter >= 0.0 && cfg_.jitter <= 1.0);
}

ReliableChannel::~ReliableChannel() = default;

void ReliableChannel::set_unreachable_callback(
    std::function<void(const PeerUnreachable&)> cb) {
  std::scoped_lock lk(mu_);
  unreachable_cb_ = std::move(cb);
}

void ReliableChannel::mark_dead(Endpoint e) {
  std::scoped_lock lk(mu_);
  for (std::size_t src = 0; src < endpoints_; ++src) {
    SendState& st = send_[channel(static_cast<Endpoint>(src), e)];
    st.dead = true;
    st.inflight.clear();
  }
}

void ReliableChannel::on_send(Message& m) {
  std::scoped_lock lk(mu_);
  SendState& st = send_[channel(m.src, m.dst)];
  m.rel_seq = st.next_seq++;
  RecvState& reverse = recv_[channel(m.dst, m.src)];
  m.rel_ack = reverse.delivered;
  // The piggyback satisfies any suppressed standalone ack for the reverse
  // channel (should this message be lost, the peer's retransmit is re-acked
  // immediately, same as a lost standalone ack).
  if (reverse.acked < reverse.delivered) {
    reverse.acked = reverse.delivered;
    acks_piggybacked_.add();
  }
  st.last_activity = Clock::now();
  if (!st.dead) {
    InFlight entry;
    entry.msg = m;
    entry.rto = cfg_.initial_rto;
    entry.deadline = st.last_activity + entry.rto;
    arm(m.src, entry.deadline);
    st.inflight.emplace(m.rel_seq, std::move(entry));
  }
}

void ReliableChannel::arm(Endpoint e, Clock::time_point deadline) {
  std::multiset<Clock::time_point>& posted = posted_[e];
  if (!posted.empty() && *posted.begin() <= deadline) return;
  posted.insert(deadline);
  Message due;
  due.src = e;
  due.dst = e;
  due.kind = kRelDeadlineKind;
  due.deliver_at = deadline;
  // Straight into e's own lane, not through Fabric::send: the deadline is
  // local and costs no wire message.
  (void)fabric_.mailbox(e).push(std::move(due));
}

Message ReliableChannel::make_ack(Endpoint from, Endpoint to, std::uint64_t acked) const {
  Message a;
  a.src = from;
  a.dst = to;
  a.kind = kRelAckKind;
  a.a = acked;
  return a;
}

void ReliableChannel::handle_ack(Endpoint e, Endpoint peer, std::uint64_t acked) {
  SendState& st = send_[channel(e, peer)];
  const bool had_inflight = !st.inflight.empty();
  st.inflight.erase(st.inflight.begin(), st.inflight.upper_bound(acked));
  st.last_activity = Clock::now();
  // A channel that just went quiet starts its keepalive countdown.
  if (had_inflight && st.inflight.empty() && cfg_.keepalive.count() > 0) {
    arm(e, st.last_activity + cfg_.keepalive);
  }
}

void ReliableChannel::process(Endpoint e, Message m, std::vector<Message>& acks_out) {
  // Any message carries a cumulative ack for the channel we send on
  // (e -> m.src), piggybacked or standalone.
  if (m.rel_ack != 0) handle_ack(e, m.src, m.rel_ack);
  if (m.kind == kRelAckKind) {
    handle_ack(e, m.src, m.a);
    // Acks are consumed here, never handed up: close their flow so every
    // flow start has a matching end.
    obs::trace_flow_end("msg", "net", m.trace_id);
    return;
  }
  if (m.rel_seq == 0) {
    // Pre-reliability or control traffic: pass through untouched.
    ready_[e].push_back(std::move(m));
    return;
  }

  const std::size_t ch = channel(m.src, e);
  RecvState& st = recv_[ch];
  if (m.rel_seq <= st.delivered || st.reorder.count(m.rel_seq) != 0) {
    dup_dropped_.add();
    if (obs::trace_enabled()) {
      obs::trace_instant("rel.dup_drop", "net", {"src", m.src},
                         {"seq", m.rel_seq});
      // This physical copy terminates here; close its flow.
      obs::trace_flow_end("msg", "net", m.trace_id);
    }
    // Re-ack so a sender retransmitting into a lost-ack window quiesces.
    st.acked = st.delivered;
    acks_out.push_back(make_ack(e, m.src, st.delivered));
    return;
  }
  const Endpoint sender = m.src;
  const bool was_pending = st.delivered > st.acked;
  st.reorder.emplace(m.rel_seq, std::move(m));
  while (!st.reorder.empty() && st.reorder.begin()->first == st.delivered + 1) {
    Message next = std::move(st.reorder.begin()->second);
    st.reorder.erase(st.reorder.begin());
    ++st.delivered;
    if (next.kind == kRelPingKind) {
      // Keepalive probes occupy sequence space (so they are acked and
      // retransmitted like anything else) but carry no payload for the
      // application: consume them here.
      obs::trace_flow_end("msg", "net", next.trace_id);
    } else {
      ready_[e].push_back(std::move(next));
    }
  }
  if (cfg_.ack_every <= 1 || st.delivered - st.acked >= cfg_.ack_every) {
    st.acked = st.delivered;
    acks_out.push_back(make_ack(e, sender, st.delivered));
  } else if (st.delivered > st.acked) {
    // Delayed cumulative ack: suppress the standalone ack; a later k-th
    // delivery, reverse-traffic piggyback, or the flush deadline covers it.
    if (!was_pending) {
      st.ack_pending_since = Clock::now();
      arm(e, st.ack_pending_since + ack_flush_window(cfg_));
    }
    acks_delayed_.add();
  }
}

bool ReliableChannel::drain(Endpoint e, std::vector<Message>& out, std::size_t max) {
  out.clear();
  std::vector<Message> raw;
  Outbox sends;
  bool open = true;
  for (;;) {
    std::function<void(const PeerUnreachable&)> cb;
    {
      std::scoped_lock lk(mu_);
      bool due = false;
      for (Message& m : raw) {
        if (m.kind == kRelDeadlineKind) {
          std::multiset<Clock::time_point>& posted = posted_[e];
          if (auto it = posted.find(m.deliver_at); it != posted.end()) posted.erase(it);
          timer_wakeups_.add();
          due = true;
          continue;
        }
        process(e, std::move(m), sends.acks);
      }
      // Deadlines fire after the rest of their batch, so an ack that
      // arrived with them cancels the retransmit instead of racing it.
      // Once closed, the mailbox releases what it held without waiting for
      // deliver_at, and nobody is left to receive a late retransmit.
      if (due && !fabric_.mailbox(e).closed()) fire_due(e, sends);
      std::deque<Message>& ready = ready_[e];
      while (!ready.empty() && out.size() < max) {
        out.push_back(std::move(ready.front()));
        ready.pop_front();
      }
      // Snapshot the callback under the lock; invoke it outside so it may
      // re-enter the fabric (e.g. to send a view-fault report).
      if (!sends.errors.empty()) cb = unreachable_cb_;
    }
    for (Message& m : sends.resends) fabric_.send_raw(std::move(m));
    // Pings take the full send path: they must be sequenced (on_send) and
    // are subject to the fault plan like any other message.
    for (Message& m : sends.pings) fabric_.send(std::move(m));
    for (Message& a : sends.acks) {
      acks_sent_.add();
      ack_bytes_.add(a.wire_bytes());
      fabric_.send_raw(std::move(a));
    }
    if (cb) {
      for (const PeerUnreachable& err : sends.errors) cb(err);
    }
    sends = Outbox{};
    if (!out.empty()) return true;
    if (!open) return false;
    open = fabric_.mailbox(e).drain(raw);
  }
}

void ReliableChannel::fire_due(Endpoint e, Outbox& out) {
  const auto now = Clock::now();
  auto next = Clock::time_point::max();  // earliest deadline left armed
  for (Endpoint dst = 0; dst < endpoints_; ++dst) {
    const std::size_t ch = channel(e, dst);
    SendState& st = send_[ch];
    if (st.dead) continue;
    for (auto& [seq, entry] : st.inflight) {
      if (entry.deadline > now) {
        next = std::min(next, entry.deadline);
        continue;
      }
      if (entry.attempts >= cfg_.max_retries) {
        st.dead = true;
        PeerUnreachable err;
        err.src = e;
        err.dst = dst;
        err.first_unacked = seq;
        err.retries = entry.attempts;
        errors_.push_back(err);
        out.errors.push_back(err);
        if (obs::trace_enabled()) {
          obs::trace_instant("rel.peer_unreachable", "net", {"dst", dst}, {"seq", seq});
        }
        break;
      }
      ++entry.attempts;
      entry.rto = backoff_rto(entry.rto, cfg_, ch, seq, entry.attempts);
      entry.deadline = now + entry.rto;
      next = std::min(next, entry.deadline);
      rto_ns_.record(entry.rto);
      retransmits_.add();
      out.resends.push_back(entry.msg);
      if (obs::trace_enabled()) {
        obs::trace_instant("rel.retransmit", "net", {"dst", dst}, {"seq", seq});
        // Each physical copy gets its own flow, marked so the
        // critical-path analyzer bills its transit to `retransmit`.
        out.resends.back().trace_id = obs::next_flow_id() | obs::kFlowRetransmitBit;
      }
    }
    if (st.dead) {
      st.inflight.clear();
      continue;
    }
    // Keepalive probing: a once-used channel with nothing in flight and no
    // recent ack gets a sequenced ping, so a silently dead peer is detected
    // even when every sender is blocked and producing no app traffic.
    if (cfg_.keepalive.count() == 0 || dst == e || st.next_seq == 1 ||
        !st.inflight.empty()) {
      continue;
    }
    if (now - st.last_activity < cfg_.keepalive) {
      next = std::min(next, st.last_activity + cfg_.keepalive);
      continue;
    }
    Message ping;
    ping.src = e;
    ping.dst = dst;
    ping.kind = kRelPingKind;
    out.pings.push_back(ping);
    st.last_activity = now;  // rate-limit until on_send restamps it
    keepalives_.add();
  }
  // Flush suppressed acks past their window, so sender RTOs never fire on
  // a healthy-but-quiet channel.
  const auto flush = ack_flush_window(cfg_);
  for (Endpoint src = 0; src < endpoints_; ++src) {
    RecvState& st = recv_[channel(src, e)];
    if (st.delivered == st.acked) continue;
    if (now - st.ack_pending_since < flush) {
      next = std::min(next, st.ack_pending_since + flush);
      continue;
    }
    st.acked = st.delivered;
    out.acks.push_back(make_ack(e, src, st.delivered));
  }
  if (next != Clock::time_point::max()) arm(e, next);
}

std::vector<ReliableChannel::PeerUnreachable> ReliableChannel::errors() const {
  std::scoped_lock lk(mu_);
  return errors_;
}

void ReliableChannel::add_metrics(MetricsSnapshot& snap) const {
  snap.values["net.retransmits"] = retransmits_.get();
  snap.values["net.dup_dropped"] = dup_dropped_.get();
  snap.values["net.acks"] = acks_sent_.get();
  snap.values["net.ack_bytes"] = ack_bytes_.get();
  snap.values["net.ack.delayed"] = acks_delayed_.get();
  snap.values["net.ack.piggybacked"] = acks_piggybacked_.get();
  snap.values["net.keepalives"] = keepalives_.get();
  snap.values["net.rel_timer.wakeups"] = timer_wakeups_.get();
  snap.add_histogram("net.rto_ns", rto_ns_);
  std::scoped_lock lk(mu_);
  snap.values["net.peer_unreachable"] = errors_.size();
}

}  // namespace mc::net
