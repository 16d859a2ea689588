#include "dsm/system.h"

#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "obs/op_sink.h"
#include "obs/tracer.h"

namespace mc::dsm {

MixedSystem::MixedSystem(Config cfg)
    : cfg_(std::move(cfg)),
      fabric_(cfg_.num_procs + 1, cfg_.latency, cfg_.seed) {
  MC_CHECK(cfg_.num_procs >= 1);
  if (cfg_.directory.has_value()) {
    MC_CHECK_MSG(!cfg_.count_vectors.has_value(),
                 "directory mode needs vector timestamps: fills install "
                 "LWW winners and deltas merge clocks");
    MC_CHECK_MSG(cfg_.num_procs <= 64,
                 "directory sharer sets are encoded as 64-bit masks");
  }
  if (cfg_.count_vectors.has_value()) {
    MC_CHECK_MSG(cfg_.demand_association.empty(),
                 "timestamp elision assumes all writes are broadcast; "
                 "demand-driven locks are incompatible");
    MC_CHECK_MSG(!cfg_.elastic,
                 "elastic membership requires vector-clock mode: count vectors "
                 "carry no per-writer causality to fence at a view change");
    for (const auto& [var, subs] : cfg_.count_vectors->subscribers) {
      MC_CHECK_MSG(var < cfg_.num_vars, "subscriber list for an out-of-range variable");
      for (const ProcId p : subs) {
        MC_CHECK_MSG(p < cfg_.num_procs, "subscriber list names an out-of-range process");
      }
    }
  }
  MC_CHECK_MSG(!cfg_.elastic || cfg_.num_procs <= 64,
               "elastic membership encodes views as 64-bit masks");
  MC_CHECK_MSG(!cfg_.initial_members.has_value() || cfg_.elastic,
               "initial_members only means something with Config::elastic");
  if (cfg_.initial_members.has_value()) {
    MC_CHECK_MSG(!cfg_.initial_members->empty(), "view 0 needs at least one member");
    for (const ProcId p : *cfg_.initial_members) MC_CHECK(p < cfg_.num_procs);
  }
  register_kind_names(fabric_);
  // Robustness layers, both strictly opt-in (docs/FAULTS.md).  Reliability
  // goes in first so every protocol message is sequenced from the start;
  // the fault plan only then makes the channel lossy.
  if (cfg_.elastic && cfg_.reliable && cfg_.reliability.keepalive.count() == 0) {
    // Elastic needs a failure detector that works while every survivor is
    // blocked in synchronization (no app traffic probes the dead peer):
    // keepalive pings on idle channels, paced by the backoff ceiling.
    cfg_.reliability.keepalive = cfg_.reliability.max_rto;
  }
  if (cfg_.reliable) fabric_.enable_reliability(cfg_.reliability);
  if (cfg_.faults.has_value()) fabric_.inject_faults(*cfg_.faults);
  const auto mgr_ep = static_cast<net::Endpoint>(cfg_.num_procs);
  const std::optional<std::uint64_t> initial_alive =
      cfg_.elastic ? std::optional<std::uint64_t>(
                         cfg_.initial_members.has_value()
                             ? mask_of(*cfg_.initial_members)
                             : full_mask(cfg_.num_procs))
                   : std::nullopt;
  manager_ = std::make_unique<SyncManager>(fabric_, mgr_ep, cfg_.num_procs,
                                           cfg_.barrier_members, stamp_form(cfg_),
                                           initial_alive);
  if (cfg_.elastic) {
    // Crash detection: the reliability layer's give-up verdict becomes a
    // fault report to the view manager (a suspect manager endpoint is not
    // reconfigurable — that failure stays a watchdog matter).
    if (net::ReliableChannel* rel = fabric_.reliable_channel()) {
      rel->set_unreachable_callback(
          [this, mgr_ep](const net::ReliableChannel::PeerUnreachable& err) {
            if (err.dst >= cfg_.num_procs || err.src == err.dst) return;
            net::Message fault;
            fault.src = err.src;
            fault.dst = mgr_ep;
            fault.kind = kViewFault;
            fault.a = err.dst;
            fabric_.send(std::move(fault));
          });
    }
    manager_->set_view_listener(
        [this](const View& v, std::uint64_t departed_mask, ProcId joiner,
               const std::vector<std::pair<BarrierId, std::uint64_t>>& joined_from) {
          // Silence retransmissions to the removed: their channels would
          // otherwise keep reporting the same corpse.
          if (net::ReliableChannel* rel = fabric_.reliable_channel()) {
            for (ProcId p = 0; p < cfg_.num_procs && p < 64; ++p) {
              if ((departed_mask >> p) & 1) rel->mark_dead(p);
            }
          }
          if (obs::OpSink* sink = op_sink_.load(std::memory_order_acquire)) {
            for (const auto& [b, from_epoch] : joined_from) {
              sink->on_barrier_member_from(b, joiner, from_epoch);
            }
            sink->on_view(v.epoch, v.alive_mask);
          }
        });
  }
  if (cfg_.track_staleness) {
    staleness_ = std::make_unique<StalenessTable>(cfg_.num_vars, cfg_.num_procs);
  }
  nodes_.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    nodes_.push_back(std::make_unique<Node>(cfg_, p, fabric_, mgr_ep, staleness_.get()));
  }
  if (cfg_.profile.has_value()) {
    // One profiler per component keeps hot-path recording uncontended
    // across processes; profile() merges them.  Attached before run(), so
    // every record site sees the pointer through the thread-start /
    // mailbox synchronization that also orders the first message.
    profilers_.reserve(cfg_.num_procs + 1);
    for (ProcId p = 0; p < cfg_.num_procs; ++p) {
      profilers_.push_back(std::make_unique<obs::ContentionProfiler>(*cfg_.profile));
      nodes_[p]->set_profiler(profilers_.back().get());
    }
    profilers_.push_back(std::make_unique<obs::ContentionProfiler>(*cfg_.profile));
    manager_->set_profiler(profilers_.back().get());
  }
}

MixedSystem::~MixedSystem() { shutdown(); }

Node& MixedSystem::node(ProcId p) {
  MC_CHECK(p < nodes_.size());
  return *nodes_[p];
}

void MixedSystem::run(const std::function<void(Node&, ProcId)>& body) {
  run_threads(body, nullptr);
}

MixedSystem::RunOutcome MixedSystem::run(
    const std::function<void(Node&, ProcId)>& body,
    std::chrono::nanoseconds timeout) {
  Watchdog::Options opts;
  opts.stall_timeout = timeout;
  Watchdog wd(opts);
  wd.set_wait_graph_source([this] { return manager_->wait_edges(); });
  wd.set_diagnostics_source([this](Watchdog::Diagnostics& d) {
    d.locks = manager_->dump_locks();
    d.barriers = manager_->dump_barriers();
    d.in_flight = fabric_.in_flight();
    if (cfg_.elastic) d.view = manager_->view_string();
    // Name the culprits: a stall report that says WHICH lock and variable
    // are hottest beats a bare wait set (requires Config::profile).
    if (cfg_.profile.has_value()) d.hot = profile().hot_summary();
    if (net::ReliableChannel* rel = fabric_.reliable_channel()) {
      for (const auto& err : rel->errors()) {
        d.unreachable.push_back("channel p" + std::to_string(err.src) + " -> p" +
                                std::to_string(err.dst) + ": seq " +
                                std::to_string(err.first_unacked) +
                                " unacked after " + std::to_string(err.retries) +
                                " retries");
      }
    }
  });
  wd.set_manager_probe([this] {
    const net::Mailbox& mb = fabric_.mailbox(static_cast<net::Endpoint>(cfg_.num_procs));
    return Watchdog::ManagerHealth{mb.released(), mb.pending()};
  });
  for (auto& n : nodes_) n->set_watchdog(&wd);
  run_threads(body, &wd);
  for (auto& n : nodes_) n->set_watchdog(nullptr);

  RunOutcome out;
  out.stalled = wd.fired();
  out.diagnostics = wd.diagnostics();
  return out;
}

void MixedSystem::run_threads(const std::function<void(Node&, ProcId)>& body,
                              Watchdog* wd) {
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t running = cfg_.num_procs;
  std::vector<std::thread> threads;
  threads.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    threads.emplace_back([&, p] {
      // Marks this thread as an application lane for the critical-path
      // analyzer (gaps between its events are compute, not idle).
      obs::trace_instant("proc.start", "dsm", {"proc", p});
      try {
        body(*nodes_[p], p);
      } catch (const EvictedError&) {
        // Elastic: this process was removed from the view mid-body; the
        // survivors carry on and its exit is clean, not a stall.
      } catch (const StallError&) {
        // The watchdog fired while this thread was blocked; its dump is the
        // run's result.  Unwinding here keeps the join below prompt.
      }
      obs::trace_instant("proc.end", "dsm", {"proc", p});
      {
        std::scoped_lock lk(done_mu);
        --running;
      }
      done_cv.notify_one();
    });
  }
  if (wd != nullptr) {
    // The caller supervises: one watchdog pass per poll period until every
    // application thread has returned.
    std::unique_lock lk(done_mu);
    while (!done_cv.wait_for(lk, wd->poll_interval(), [&] { return running == 0; })) {
      lk.unlock();
      wd->poll();
      lk.lock();
    }
  }
  for (auto& t : threads) t.join();
}

void MixedSystem::attach_op_sink(obs::OpSink* sink) {
  op_sink_.store(sink, std::memory_order_release);
  for (auto& n : nodes_) n->set_op_sink(sink);
}

View MixedSystem::view() const {
  MC_CHECK_MSG(cfg_.elastic, "view() requires Config::elastic");
  return manager_->view();
}

std::map<BarrierId, std::size_t> MixedSystem::barrier_membership() const {
  std::map<BarrierId, std::size_t> m;
  for (const auto& [bar, members] : cfg_.barrier_members) m[bar] = members.size();
  return m;
}

history::History MixedSystem::collect_history() const {
  std::vector<const TraceRecorder*> traces;
  traces.reserve(nodes_.size());
  for (const auto& n : nodes_) traces.push_back(&n->trace());
  return merge_traces(cfg_.num_procs, traces);
}

MetricsSnapshot MixedSystem::metrics() const {
  MetricsSnapshot snap = fabric_.metrics();
  std::uint64_t blocked = 0;
  std::uint64_t reads_pram = 0;
  std::uint64_t reads_causal = 0;
  std::uint64_t writes = 0;
  std::uint64_t deltas = 0;
  std::uint64_t fetches = 0;
  std::uint64_t batch_msgs = 0;
  std::uint64_t batch_updates = 0;
  std::uint64_t batch_coalesced = 0;
  // Per-primitive latency, merged across all processes (docs/METRICS.md).
  LatencyHistogram read_pram_ns, read_causal_ns, await_spin_ns, lock_acquire_ns,
      barrier_wait_ns, batch_updates_per_msg;
  LatencyHistogram staleness_versions_pram, staleness_versions_causal,
      staleness_vc_pram, staleness_vc_causal;
  for (const auto& n : nodes_) {
    const NodeStats& s = n->stats();
    blocked += s.total_blocked_ns();
    reads_pram += s.reads_pram.get();
    reads_causal += s.reads_causal.get();
    writes += s.writes.get();
    deltas += s.deltas.get();
    fetches += s.fetches.get();
    batch_msgs += s.batch_msgs.get();
    batch_updates += s.batch_updates.get();
    batch_coalesced += s.batch_coalesced.get();
    read_pram_ns.merge(s.read_pram_ns);
    read_causal_ns.merge(s.read_causal_ns);
    await_spin_ns.merge(s.await_spin_ns);
    lock_acquire_ns.merge(s.lock_acquire_ns);
    barrier_wait_ns.merge(s.barrier_wait_ns);
    batch_updates_per_msg.merge(s.batch_updates_per_msg);
    staleness_versions_pram.merge(s.staleness_versions_pram);
    staleness_versions_causal.merge(s.staleness_versions_causal);
    staleness_vc_pram.merge(s.staleness_vc_pram);
    staleness_vc_causal.merge(s.staleness_vc_causal);
  }
  snap.values["dsm.blocked_ns"] = blocked;
  snap.values["dsm.reads_pram"] = reads_pram;
  snap.values["dsm.reads_causal"] = reads_causal;
  snap.values["dsm.writes"] = writes;
  snap.values["dsm.deltas"] = deltas;
  snap.values["dsm.fetches"] = fetches;
  snap.values["net.batch.msgs"] = batch_msgs;
  snap.values["net.batch.updates"] = batch_updates;
  snap.values["net.batch.coalesced"] = batch_coalesced;
  // Samples are record counts, not nanoseconds (docs/METRICS.md).
  snap.add_histogram("net.batch.updates_per_msg", batch_updates_per_msg);
  snap.add_histogram("read.pram_ns", read_pram_ns);
  snap.add_histogram("read.causal_ns", read_causal_ns);
  snap.add_histogram("await.spin_ns", await_spin_ns);
  snap.add_histogram("lock.acquire_ns", lock_acquire_ns);
  snap.add_histogram("barrier.wait_ns", barrier_wait_ns);
  if (cfg_.track_staleness) {
    // Samples are version / vector-clock distances, not nanoseconds
    // (docs/METRICS.md "Read staleness").
    snap.add_histogram("read.staleness_versions.pram", staleness_versions_pram);
    snap.add_histogram("read.staleness_versions.causal", staleness_versions_causal);
    if (!cfg_.count_vectors.has_value()) {
      snap.add_histogram("read.staleness_vc.pram", staleness_vc_pram);
      snap.add_histogram("read.staleness_vc.causal", staleness_vc_causal);
    }
  }
  if (cfg_.directory.has_value()) {
    std::uint64_t fills = 0, fill_records = 0, evictions = 0, evicted_frames = 0;
    std::uint64_t pings = 0;
    std::uint64_t adds = 0, dels = 0, writers = 0, purged = 0;
    LatencyHistogram fill_wait_ns;
    for (const auto& n : nodes_) {
      const NodeStats& s = n->stats();
      fills += s.dir_fills.get();
      fill_records += s.dir_fill_records.get();
      evictions += s.dir_evictions.get();
      evicted_frames += s.dir_evicted_frames.get();
      pings += s.dir_frontier_pings.get();
      adds += s.dir_sharer_adds.get();
      dels += s.dir_sharer_dels.get();
      writers += s.dir_writer_registrations.get();
      purged += s.dir_sharers_purged.get();
      fill_wait_ns.merge(s.dir_fill_wait_ns);
    }
    snap.values["directory.fills"] = fills;
    snap.values["directory.fill_records"] = fill_records;
    snap.values["directory.evictions"] = evictions;
    snap.values["directory.evicted_frames"] = evicted_frames;
    snap.values["directory.frontier_pings"] = pings;
    snap.values["directory.sharer_adds"] = adds;
    snap.values["directory.sharer_dels"] = dels;
    snap.values["directory.writer_registrations"] = writers;
    snap.values["directory.sharers_purged"] = purged;
    snap.add_histogram("directory.fill_wait_ns", fill_wait_ns);
  }
  if (cfg_.elastic) {
    std::uint64_t reseeds_out = 0;
    std::uint64_t reseeds_in = 0;
    for (const auto& n : nodes_) {
      reseeds_out += n->stats().reseeds_out.get();
      reseeds_in += n->stats().reseeds_in.get();
    }
    snap.values["view.epoch"] = manager_->view().epoch;
    snap.values["view.changes"] = manager_->view_changes();
    snap.values["view.joins"] = manager_->view_joins();
    snap.values["view.leaves"] = manager_->view_leaves();
    snap.values["view.faults"] = manager_->view_faults();
    snap.values["view.locks_revoked"] = manager_->locks_revoked();
    snap.values["view.reseed_assignments"] = manager_->reseed_assignments();
    snap.values["view.reseed_records_out"] = reseeds_out;
    snap.values["view.reseed_records_in"] = reseeds_in;
  }
  snap.values["lockmgr.grants"] = manager_->grants_sent();
  snap.add_histogram("lockmgr.grant_wait_ns", manager_->grant_wait());
  snap.values["lockmgr.heartbeats"] = manager_->lock_heartbeats();
  snap.values["barriermgr.releases"] = manager_->releases_sent();
  snap.add_histogram("barriermgr.assemble_ns", manager_->assemble_time());
  snap.values["barriermgr.heartbeats"] = manager_->barrier_heartbeats();
  if (cfg_.profile.has_value()) {
    // Sketch occupancy only — the full attribution lives in profile().
    // Guarded so an unprofiled run has ZERO profile.* keys.
    const obs::ProfileReport pr = profile();
    snap.values["profile.vars.tracked"] = pr.vars.entries.size();
    snap.values["profile.vars.overflow"] = pr.vars.overflow_events;
    snap.values["profile.locks.tracked"] = pr.locks.entries.size();
    snap.values["profile.locks.overflow"] = pr.locks.overflow_events;
    snap.values["profile.barriers.tracked"] = pr.barriers.entries.size();
    snap.values["profile.barriers.overflow"] = pr.barriers.overflow_events;
  }
  if (obs::trace_enabled()) {
    snap.values["obs.trace.dropped"] = obs::Tracer::instance().dropped_events();
  }
  return snap;
}

obs::ProfileReport MixedSystem::profile() const {
  obs::ProfileReport out(cfg_.profile.value_or(obs::ProfilerOptions{}));
  for (const auto& p : profilers_) out.merge(p->snapshot());
  return out;
}

void MixedSystem::shutdown() {
  if (down_) return;
  down_ = true;
  fabric_.shutdown();
  manager_->join();
  for (auto& n : nodes_) n->stop();
}

}  // namespace mc::dsm
