#include "apps/equation_solver.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "dsm/system.h"

namespace mc::apps {

namespace {

/// Shared-variable layout of both solver formulations.
struct Layout {
  std::size_t n;
  std::size_t workers;

  [[nodiscard]] VarId x(std::size_t i) const { return static_cast<VarId>(i); }
  [[nodiscard]] VarId done() const { return static_cast<VarId>(n); }
  [[nodiscard]] VarId computed(std::size_t w) const { return static_cast<VarId>(n + 1 + w); }
  [[nodiscard]] VarId updated(std::size_t w) const {
    return static_cast<VarId>(n + 1 + workers + w);
  }
  [[nodiscard]] std::size_t num_vars() const { return n + 1 + 2 * workers; }

  [[nodiscard]] std::pair<std::size_t, std::size_t> rows(std::size_t w) const {
    return {w * n / workers, (w + 1) * n / workers};
  }
};

dsm::Config make_config(const LinearSystem& sys, const SolverOptions& opt, bool trace) {
  const Layout lay{sys.n, opt.workers, };
  dsm::Config cfg;
  cfg.num_procs = opt.workers + 1;
  cfg.num_vars = lay.num_vars();
  cfg.latency = opt.latency;
  cfg.seed = opt.seed;
  cfg.record_trace = trace;
  if (opt.omit_timestamps) cfg.count_vectors.emplace();
  cfg.faults = opt.faults;
  cfg.reliable = opt.reliable;
  cfg.reliability = opt.reliability;
  cfg.batching = opt.batching;
  cfg.directory = opt.directory;
  cfg.profile = opt.profile;
  return cfg;
}

/// Shared run shim: apply the observer hook, then run either bare or under
/// a watchdog (SolverOptions::stall_timeout) with the outcome folded into
/// the result.
void run_app(dsm::MixedSystem& dsm_sys, const SolverOptions& opt, SolverResult& out,
             const std::function<void(dsm::Node&, ProcId)>& body) {
  if (opt.system_hook) opt.system_hook(dsm_sys);
  if (opt.stall_timeout.count() > 0) {
    const auto outcome = dsm_sys.run(body, opt.stall_timeout);
    out.stalled = outcome.stalled;
    out.stall_reason = outcome.diagnostics.reason;
  } else {
    dsm_sys.run(body);
  }
}

SolverRun run_barrier(const LinearSystem& sys, const SolverOptions& opt, ReadMode mode,
                      bool trace) {
  MC_CHECK(opt.workers >= 1);
  const Layout lay{sys.n, opt.workers};
  dsm::MixedSystem dsm_sys(make_config(sys, opt, trace));

  SolverRun out;
  Stopwatch clock;
  run_app(dsm_sys, opt, out.result, [&](dsm::Node& node, ProcId p) {
    if (p == 0) {
      // Coordinator (Figure 2, left column): convergence checks between
      // barrier pairs.
      std::vector<double> xs(sys.n);
      std::size_t sweeps = 0;
      for (;;) {
        for (std::size_t i = 0; i < sys.n; ++i) xs[i] = node.read_double(lay.x(i), mode);
        const double resid = residual_inf(sys, xs);
        const bool stop = resid < opt.tol || sweeps >= opt.max_iters;
        if (stop) node.write_int(lay.done(), 1);
        node.barrier();
        node.barrier();
        if (stop) {
          out.result.x = xs;
          out.result.iterations = sweeps;
          out.result.converged = resid < opt.tol;
          break;
        }
        ++sweeps;
      }
    } else {
      // Worker (Figure 2, right column): compute sub-phase, barrier,
      // install sub-phase, barrier.
      const auto [r0, r1] = lay.rows(p - 1);
      std::vector<double> temp(sys.n, 0.0);
      for (;;) {
        jacobi_rows(sys, r0, r1,
                    [&](std::size_t j) { return node.read_double(lay.x(j), mode); }, temp);
        node.barrier();
        const bool stop = node.read_int(lay.done(), mode) != 0;
        if (!stop) {
          for (std::size_t i = r0; i < r1; ++i) node.write_double(lay.x(i), temp[i]);
        }
        node.barrier();
        if (stop) break;
      }
    }
  });
  out.result.elapsed_ms = clock.elapsed_ms();
  out.result.metrics = dsm_sys.metrics();
  if (opt.profile.has_value()) out.result.profile = dsm_sys.profile();
  if (trace) out.history = dsm_sys.collect_history();
  return out;
}

SolverRun run_handshake(const LinearSystem& sys, const SolverOptions& opt, bool trace) {
  MC_CHECK(opt.workers >= 1);
  const Layout lay{sys.n, opt.workers};
  dsm::MixedSystem dsm_sys(make_config(sys, opt, trace));

  SolverRun out;
  Stopwatch clock;
  run_app(dsm_sys, opt, out.result, [&](dsm::Node& node, ProcId p) {
    if (p == 0) {
      // Coordinator (Figure 3): four handshake rounds per phase.
      std::vector<double> xs(sys.n);
      std::int64_t phase = 0;
      for (;;) {
        ++phase;
        for (std::size_t w = 0; w < opt.workers; ++w) {
          node.await_int(lay.computed(w), phase);
        }
        for (std::size_t w = 0; w < opt.workers; ++w) {
          node.write_int(lay.computed(w), -phase);
        }
        for (std::size_t w = 0; w < opt.workers; ++w) {
          node.await_int(lay.updated(w), phase);
        }
        for (std::size_t i = 0; i < sys.n; ++i) {
          xs[i] = node.read_double(lay.x(i), ReadMode::kCausal);
        }
        const double resid = residual_inf(sys, xs);
        const bool stop = resid < opt.tol ||
                          static_cast<std::size_t>(phase) >= opt.max_iters;
        if (stop) node.write_int(lay.done(), 1);
        for (std::size_t w = 0; w < opt.workers; ++w) {
          node.write_int(lay.updated(w), -phase);
        }
        if (stop) {
          out.result.x = xs;
          out.result.iterations = static_cast<std::size_t>(phase);
          out.result.converged = resid < opt.tol;
          break;
        }
      }
    } else {
      // Worker (Figure 3): compute, handshake `computed`, install,
      // handshake `updated`, re-check `done` causally.
      const std::size_t w = p - 1;
      const auto [r0, r1] = lay.rows(w);
      std::vector<double> temp(sys.n, 0.0);
      std::int64_t phase = 0;
      for (;;) {
        ++phase;
        jacobi_rows(sys, r0, r1,
                    [&](std::size_t j) { return node.read_double(lay.x(j), ReadMode::kCausal); },
                    temp);
        node.write_int(lay.computed(w), phase);
        node.await_int(lay.computed(w), -phase);
        for (std::size_t i = r0; i < r1; ++i) node.write_double(lay.x(i), temp[i]);
        node.write_int(lay.updated(w), phase);
        node.await_int(lay.updated(w), -phase);
        if (node.read_int(lay.done(), ReadMode::kCausal) != 0) break;
      }
    }
  });
  out.result.elapsed_ms = clock.elapsed_ms();
  out.result.metrics = dsm_sys.metrics();
  if (opt.profile.has_value()) out.result.profile = dsm_sys.profile();
  if (trace) out.history = dsm_sys.collect_history();
  return out;
}

// ----- elastic-membership barrier solver (ElasticSchedule) -----

/// Variable layout of the elastic variant: the estimate, the done flag, the
/// coordinator's per-sweep plan word (bit w = worker w computes), and one
/// readiness word per worker for the join handshake: the first sweep a
/// joiner may be planned into (0 until it has joined).
///
/// The plan is double-buffered by sweep parity: the plan governing sweep k
/// lives in slot k%2.  A worker reads slot (k+1)%2 right after sweep k's
/// install barrier, and the coordinator's next write to that slot (the plan
/// for sweep k+3, at the top of sweep k+2) happens strictly after sweep
/// k+1's install barrier releases — which the reader passed first.  A
/// single unversioned plan variable would race: the coordinator can
/// overwrite it for sweep k+2 before a slow worker reads the sweep-(k+1)
/// word, splitting the workers across two different partitions and leaving
/// a row uncovered for one sweep.
struct ElasticLayout {
  std::size_t n;
  std::size_t workers;
  [[nodiscard]] VarId x(std::size_t i) const { return static_cast<VarId>(i); }
  [[nodiscard]] VarId done() const { return static_cast<VarId>(n); }
  [[nodiscard]] VarId plan(std::size_t slot) const { return static_cast<VarId>(n + 1 + slot); }
  [[nodiscard]] VarId ready(std::size_t w) const { return static_cast<VarId>(n + 3 + w); }
  [[nodiscard]] std::size_t num_vars() const { return n + 3 + workers; }

  /// Rows of worker `w` under `plan`: the row range split evenly across the
  /// planned workers, by rank.  Empty when w is not planned.
  [[nodiscard]] std::pair<std::size_t, std::size_t> rows_under(
      std::uint64_t plan, std::size_t w) const {
    if (((plan >> w) & 1) == 0) return {0, 0};
    std::size_t rank = 0, active = 0;
    for (std::size_t v = 0; v < workers; ++v) {
      if (((plan >> v) & 1) == 0) continue;
      if (v < w) ++rank;
      ++active;
    }
    return {rank * n / active, (rank + 1) * n / active};
  }
};

}  // namespace

SolverResult solve_barrier_elastic(const LinearSystem& sys, const SolverOptions& opt,
                                   const ElasticSchedule& sched) {
  MC_CHECK(opt.workers >= 1 && opt.workers <= 62);
  const ElasticLayout lay{sys.n, opt.workers};

  std::uint64_t initial = 0;
  if (sched.initial_workers.empty()) {
    for (std::size_t w = 0; w < opt.workers; ++w) initial |= std::uint64_t{1} << w;
  } else {
    for (const std::size_t w : sched.initial_workers) {
      MC_CHECK(w < opt.workers);
      initial |= std::uint64_t{1} << w;
    }
  }
  for (const std::size_t w : sched.joiners) {
    MC_CHECK(w < opt.workers && ((initial >> w) & 1) == 0);
  }

  dsm::Config cfg;
  cfg.num_procs = opt.workers + 1;
  cfg.num_vars = lay.num_vars();
  cfg.latency = opt.latency;
  cfg.seed = opt.seed;
  cfg.record_trace = opt.record_trace;
  cfg.faults = opt.faults;
  cfg.reliable = opt.reliable;
  cfg.reliability = opt.reliability;
  cfg.batching = opt.batching;
  cfg.directory = opt.directory;
  cfg.profile = opt.profile;
  cfg.elastic = true;
  std::vector<ProcId> members{0};
  for (std::size_t w = 0; w < opt.workers; ++w) {
    if ((initial >> w) & 1) members.push_back(static_cast<ProcId>(w + 1));
  }
  cfg.initial_members = std::move(members);
  dsm::MixedSystem dsm_sys(cfg);

  SolverResult out;
  Stopwatch clock;
  run_app(dsm_sys, opt, out, [&](dsm::Node& node, ProcId p) {
    if (p == 0) {
      // Coordinator: convergence check, then publish the next sweep's plan
      // before the compute barrier — workers pick it up after the install
      // barrier, one sweep ahead of using it.
      std::vector<double> xs(sys.n);
      std::vector<std::int64_t> ready_from(opt.workers, 0);
      std::size_t sweep = 0;
      for (;;) {
        for (const std::size_t w : sched.joiners) {
          if (ready_from[w] == 0) ready_from[w] = node.read_int(lay.ready(w), ReadMode::kPram);
        }
        for (std::size_t i = 0; i < sys.n; ++i) {
          xs[i] = node.read_double(lay.x(i), ReadMode::kPram);
        }
        const double resid = residual_inf(sys, xs);
        const bool stop = resid < opt.tol || sweep >= opt.max_iters;
        // `done` names the final sweep (+1) so a late joiner knows which
        // barrier instances it still owes (see the joiner below).
        if (stop) node.write_int(lay.done(), static_cast<std::int64_t>(sweep) + 1);
        const dsm::View view = node.view();
        std::uint64_t plan = 0;
        const auto next = static_cast<std::int64_t>(sweep) + 1;
        for (std::size_t w = 0; w < opt.workers; ++w) {
          const bool scripted = ((initial >> w) & 1) != 0 ||
                                (ready_from[w] > 0 && next >= ready_from[w]);
          const auto lv = sched.leave_after.find(w);
          const bool left = lv != sched.leave_after.end() && sweep + 1 > lv->second;
          if (scripted && !left && view.is_alive(static_cast<ProcId>(w + 1))) {
            plan |= std::uint64_t{1} << w;
          }
        }
        node.write_int(lay.plan((sweep + 1) % 2), static_cast<std::int64_t>(plan));
        node.barrier();
        node.barrier();
        if (stop) {
          out.x = xs;
          out.iterations = sweep;
          out.converged = resid < opt.tol;
          break;
        }
        ++sweep;
      }
      return;
    }

    const std::size_t w = p - 1;
    std::uint64_t plan = initial;
    std::size_t sweep = 0;
    if (((initial >> w) & 1) == 0) {
      // Joiner: enter the view, align with the two-barriers-per-sweep
      // structure already in flight, and announce the first sweep it can
      // compute: the one after the sweep it enters passively.  The
      // coordinator may still be a sweep behind that alignment — another
      // joiner consuming its pending install barrier opens instance 2k+1
      // before the coordinator has planned sweep k+1 — so a bare "ready"
      // would let it plan this worker into its passive sweep and leave
      // those rows uncomputed.  The plan itself is always read at the sweep
      // boundary, so there is no sweep where this worker is planned
      // without knowing it.
      // A joiner that already sees `done` may still have been counted into
      // the final sweep's two barrier instances (2k and 2k+1 for final
      // sweep k); leaving without arriving there would strand everyone.
      const auto finished = [&] {
        const std::int64_t done = node.read_int(lay.done(), ReadMode::kPram);
        if (done == 0) return false;
        const auto last_instance = 2 * static_cast<std::uint64_t>(done - 1) + 1;
        while (node.next_barrier_epoch() <= last_instance) node.barrier();
        return true;
      };
      node.join();
      if (finished()) return;
      if (node.next_barrier_epoch() % 2 == 1) {
        node.barrier();  // consume the pending install-phase barrier
        if (finished()) return;
      }
      plan = 0;  // passive until the coordinator plans us in
      // Recover the global sweep number from the barrier instance: sweep k
      // uses instances 2k (compute) and 2k+1 (install), so after the
      // alignment the next pending instance is sweep*2.
      sweep = node.next_barrier_epoch() / 2;
      node.write_int(lay.ready(w), static_cast<std::int64_t>(sweep) + 1);
    }
    std::vector<double> temp(sys.n, 0.0);
    for (;;) {
      const auto [r0, r1] = lay.rows_under(plan, w);
      jacobi_rows(sys, r0, r1,
                  [&](std::size_t j) { return node.read_double(lay.x(j), ReadMode::kPram); },
                  temp);
      node.barrier();
      const bool stop = node.read_int(lay.done(), ReadMode::kPram) != 0;
      if (!stop) {
        for (std::size_t i = r0; i < r1; ++i) node.write_double(lay.x(i), temp[i]);
      }
      node.barrier();
      if (stop) break;
      const auto lv = sched.leave_after.find(w);
      if (lv != sched.leave_after.end() && sweep == lv->second) {
        node.leave();
        return;
      }
      const auto cr = sched.crash_after.find(w);
      if (cr != sched.crash_after.end() && sweep == cr->second) {
        // Crash-stop: silence the endpoint at the fabric, trip the plan
        // with one dropped write, and fall off the thread.  Survivors only
        // learn of this through keepalive probes giving up.
        net::FaultPlan crash = opt.faults.value_or(net::FaultPlan{});
        crash.crash_after_sends[static_cast<net::Endpoint>(p)] = 0;
        dsm_sys.fabric().inject_faults(crash);
        node.write_int(lay.ready(w), -1);
        return;
      }
      plan = static_cast<std::uint64_t>(
          node.read_int(lay.plan((sweep + 1) % 2), ReadMode::kPram));
      ++sweep;
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = dsm_sys.metrics();
  if (opt.profile.has_value()) out.profile = dsm_sys.profile();
  return out;
}

SolverResult solve_barrier_pram(const LinearSystem& sys, const SolverOptions& opt) {
  return run_barrier(sys, opt, ReadMode::kPram, opt.record_trace).result;
}

SolverResult solve_handshake_causal(const LinearSystem& sys, const SolverOptions& opt) {
  return run_handshake(sys, opt, opt.record_trace).result;
}

SolverRun solve_barrier_traced(const LinearSystem& sys, const SolverOptions& opt,
                               ReadMode mode) {
  return run_barrier(sys, opt, mode, true);
}

SolverRun solve_handshake_traced(const LinearSystem& sys, const SolverOptions& opt) {
  return run_handshake(sys, opt, true);
}

SolverResult solve_async_gauss_seidel(const LinearSystem& sys, const SolverOptions& opt) {
  MC_CHECK(opt.workers >= 1);
  const Layout lay{sys.n, opt.workers};
  dsm::MixedSystem dsm_sys(make_config(sys, opt, /*trace=*/false));

  SolverResult out;
  Stopwatch clock;
  run_app(dsm_sys, opt, out, [&](dsm::Node& node, ProcId p) {
    if (p == 0) {
      // Coordinator: poll the estimate until the residual is small.  No
      // synchronization with the workers at all — the only exit channel is
      // the `done` flag, which workers poll through PRAM reads.  It gives
      // up only once the slowest worker has published max_iters rounds, so
      // a preempted worker is waited for rather than outpolled.
      std::vector<double> xs(sys.n);
      for (;;) {
        std::int64_t slowest = std::numeric_limits<std::int64_t>::max();
        for (std::size_t w = 0; w < opt.workers; ++w) {
          slowest = std::min(slowest, node.read_int(lay.computed(w), ReadMode::kPram));
        }
        for (std::size_t i = 0; i < sys.n; ++i) {
          xs[i] = node.read_double(lay.x(i), ReadMode::kPram);
        }
        const double resid = residual_inf(sys, xs);
        if (resid < opt.tol || slowest >= static_cast<std::int64_t>(opt.max_iters)) {
          node.write_int(lay.done(), 1);
          out.x = xs;
          out.iterations = static_cast<std::size_t>(slowest);
          out.converged = resid < opt.tol;
          break;
        }
        std::this_thread::yield();
      }
    } else {
      // Worker: chaotic Gauss-Seidel relaxation — install each component
      // immediately and keep sweeping with whatever has arrived, never
      // waiting for anyone.  A sweep completes a *round* once every other
      // worker has published at least this worker's round count, so the
      // published count measures information exchanged rather than raw
      // sweeps: a worker racing through sweeps on a stale view (its peers
      // descheduled) does not run down the coordinator's budget.
      const auto [r0, r1] = lay.rows(p - 1);
      std::int64_t rounds = 0;
      while (node.read_int(lay.done(), ReadMode::kPram) == 0) {
        for (std::size_t i = r0; i < r1; ++i) {
          double sum = 0.0;
          for (std::size_t j = 0; j < sys.n; ++j) {
            sum += sys.at(i, j) * node.read_double(lay.x(j), ReadMode::kPram);
          }
          const double xi = node.read_double(lay.x(i), ReadMode::kPram) +
                            (sys.b[i] - sum) / sys.at(i, i);
          node.write_double(lay.x(i), xi);
        }
        bool peers_caught_up = true;
        for (std::size_t w = 0; w < opt.workers && peers_caught_up; ++w) {
          peers_caught_up =
              w == p - 1 || node.read_int(lay.computed(w), ReadMode::kPram) >= rounds;
        }
        if (peers_caught_up) node.write_int(lay.computed(p - 1), ++rounds);
      }
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = dsm_sys.metrics();
  if (opt.profile.has_value()) out.profile = dsm_sys.profile();
  return out;
}

SolverResult solve_sc_baseline(const LinearSystem& sys, const SolverOptions& opt) {
  MC_CHECK(opt.workers >= 1);
  const Layout lay{sys.n, opt.workers};
  baseline::ScConfig cfg;
  cfg.num_procs = opt.workers + 1;
  cfg.num_vars = lay.num_vars();
  cfg.latency = opt.latency;
  cfg.seed = opt.seed;
  baseline::ScSystem sc(cfg);

  SolverResult out;
  Stopwatch clock;
  sc.run([&](baseline::ScNode& node, ProcId p) {
    if (p == 0) {
      std::vector<double> xs(sys.n);
      std::size_t sweeps = 0;
      for (;;) {
        for (std::size_t i = 0; i < sys.n; ++i) xs[i] = node.read_double(lay.x(i));
        const double resid = residual_inf(sys, xs);
        const bool stop = resid < opt.tol || sweeps >= opt.max_iters;
        if (stop) node.write_int(lay.done(), 1);
        node.barrier();
        node.barrier();
        if (stop) {
          out.x = xs;
          out.iterations = sweeps;
          out.converged = resid < opt.tol;
          break;
        }
        ++sweeps;
      }
    } else {
      const auto [r0, r1] = lay.rows(p - 1);
      std::vector<double> temp(sys.n, 0.0);
      for (;;) {
        jacobi_rows(sys, r0, r1, [&](std::size_t j) { return node.read_double(lay.x(j)); },
                    temp);
        node.barrier();
        const bool stop = node.read_int(lay.done()) != 0;
        if (!stop) {
          for (std::size_t i = r0; i < r1; ++i) node.write_double(lay.x(i), temp[i]);
        }
        node.barrier();
        if (stop) break;
      }
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = sc.metrics();
  return out;
}

}  // namespace mc::apps
