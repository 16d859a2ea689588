#include "apps/em_field.h"

#include <cmath>
#include <numbers>

#include "common/check.h"
#include "dsm/system.h"

namespace mc::apps {

namespace {

struct Strip {
  std::size_t begin;
  std::size_t end;
};

Strip strip_of(std::size_t m, std::size_t procs, std::size_t p) {
  return {p * m / procs, (p + 1) * m / procs};
}

/// E-phase arithmetic for nodes [s.begin, s.end): E[i] += cE*(H[i]-H[i-1]).
/// `h(i)` must provide H for i in [s.begin-1, s.end).
template <typename ReadH>
void update_e(const EmProblem& prob, const Strip& s, std::vector<double>& e, ReadH&& h) {
  for (std::size_t i = std::max<std::size_t>(s.begin, 1); i < s.end; ++i) {
    e[i] += prob.c_e * (h(i) - h(i - 1));
  }
}

/// H-phase arithmetic: H[i] += cH*(E[i+1]-E[i]) for i < m-1.
template <typename ReadE>
void update_h(const EmProblem& prob, const Strip& s, std::size_t m, std::vector<double>& h,
              ReadE&& e) {
  for (std::size_t i = s.begin; i < std::min(s.end, m - 1); ++i) {
    h[i] += prob.c_h * (e(i + 1) - e(i));
  }
}

}  // namespace

std::vector<double> EmProblem::initial_e() const {
  std::vector<double> e(m, 0.0);
  const double center = static_cast<double>(m) / 2.0;
  const double width = static_cast<double>(m) / 8.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double d = (static_cast<double>(i) - center) / width;
    if (std::abs(d) < 1.0) e[i] = 0.5 * (1.0 + std::cos(std::numbers::pi * d));
  }
  return e;
}

EmResult em_reference(const EmProblem& prob) {
  EmResult out;
  Stopwatch clock;
  out.e = prob.initial_e();
  out.h.assign(prob.m, 0.0);
  const Strip whole{0, prob.m};
  for (std::size_t step = 0; step < prob.steps; ++step) {
    std::vector<double> h_prev = out.h;
    update_e(prob, whole, out.e, [&](std::size_t i) { return h_prev[i]; });
    std::vector<double> e_prev = out.e;
    update_h(prob, whole, prob.m, out.h, [&](std::size_t i) { return e_prev[i]; });
  }
  out.elapsed_ms = clock.elapsed_ms();
  return out;
}

EmResult em_mixed(const EmProblem& prob, std::size_t procs, ReadMode mode,
                  EmSharing sharing, net::LatencyModel latency, std::uint64_t seed,
                  bool pattern_optimized, const std::optional<net::FaultPlan>& faults,
                  bool reliable, const dsm::BatchingConfig& batching,
                  const std::optional<dsm::DirectoryConfig>& directory) {
  MC_CHECK(procs >= 1 && procs <= prob.m);
  MC_CHECK_MSG(!pattern_optimized ||
                   (sharing == EmSharing::kGhost && mode == ReadMode::kPram),
               "pattern optimization requires ghost sharing and PRAM reads");
  MC_CHECK_MSG(!(pattern_optimized && directory.has_value()),
               "the directory supersedes static subscriber lists; "
               "pick one sharing optimization");
  dsm::Config cfg;
  cfg.num_procs = procs;
  cfg.latency = latency;
  cfg.seed = seed;
  cfg.faults = faults;
  cfg.reliable = reliable;
  cfg.batching = batching;
  cfg.directory = directory;

  EmResult out;
  out.e.assign(prob.m, 0.0);
  out.h.assign(prob.m, 0.0);

  if (sharing == EmSharing::kFullGrid) {
    // Every node lives in DSM: E at [0,m), H at [m,2m).
    cfg.num_vars = 2 * prob.m;
    dsm::MixedSystem sys(cfg);
    const auto ev = [](std::size_t i) { return static_cast<VarId>(i); };
    const auto hv = [&](std::size_t i) { return static_cast<VarId>(prob.m + i); };

    Stopwatch clock;
    sys.run([&](dsm::Node& n, ProcId p) {
      const Strip s = strip_of(prob.m, procs, p);
      // Initialize own strip, then rendezvous so phase 0 sees a complete
      // initial field.
      const std::vector<double> e0 = prob.initial_e();
      for (std::size_t i = s.begin; i < s.end; ++i) n.write_double(ev(i), e0[i]);
      n.barrier();

      std::vector<double> e(prob.m, 0.0);
      std::vector<double> h(prob.m, 0.0);
      for (std::size_t i = s.begin; i < s.end; ++i) e[i] = e0[i];

      for (std::size_t step = 0; step < prob.steps; ++step) {
        update_e(prob, s, e, [&](std::size_t i) { return n.read_double(hv(i), mode); });
        for (std::size_t i = s.begin; i < s.end; ++i) n.write_double(ev(i), e[i]);
        n.barrier();
        update_h(prob, s, prob.m, h,
                 [&](std::size_t i) { return n.read_double(ev(i), mode); });
        for (std::size_t i = s.begin; i < s.end; ++i) n.write_double(hv(i), h[i]);
        n.barrier();
      }
    });
    out.elapsed_ms = clock.elapsed_ms();

    for (std::size_t i = 0; i < prob.m; ++i) {
      out.e[i] = sys.node(0).read_double(ev(i), ReadMode::kPram);
      out.h[i] = sys.node(0).read_double(hv(i), ReadMode::kPram);
    }
    out.metrics = sys.metrics();
    return out;
  }

  // Ghost-copy sharing: only strip-adjoining nodes cross process
  // boundaries.  Process p publishes its first E node (read by p-1's
  // H phase) and its last H node (read by p+1's E phase).
  cfg.num_vars = 2 * procs;
  const auto first_e = [](ProcId p) { return static_cast<VarId>(p); };
  const auto last_h = [&](ProcId p) { return static_cast<VarId>(procs + p); };
  if (pattern_optimized) {
    // Section 6: elide timestamps (the program is PRAM-consistent) and
    // multicast each boundary value only to the neighbour that reads it.
    auto& subscribers = cfg.count_vectors.emplace().subscribers;
    for (ProcId p = 0; p < procs; ++p) {
      // Edge strips publish values nobody reads: empty subscriber lists
      // suppress those messages entirely.
      subscribers[first_e(p)] =
          p > 0 ? std::vector<ProcId>{static_cast<ProcId>(p - 1)} : std::vector<ProcId>{};
      subscribers[last_h(p)] = p + 1 < procs ? std::vector<ProcId>{static_cast<ProcId>(p + 1)}
                                             : std::vector<ProcId>{};
    }
  }
  dsm::MixedSystem sys(cfg);

  Stopwatch clock;
  sys.run([&](dsm::Node& n, ProcId p) {
    const Strip s = strip_of(prob.m, procs, p);
    const std::vector<double> e0 = prob.initial_e();
    std::vector<double> e(prob.m, 0.0);
    std::vector<double> h(prob.m, 0.0);
    for (std::size_t i = s.begin; i < s.end; ++i) e[i] = e0[i];
    n.write_double(first_e(p), e[s.begin]);
    n.write_double(last_h(p), 0.0);
    n.barrier();

    for (std::size_t step = 0; step < prob.steps; ++step) {
      if (p > 0) h[s.begin - 1] = n.read_double(last_h(p - 1), mode);
      update_e(prob, s, e, [&](std::size_t i) { return h[i]; });
      n.write_double(first_e(p), e[s.begin]);
      n.barrier();
      if (p + 1 < procs) e[s.end] = n.read_double(first_e(p + 1), mode);
      update_h(prob, s, prob.m, h, [&](std::size_t i) { return e[i]; });
      n.write_double(last_h(p), h[s.end - 1]);
      n.barrier();
    }

    for (std::size_t i = s.begin; i < s.end; ++i) {
      out.e[i] = e[i];
      out.h[i] = h[i];
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = sys.metrics();
  return out;
}

EmResult em_sc(const EmProblem& prob, std::size_t procs, net::LatencyModel latency,
               std::uint64_t seed) {
  MC_CHECK(procs >= 1 && procs <= prob.m);
  baseline::ScConfig cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 2 * procs;
  cfg.latency = latency;
  cfg.seed = seed;
  baseline::ScSystem sys(cfg);
  const auto first_e = [](ProcId p) { return static_cast<VarId>(p); };
  const auto last_h = [&](ProcId p) { return static_cast<VarId>(procs + p); };

  EmResult out;
  out.e.assign(prob.m, 0.0);
  out.h.assign(prob.m, 0.0);

  Stopwatch clock;
  sys.run([&](baseline::ScNode& n, ProcId p) {
    const Strip s = strip_of(prob.m, procs, p);
    const std::vector<double> e0 = prob.initial_e();
    std::vector<double> e(prob.m, 0.0);
    std::vector<double> h(prob.m, 0.0);
    for (std::size_t i = s.begin; i < s.end; ++i) e[i] = e0[i];
    n.write_double(first_e(p), e[s.begin]);
    n.write_double(last_h(p), 0.0);
    n.barrier();

    for (std::size_t step = 0; step < prob.steps; ++step) {
      if (p > 0) h[s.begin - 1] = n.read_double(last_h(p - 1));
      update_e(prob, s, e, [&](std::size_t i) { return h[i]; });
      n.write_double(first_e(p), e[s.begin]);
      n.barrier();
      if (p + 1 < procs) e[s.end] = n.read_double(first_e(p + 1));
      update_h(prob, s, prob.m, h, [&](std::size_t i) { return e[i]; });
      n.write_double(last_h(p), h[s.end - 1]);
      n.barrier();
    }

    for (std::size_t i = s.begin; i < s.end; ++i) {
      out.e[i] = e[i];
      out.h[i] = h[i];
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = sys.metrics();
  return out;
}

}  // namespace mc::apps
