#include "apps/em_field2d.h"

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

Strip strip_of(std::size_t nx, std::size_t procs, std::size_t p) {
  return {p * nx / procs, (p + 1) * nx / procs};
}

/// E phase over rows [s.begin, s.end).  `hy` must cover rows
/// [s.begin - 1, s.end); `hx` rows [s.begin, s.end).  In-place: Ez reads
/// only H fields.
void update_ez(const Em2dProblem& prob, const Strip& s, std::vector<double>& ez,
               const std::vector<double>& hx, const std::vector<double>& hy) {
  const std::size_t ny = prob.ny;
  for (std::size_t i = std::max<std::size_t>(s.begin, 1); i < s.end; ++i) {
    for (std::size_t j = 1; j < ny; ++j) {
      ez[i * ny + j] += prob.c_e * (hy[i * ny + j] - hy[(i - 1) * ny + j] -
                                    hx[i * ny + j] + hx[i * ny + j - 1]);
    }
  }
}

/// H phase over rows [s.begin, s.end).  `ez` must cover rows
/// [s.begin, s.end] (one ghost row below for Hy).
void update_h(const Em2dProblem& prob, const Strip& s, std::size_t nx,
              std::vector<double>& hx, std::vector<double>& hy,
              const std::vector<double>& ez) {
  const std::size_t ny = prob.ny;
  for (std::size_t i = s.begin; i < s.end; ++i) {
    for (std::size_t j = 0; j + 1 < ny; ++j) {
      hx[i * ny + j] -= prob.c_h * (ez[i * ny + j + 1] - ez[i * ny + j]);
    }
  }
  for (std::size_t i = s.begin; i < std::min(s.end, nx - 1); ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      hy[i * ny + j] += prob.c_h * (ez[(i + 1) * ny + j] - ez[i * ny + j]);
    }
  }
}

}  // namespace

std::vector<double> Em2dProblem::initial_ez() const {
  std::vector<double> ez(nx * ny, 0.0);
  const double cx = static_cast<double>(nx) / 2.0;
  const double cy = static_cast<double>(ny) / 2.0;
  const double w = static_cast<double>(std::min(nx, ny)) / 6.0;
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      const double dx = (static_cast<double>(i) - cx) / w;
      const double dy = (static_cast<double>(j) - cy) / w;
      const double d = std::sqrt(dx * dx + dy * dy);
      if (d < 1.0) ez[i * ny + j] = 0.5 * (1.0 + std::cos(std::numbers::pi * d));
    }
  }
  return ez;
}

Em2dResult em2d_reference(const Em2dProblem& prob) {
  Em2dResult out;
  Stopwatch clock;
  out.ez = prob.initial_ez();
  out.hx.assign(prob.nx * prob.ny, 0.0);
  out.hy.assign(prob.nx * prob.ny, 0.0);
  const Strip whole{0, prob.nx};
  for (std::size_t step = 0; step < prob.steps; ++step) {
    update_ez(prob, whole, out.ez, out.hx, out.hy);
    update_h(prob, whole, prob.nx, out.hx, out.hy, out.ez);
  }
  out.elapsed_ms = clock.elapsed_ms();
  return out;
}

Em2dResult em2d_mixed(const Em2dProblem& prob, std::size_t procs, ReadMode mode,
                      net::LatencyModel latency, std::uint64_t seed,
                      const std::optional<net::FaultPlan>& faults, bool reliable,
                      const dsm::BatchingConfig& batching,
                      const std::optional<dsm::DirectoryConfig>& directory,
                      const std::optional<obs::ProfilerOptions>& profile) {
  MC_CHECK(procs >= 1 && procs <= prob.nx);
  const std::size_t ny = prob.ny;

  dsm::Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 2 * procs * ny;  // per proc: first Ez row + last Hy row
  cfg.latency = latency;
  cfg.seed = seed;
  cfg.faults = faults;
  cfg.reliable = reliable;
  cfg.batching = batching;
  cfg.directory = directory;
  cfg.profile = profile;
  dsm::MixedSystem sys(cfg);
  const auto first_ez = [&](ProcId p, std::size_t j) {
    return static_cast<VarId>(p * ny + j);
  };
  const auto last_hy = [&](ProcId p, std::size_t j) {
    return static_cast<VarId>(procs * ny + p * ny + j);
  };

  Em2dResult out;
  out.ez.assign(prob.nx * ny, 0.0);
  out.hx.assign(prob.nx * ny, 0.0);
  out.hy.assign(prob.nx * ny, 0.0);

  Stopwatch clock;
  sys.run([&](dsm::Node& n, ProcId p) {
    const Strip s = strip_of(prob.nx, procs, p);
    const std::vector<double> ez0 = prob.initial_ez();
    // Local state covers the full grid but only the strip (plus ghost rows
    // s.begin-1 for Hy and s.end for Ez) is ever touched.
    std::vector<double> ez(prob.nx * ny, 0.0);
    std::vector<double> hx(prob.nx * ny, 0.0);
    std::vector<double> hy(prob.nx * ny, 0.0);
    for (std::size_t i = s.begin; i < s.end; ++i) {
      for (std::size_t j = 0; j < ny; ++j) ez[i * ny + j] = ez0[i * ny + j];
    }
    for (std::size_t j = 0; j < ny; ++j) {
      n.write_double(first_ez(p, j), ez[s.begin * ny + j]);
      n.write_double(last_hy(p, j), 0.0);
    }
    n.barrier();

    for (std::size_t step = 0; step < prob.steps; ++step) {
      if (p > 0) {
        for (std::size_t j = 0; j < ny; ++j) {
          hy[(s.begin - 1) * ny + j] = n.read_double(last_hy(p - 1, j), mode);
        }
      }
      update_ez(prob, s, ez, hx, hy);
      for (std::size_t j = 0; j < ny; ++j) {
        n.write_double(first_ez(p, j), ez[s.begin * ny + j]);
      }
      n.barrier();

      if (p + 1 < procs) {
        for (std::size_t j = 0; j < ny; ++j) {
          ez[s.end * ny + j] = n.read_double(first_ez(p + 1, j), mode);
        }
      }
      update_h(prob, s, prob.nx, hx, hy, ez);
      for (std::size_t j = 0; j < ny; ++j) {
        n.write_double(last_hy(p, j), hy[(s.end - 1) * ny + j]);
      }
      n.barrier();
    }

    for (std::size_t i = s.begin; i < s.end; ++i) {
      for (std::size_t j = 0; j < ny; ++j) {
        out.ez[i * ny + j] = ez[i * ny + j];
        out.hx[i * ny + j] = hx[i * ny + j];
        out.hy[i * ny + j] = hy[i * ny + j];
      }
    }
  });
  out.elapsed_ms = clock.elapsed_ms();
  out.metrics = sys.metrics();
  if (profile.has_value()) out.profile = sys.profile();
  return out;
}

}  // namespace mc::apps
