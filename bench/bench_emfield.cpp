// Experiment F4: the Section 5.2 electromagnetic-field computation
// (Figure 4) — barriers between E/H phases, PRAM reads — plus the §5.2
// ghost-copy ablation and the SC baseline.
//
// Expected shape: full-grid DSM sharing costs orders of magnitude more
// update traffic than ghost-boundary sharing (the optimization the paper
// says PRAM makes the system's job rather than the programmer's); SC adds
// sequencer round trips on every published value.

#include <cstdio>
#include <string>

#include "apps/em_field.h"
#include "apps/em_field2d.h"
#include "bench_util.h"

using namespace mc;
using namespace mc::apps;
using namespace mc::bench;

namespace {

void run_case(Harness& h, std::size_t m, std::size_t procs) {
  EmProblem prob;
  prob.m = m;
  prob.steps = 12;
  const auto lat = net::LatencyModel::fast();
  const auto ref = em_reference(prob);

  struct Row {
    const char* name;
    EmResult r;
  };
  const Row rows[] = {
      {"full-grid-pram", em_mixed(prob, procs, ReadMode::kPram, EmSharing::kFullGrid, lat)},
      {"full-grid-causal", em_mixed(prob, procs, ReadMode::kCausal, EmSharing::kFullGrid, lat)},
      {"ghost-pram", em_mixed(prob, procs, ReadMode::kPram, EmSharing::kGhost, lat)},
      {"ghost-pram-optimized", em_mixed(prob, procs, ReadMode::kPram, EmSharing::kGhost,
                                        lat, 1, /*pattern_optimized=*/true)},
      {"sc-ghost", em_sc(prob, procs, lat)},
  };
  for (const Row& row : rows) {
    const bool exact = row.r.e == ref.e && row.r.h == ref.h;
    std::printf("%-18s grid=%-4zu procs=%zu time=%8.2fms msgs=%-8llu bytes=%-10llu "
                "exact=%s\n",
                row.name, m, procs, row.r.elapsed_ms, msgs(row.r.metrics),
                bytes(row.r.metrics), exact ? "yes" : "NO");
    auto& out = h.add_row(row.name);
    out.params["grid"] = std::to_string(m);
    out.params["procs"] = std::to_string(procs);
    out.params["steps"] = std::to_string(prob.steps);
    out.params["exact"] = exact ? "yes" : "no";
    out.wall_ms = row.r.elapsed_ms;
    out.metrics = row.r.metrics;
  }
}

}  // namespace

namespace {

void run_case_2d(Harness& h, std::size_t nx, std::size_t ny, std::size_t procs) {
  Em2dProblem prob;
  prob.nx = nx;
  prob.ny = ny;
  prob.steps = 10;
  const auto ref = em2d_reference(prob);
  const auto par = em2d_mixed(
      prob, procs, ReadMode::kPram, net::LatencyModel::fast(), 1, std::nullopt,
      false, {.max_updates = 1}, std::nullopt,
      h.profiling() ? std::optional(h.profile_options()) : std::nullopt);
  const bool exact = par.ez == ref.ez && par.hx == ref.hx && par.hy == ref.hy;
  std::printf("2d-yee-pram        grid=%zux%-3zu procs=%zu time=%8.2fms msgs=%-8llu "
              "bytes=%-10llu exact=%s\n",
              nx, ny, procs, par.elapsed_ms, msgs(par.metrics), bytes(par.metrics),
              exact ? "yes" : "NO");
  auto& out = h.add_row("2d-yee-pram");
  out.params["grid"] = std::to_string(nx) + "x" + std::to_string(ny);
  out.params["procs"] = std::to_string(procs);
  out.params["steps"] = std::to_string(prob.steps);
  out.params["exact"] = exact ? "yes" : "no";
  out.wall_ms = par.elapsed_ms;
  out.metrics = par.metrics;
  if (h.profiling() && !par.profile.empty()) Harness::set_profile(out, par.profile);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_emfield", argc, argv);
  h.config("latency", "fast");

  print_header("F4 — electromagnetic field computation (Section 5.2, Figure 4)",
               "alternating E/H phases with barriers; PRAM reads suffice "
               "(Corollary 2); ghost sharing slashes update traffic");
  const std::vector<std::size_t> sizes =
      h.smoke() ? std::vector<std::size_t>{32} : std::vector<std::size_t>{64, 128};
  const std::vector<std::size_t> proc_counts =
      h.smoke() ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  for (const std::size_t m : sizes) {
    for (const std::size_t procs : proc_counts) {
      run_case(h, m, procs);
    }
    std::printf("\n");
  }

  print_header("F4b — 2-D TE-mode Yee grid (Madsen-style spatial fields)",
               "row strips, ghost boundary rows over DSM, PRAM reads");
  for (const std::size_t procs : proc_counts) {
    run_case_2d(h, h.smoke() ? 24 : 48, h.smoke() ? 16 : 48, procs);
    if (!h.smoke()) run_case_2d(h, 96, 64, procs);
  }
  return 0;
}
