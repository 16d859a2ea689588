#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "apps/cholesky.h"
#include "apps/equation_solver.h"
#include "apps/matrix.h"
#include "apps/sparse.h"
#include "common/rng.h"
#include "dsm/system.h"
#include "history/incremental_checker.h"
#include "history/text_format.h"
#include "obs/tracer.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mc::MetricsSnapshot;
using mc::ProcId;
using mc::Value;
using mc::VarId;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

void fail(JobResult& job, std::string why) {
  if (!job.ok) return;
  job.ok = false;
  job.failure = std::move(why);
}

/// ops / wire cost of a DSM job, from its metrics snapshot.
void count_dsm_costs(JobResult& job) {
  const MetricsSnapshot& m = job.metrics;
  job.ops = m.get("dsm.reads_pram") + m.get("dsm.reads_causal") + m.get("dsm.writes") +
            m.get("dsm.deltas");
  job.wire_msgs = m.get("net.messages");
  job.wire_bytes = m.get("net.bytes");
}

// ----- solver-batched: Figure 2 (barriers + PRAM reads), batched, reliable -----

class SolverBatched final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    sys_ = mc::apps::LinearSystem::random(kN, seed);
    ref_ = mc::apps::jacobi_reference(sys_, kTol, kMaxIters);
    if (!ref_.converged) {
      throw std::runtime_error("solver-batched: the reference did not converge");
    }
    opt_ = mc::apps::SolverOptions{};
    opt_.workers = kProcs - 1;  // plus the coordinator
    opt_.tol = kTol;
    opt_.max_iters = kMaxIters;
    opt_.seed = seed;
    opt_.reliable = true;
    opt_.batching = mc::dsm::BatchingConfig{};
    opt_.stall_timeout = std::chrono::seconds(10);
  }

  JobResult run_job() override {
    last_ = mc::apps::solve_barrier_pram(sys_, opt_);
    JobResult job;
    job.metrics = std::move(last_.metrics);
    count_dsm_costs(job);
    return job;
  }

  void check(JobResult& job) override {
    if (last_.stalled) return fail(job, "stalled: " + last_.stall_reason);
    if (!last_.converged) return fail(job, "did not converge");
    if (last_.iterations != ref_.iterations) {
      return fail(job, "took " + std::to_string(last_.iterations) +
                           " iterations, the reference " + std::to_string(ref_.iterations));
    }
    if (last_.x.size() != ref_.x.size() ||
        std::memcmp(last_.x.data(), ref_.x.data(), ref_.x.size() * sizeof(double)) != 0) {
      fail(job, "x differs bitwise from jacobi_reference");
    }
  }

  [[nodiscard]] int warmup_jobs() const override { return 20; }

 private:
  static constexpr std::size_t kN = 96;
  static constexpr double kTol = 1e-8;
  static constexpr std::size_t kMaxIters = 400;

  mc::apps::LinearSystem sys_;
  mc::apps::JacobiReference ref_;
  mc::apps::SolverOptions opt_;
  mc::apps::SolverResult last_;
};

// ----- cholesky-locks: Figure 5 (lazy write locks + causal reads + await) -----

class CholeskyLocks final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    m_ = matrix(seed);
    sym_ = mc::apps::analyze(m_);
    ref_ = mc::apps::cholesky_reference(m_, sym_);
    if (mc::apps::factorization_error(m_, ref_) > kTol) {
      throw std::runtime_error("cholesky-locks: the reference factor is inaccurate");
    }
    opt_ = mc::apps::CholeskyOptions{};
    opt_.procs = kProcs;
    opt_.seed = seed;
    opt_.lock_policy = mc::dsm::LockPolicy::kLazy;
    opt_.stall_timeout = std::chrono::seconds(30);
  }

  JobResult run_job() override {
    last_ = mc::apps::cholesky_locks(m_, sym_, opt_);
    JobResult job;
    job.metrics = std::move(last_.metrics);
    count_dsm_costs(job);
    return job;
  }

  void check(JobResult& job) override {
    if (last_.stalled) return fail(job, "stalled: " + last_.stall_reason);
    if (last_.l.size() != ref_.size()) return fail(job, "factor has the wrong shape");
    // Critical sections commit in schedule order, so the factor matches
    // the reference only to rounding, not bitwise.
    const double err = mc::apps::factorization_error(m_, last_.l);
    const double diff = mc::apps::max_abs_diff(last_.l, ref_);
    if (!(err <= kTol) || !(diff <= kTol)) {
      fail(job, "|LL^T - A| = " + std::to_string(err) + ", |L - L_ref| = " +
                    std::to_string(diff) + " (tolerance 1e-9)");
    }
  }

  [[nodiscard]] int warmup_jobs() const override { return 3; }

 private:
  // n = 64 keeps one traced factorization inside the tracer's per-thread
  // ring, so the critical path sees the whole job (NOTES.md).
  static constexpr std::size_t kN = 64;
  static constexpr std::size_t kBand = 3;
  static constexpr double kFill = 0.05;
  static constexpr std::uint64_t kPatternSeed = 9064;
  static constexpr double kTol = 1e-9;

  /// A job's message count follows the sparsity pattern, so the pattern is
  /// fixed and the seed draws only the values (diagonally dominant, hence
  /// positive definite, as in SparseSpd::random).
  static mc::apps::SparseSpd matrix(std::uint64_t seed) {
    mc::apps::SparseSpd m = mc::apps::SparseSpd::random(kN, kBand, kFill, kPatternSeed);
    mc::Rng rng(seed);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (m.a[i * kN + j] == 0.0) continue;
        const double v = rng.uniform(-1.0, 1.0);
        m.a[i * kN + j] = m.a[j * kN + i] = v != 0.0 ? v : 0.5;
      }
    }
    for (std::size_t i = 0; i < kN; ++i) {
      double off = 0.0;
      for (std::size_t j = 0; j < kN; ++j) {
        if (j != i) off += std::abs(m.a[i * kN + j]);
      }
      m.a[i * kN + i] = off + rng.uniform(1.0, 2.0);
    }
    return m;
  }

  mc::apps::SparseSpd m_;
  mc::apps::Symbolic sym_;
  std::vector<double> ref_;
  mc::apps::CholeskyOptions opt_;
  mc::apps::CholeskyResult last_;
};

// ----- directory-paging: striped keyspace, rotating neighbour window -----

class DirectoryPaging final : public Workload {
 public:
  /// The seed draws the values; the access shape (stripes, window,
  /// rotation) is fixed, because the fills and messages of a job follow it.
  void setup(std::uint64_t seed) override {
    salt_ = mc::Rng(seed).next() >> 24;
    seed_ = seed;
  }

  JobResult run_job() override {
    mc::dsm::Config cfg;
    cfg.num_procs = kProcs;
    cfg.num_vars = kProcs * kStripe;
    cfg.seed = seed_;
    cfg.batching = mc::dsm::BatchingConfig{};
    mc::dsm::DirectoryConfig dir;
    // The window moves to another neighbour every round, so a budget of
    // one window (plus slack) keeps evicting what the last round paged in.
    dir.replica_budget = kWindow + 2;
    dir.fetch_frame = kWindow;
    cfg.directory = dir;
    wrong_reads_.store(0, std::memory_order_relaxed);

    JobResult job;
    const auto t0 = Clock::now();
    auto sys = std::make_unique<mc::dsm::MixedSystem>(cfg);
    const auto t1 = Clock::now();
    const auto outcome = sys->run(
        [this](mc::dsm::Node& n, ProcId p) { body(n, p); }, std::chrono::seconds(10));
    const auto t2 = Clock::now();
    job.metrics = sys->metrics();
    const auto t3 = Clock::now();
    sys->shutdown();
    sys.reset();
    const auto t4 = Clock::now();
    job.spans_ns["construct"] = ns_between(t0, t1);
    job.spans_ns["run"] = ns_between(t1, t2);
    job.spans_ns["shutdown"] = ns_between(t3, t4);
    stalled_ = outcome.stalled;
    stall_reason_ = outcome.diagnostics.reason;
    count_dsm_costs(job);
    return job;
  }

  void check(JobResult& job) override {
    if (stalled_) return fail(job, "stalled: " + stall_reason_);
    const std::uint64_t wrong = wrong_reads_.load(std::memory_order_relaxed);
    if (wrong != 0) {
      fail(job, std::to_string(wrong) + " reads did not return their round's value");
    }
    if (job.metrics.get("dsm.reads_pram") != kProcs * kRounds * kWindow) {
      fail(job, "read count differs from the workload's shape");
    }
  }

  [[nodiscard]] int warmup_jobs() const override { return 10; }

 private:
  static constexpr std::size_t kStripe = 64;
  static constexpr std::size_t kWindow = 32;
  static constexpr std::size_t kRounds = 50;

  [[nodiscard]] Value expected(ProcId owner, std::size_t round, std::size_t i) const {
    return salt_ + (Value{round} << 16) + (Value{owner} << 8) + i;
  }

  /// One process: write the own stripe, then read a window of the
  /// neighbour stripe this round rotates to (never the own stripe).
  void body(mc::dsm::Node& n, ProcId p) {
    const auto base = static_cast<VarId>(p * kStripe);
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kStripe; ++i) {
        n.write(base + static_cast<VarId>(i), expected(p, r, i));
      }
      n.barrier();
      const auto nb = static_cast<ProcId>((p + 1 + r % (kProcs - 1)) % kProcs);
      for (std::size_t i = 0; i < kWindow; ++i) {
        const Value got = n.read(static_cast<VarId>(nb * kStripe + i), mc::ReadMode::kPram);
        if (got != expected(nb, r, i)) wrong_reads_.fetch_add(1, std::memory_order_relaxed);
      }
      n.barrier();
    }
  }

  std::uint64_t seed_ = 1;
  Value salt_ = 0;
  std::atomic<std::uint64_t> wrong_reads_{0};
  bool stalled_ = false;
  std::string stall_reason_;
};

// ----- check-stream: generated traces through the incremental checker -----

using mc::history::Operation;
using mc::history::OpKind;

/// A seeded trace over kProcs processes, fed in a causal linear extension.
/// Each barrier epoch has two phases:
///   - lock episodes: a process takes a write lock, reads the protected
///     counter causally (it returns the previous holder's write), bumps it,
///     and unlocks;
///   - shared traffic: each shared variable has one writer per epoch
///     (rotating with the epoch); everyone else reads, PRAM or causal at
///     random, the owner's final write of the previous epoch, which the
///     barrier made visible.
/// No shared variable is written before a lock episode of the same epoch,
/// so a lock handoff never makes a newer shared write causally visible to a
/// reader of the previous epoch's value: the trace is consistent by
/// construction.  With `inject`, one read in epoch 3 or later returns the
/// owner's write from two epochs back instead — stale under every model.
std::vector<Operation> generate_trace(std::uint64_t seed, std::size_t target_ops,
                                      bool inject) {
  constexpr std::size_t kShared = 8;
  constexpr std::size_t kLocks = 2;
  constexpr std::size_t kEpisodesPerEpoch = 4;
  constexpr std::size_t kRoundsPerEpoch = 48;
  constexpr VarId kLockVarBase = kShared;
  constexpr VarId kPrivateBase = kShared + kLocks;

  struct Written {
    mc::WriteId id;
    Value value = 0;
  };
  struct SharedVar {
    Written visible, stale, cur;
  };

  mc::Rng rng(seed);
  std::vector<Operation> ops;
  ops.reserve(target_ops + 1024);
  std::vector<mc::SeqNo> seq(kProcs, 0);
  std::vector<SharedVar> shared(kShared);
  std::vector<Written> lock_var(kLocks);
  std::vector<std::uint64_t> episode(kLocks, 0);
  bool injected = false;

  const auto write = [&](ProcId p, VarId x, Value v) {
    Operation op;
    op.kind = OpKind::kWrite;
    op.proc = p;
    op.var = x;
    op.value = v;
    op.write_id = mc::WriteId{p, ++seq[p]};
    ops.push_back(op);
    return Written{op.write_id, v};
  };
  const auto read = [&](ProcId p, VarId x, const Written& w, mc::ReadMode mode) {
    Operation op;
    op.kind = OpKind::kRead;
    op.proc = p;
    op.var = x;
    op.value = w.value;
    op.write_id = w.id;
    op.mode = mode;
    ops.push_back(op);
  };
  const auto lock_op = [&](OpKind kind, ProcId p, mc::LockId l) {
    Operation op;
    op.kind = kind;
    op.proc = p;
    op.lock = l;
    op.lock_episode = episode[l];
    ops.push_back(op);
  };

  for (std::uint32_t epoch = 0; ops.size() < target_ops; ++epoch) {
    for (std::size_t k = 0; k < kEpisodesPerEpoch; ++k) {
      const auto l = static_cast<mc::LockId>(rng.below(kLocks));
      const auto p = static_cast<ProcId>(rng.below(kProcs));
      ++episode[l];
      lock_op(OpKind::kWriteLock, p, l);
      read(p, kLockVarBase + l, lock_var[l], mc::ReadMode::kCausal);
      lock_var[l] = write(p, kLockVarBase + l, (Value{epoch} << 20) | (Value{l} << 16) | k);
      lock_op(OpKind::kWriteUnlock, p, l);
    }
    for (std::size_t round = 0; round < kRoundsPerEpoch; ++round) {
      for (ProcId p = 0; p < kProcs; ++p) {
        const auto x = static_cast<VarId>(rng.below(kShared));
        SharedVar& v = shared[x];
        if (p == (x + epoch) % kProcs) {
          v.cur = write(p, x, (Value{epoch} << 24) | (Value{x} << 16) | (Value{p} << 8) | round);
        } else if (v.visible.id.valid()) {
          const mc::ReadMode mode = rng.chance(0.5) ? mc::ReadMode::kPram : mc::ReadMode::kCausal;
          if (inject && !injected && epoch >= 3 && v.stale.id.valid()) {
            injected = true;
            read(p, x, v.stale, mode);
          } else {
            read(p, x, v.visible, mode);
          }
        } else {
          // Nothing readable yet (first epochs): write the private location.
          write(p, kPrivateBase + p, (Value{epoch} << 8) | round);
        }
      }
    }
    for (ProcId p = 0; p < kProcs; ++p) {
      Operation b;
      b.kind = OpKind::kBarrier;
      b.proc = p;
      b.barrier = 0;
      b.barrier_epoch = epoch;
      ops.push_back(b);
    }
    for (SharedVar& v : shared) {
      if (!v.cur.id.valid()) continue;
      v.stale = v.visible;
      v.visible = v.cur;
      v.cur = Written{};
    }
  }
  if (inject && !injected) throw std::runtime_error("check-stream: trace too short to inject");
  return ops;
}

std::uint64_t text_bytes(const std::vector<Operation>& ops) {
  mc::history::History h(kProcs);
  for (const Operation& op : ops) h.add(op);
  return mc::history::format_history(h).size();
}

/// Resident program-order, reads-from and synchronization edges.
std::uint64_t generating_edges(const mc::history::IncrementalChecker& chk) {
  using mc::history::EdgeType;
  std::uint64_t n = 0;
  for (const EdgeType t : {EdgeType::kProgram, EdgeType::kReadsFrom, EdgeType::kLock,
                           EdgeType::kBarrier, EdgeType::kAwait}) {
    n += chk.graph().edge_count(t);
  }
  return n;
}

class CheckStream final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    clean_ = generate_trace(seed, kTraceOps, false);
    stale_ = generate_trace(seed, kTraceOps, true);
    text_bytes_ = text_bytes(clean_) + text_bytes(stale_);
  }

  JobResult run_job() override {
    JobResult job;
    clean_verdict_ = check_trace(clean_, job);
    stale_verdict_ = check_trace(stale_, job);
    job.ops = clean_.size() + stale_.size();
    job.wire_bytes = text_bytes_;
    return job;
  }

  void check(JobResult& job) override {
    if (!clean_verdict_.ok()) {
      return fail(job, "clean trace rejected: " +
                           (clean_verdict_.well_formed ? clean_verdict_.mixed.message()
                                                       : clean_verdict_.error));
    }
    if (!stale_verdict_.well_formed) {
      return fail(job, "stale-read trace malformed: " + stale_verdict_.error);
    }
    if (stale_verdict_.mixed.ok) fail(job, "the injected stale read was not reported");
  }

  [[nodiscard]] bool dsm() const override { return false; }
  [[nodiscard]] int warmup_jobs() const override { return 2; }

 private:
  static constexpr std::size_t kTraceOps = 6'000;

  /// Feed op by op, pruning at each completed barrier frontier, then
  /// finalize — with benchmark spans around the feed segments, each prune,
  /// and the finalize.
  mc::history::GraphVerdict check_trace(const std::vector<Operation>& ops, JobResult& job) {
    mc::history::IncrementalChecker chk(kProcs);
    std::uint64_t feed_ns = 0;
    std::uint64_t prune_ns = 0;
    std::uint64_t live_peak = 0;
    // prune() compacts the graph, so edges inserted = what each prune
    // released + what is resident at the end.
    std::uint64_t edges = 0;
    auto segment = Clock::now();
    for (const Operation& op : ops) {
      if (!chk.feed(op)) break;
      if (!chk.prune_pending()) continue;
      const auto t = Clock::now();
      feed_ns += ns_between(segment, t);
      mc::obs::trace_complete_ns("bench.feed", "bench", ns_between(segment, t));
      live_peak = std::max(live_peak, chk.live_counts().live_nodes);
      edges += generating_edges(chk);
      chk.prune();
      edges -= generating_edges(chk);
      segment = Clock::now();
      prune_ns += ns_between(t, segment);
      mc::obs::trace_complete_ns("bench.prune", "bench", ns_between(t, segment));
    }
    const auto t = Clock::now();
    feed_ns += ns_between(segment, t);
    live_peak = std::max(live_peak, chk.live_counts().live_nodes);
    edges += generating_edges(chk);
    mc::history::GraphVerdict verdict = chk.finalize();
    const std::uint64_t finalize_ns = ns_between(t, Clock::now());
    mc::obs::trace_complete_ns("bench.finalize", "bench", finalize_ns);

    job.wire_msgs += edges;
    for (const auto& [k, v] : chk.metrics().values) job.metrics.values[k] += v;
    job.spans_ns["feed"] += feed_ns;
    job.spans_ns["prune"] += prune_ns;
    job.spans_ns["finalize"] += finalize_ns;
    job.live_nodes_peak = std::max(job.live_nodes_peak, live_peak);
    return verdict;
  }

  std::vector<Operation> clean_, stale_;
  std::uint64_t text_bytes_ = 0;
  mc::history::GraphVerdict clean_verdict_, stale_verdict_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solver-batched", "cholesky-locks",
                                                 "directory-paging", "check-stream"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "solver-batched") return std::make_unique<SolverBatched>();
  if (name == "cholesky-locks") return std::make_unique<CholeskyLocks>();
  if (name == "directory-paging") return std::make_unique<DirectoryPaging>();
  if (name == "check-stream") return std::make_unique<CheckStream>();
  return nullptr;
}

}  // namespace perfbench
