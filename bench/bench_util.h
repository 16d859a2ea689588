// Shared helpers for the experiment harnesses: table printing, hand-rolled
// micro-timing, and the observability wiring (the `--json` / `--trace`
// flags every bench binary supports).
//
// Each bench binary regenerates one experiment row-set from DESIGN.md's
// per-experiment index, printing machine-independent protocol costs
// (messages, bytes, blocked time) next to wall time — and, when asked,
// emitting the same rows as a versioned RunReport JSON document
// (docs/METRICS.md) plus an optional Chrome-trace event dump.

#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/check.h"
#include "common/stats.h"
#include "obs/critical_path.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/tracer.h"

namespace mc::bench {

inline void print_header(const char* title, const char* columns) {
  std::printf("\n=== %s ===\n%s\n", title, columns);
}

inline unsigned long long msgs(const MetricsSnapshot& m) {
  return static_cast<unsigned long long>(m.get("net.messages"));
}

inline unsigned long long bytes(const MetricsSnapshot& m) {
  return static_cast<unsigned long long>(m.get("net.bytes"));
}

inline double blocked_ms(const MetricsSnapshot& m, const char* key = "dsm.blocked_ns") {
  return static_cast<double>(m.get(key)) / 1e6;
}

/// The process's current thread count (the `Threads:` line of
/// /proc/self/status; 0 where that file does not exist).
inline std::size_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// Samples process_threads() every millisecond on a thread of its own and
/// keeps the peak, not counting itself: how many threads the runtime runs
/// while a case is live (app, delivery and manager threads, plus whatever
/// a harness starts itself, such as a metrics sampler).
class ThreadPeak {
 public:
  ThreadPeak()
      : sampler_([this] {
          std::unique_lock lk(mu_);
          do {
            const std::size_t n = process_threads();
            if (n > 0) peak_ = std::max(peak_, n - 1);
          } while (!cv_.wait_for(lk, std::chrono::milliseconds(1), [&] { return stop_; }));
        }) {}
  ~ThreadPeak() { stop(); }

  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;

  /// Stop sampling and return the peak.
  std::size_t stop() {
    {
      std::scoped_lock lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (sampler_.joinable()) sampler_.join();
    return peak_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t peak_ = 0;
  std::thread sampler_;
};

inline std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Harness-level observability: parses `--json <path>` (emit a RunReport
/// document on exit) and `--trace <path>` / the MC_TRACE environment
/// variable (enable the event tracer, dump Chrome-trace JSON on exit).
/// Construct once at the top of main; rows added via add_row() are written
/// when the harness is destroyed.
class Harness {
 public:
  Harness(const char* name, int argc, char** argv) {
    report_.bench = name;
    // Host fingerprint: wall figures mean little without the host.
    report_.config["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report_.config["compiler"] = compiler();
    report_.config["build_type"] = MC_BUILD_TYPE;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg == "--profile") {
        profile_ = true;
      } else {
        std::fprintf(stderr,
                     "%s: unknown argument '%s' (supported: --json <path>, "
                     "--trace <path>, --smoke, --profile)\n",
                     name, argv[i]);
        std::exit(2);
      }
    }
    if (trace_path_.empty()) {
      if (const char* env = std::getenv("MC_TRACE")) trace_path_ = env;
    }
    if (!trace_path_.empty()) obs::Tracer::instance().enable();
    row_mark_ns_ = tracing() ? obs::Tracer::now_ns() : 0;
  }

  ~Harness() { finish(); }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Run-level configuration recorded in the report's `config` object.
  void config(const std::string& key, const std::string& value) {
    report_.config[key] = value;
  }

  /// CI smoke mode (`--smoke`): benches shrink to one tiny configuration —
  /// enough to exercise the measurement path and produce a valid RunReport,
  /// not enough to produce meaningful numbers.
  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Whether `--trace` / MC_TRACE is active for this run.
  [[nodiscard]] bool tracing() const { return !trace_path_.empty(); }

  /// Whether `--profile` is active: benches thread profile_options() into
  /// Config::profile and attach the result to their rows via set_profile()
  /// (docs/PROFILING.md).
  [[nodiscard]] bool profiling() const { return profile_; }

  /// Sketch bounds for a profiled run.  Defaults; benches with more than
  /// `top_k` interesting objects widen it (bench_directory reports every
  /// variable so CI can check the fetch-traffic split).
  [[nodiscard]] obs::ProfilerOptions profile_options(
      std::size_t top_k = obs::ProfilerOptions{}.top_k) const {
    obs::ProfilerOptions opt;
    opt.top_k = top_k;
    return opt;
  }

  /// Attach a contention profile to a row (no-op shape: callers guard on
  /// profiling() themselves since collecting the report costs a merge).
  static void set_profile(obs::RunReport::Row& row, obs::ProfileReport profile) {
    row.profile_present = true;
    row.profile = std::move(profile);
  }

  /// Start the next row's trace window here (call right before the timed
  /// run).  Without an explicit mark the window starts at the previous
  /// add_row(), which also includes inter-case setup.
  void mark() {
    if (tracing()) row_mark_ns_ = obs::Tracer::now_ns();
  }

  /// Append a result row (fill params/wall_ms/metrics on the reference).
  /// Under --trace, the row gets a critical_path section computed from the
  /// events recorded since the last mark()/add_row() — so call this right
  /// after the case's run, before any other traced work.
  obs::RunReport::Row& add_row(std::string name) {
    obs::RunReport::Row& row = report_.add_row(std::move(name));
    if (tracing()) {
      const std::uint64_t now = obs::Tracer::now_ns();
      const obs::CriticalPath cp = obs::analyze_trace(
          obs::Tracer::instance().snapshot(), row_mark_ns_, now);
      row.critical_path.present = true;
      row.critical_path.total_ms = static_cast<double>(cp.total_ns) / 1e6;
      for (std::size_t c = 0; c < obs::kCpCategories; ++c) {
        if (cp.category_ns[c] == 0) continue;
        row.critical_path.category_ms[obs::to_string(
            static_cast<obs::CpCategory>(c))] =
            static_cast<double>(cp.category_ns[c]) / 1e6;
      }
      row.critical_path.dag_nodes = cp.dag_nodes;
      row.critical_path.path_nodes = cp.path_nodes;
      row_mark_ns_ = now;
    }
    return row;
  }

  /// The most recently added row (for attaching late-computed sections such
  /// as a profile collected after the row was emitted).
  obs::RunReport::Row& last_row() {
    MC_CHECK(!report_.rows.empty());
    return report_.rows.back();
  }

  /// Write the report and/or trace now (idempotent; the destructor calls it).
  /// A report or trace that cannot be written ends the process with exit
  /// status 1, so a run whose artifact is missing never looks successful.
  void finish() {
    if (finished_) return;
    finished_ = true;
    report_.config["threads_peak"] = std::to_string(threads_.stop());
    bool ok = true;
    if (!json_path_.empty()) {
      if (report_.write_file(json_path_)) {
        std::fprintf(stderr, "wrote %s (%zu rows)\n", json_path_.c_str(),
                     report_.rows.size());
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", json_path_.c_str());
        ok = false;
      }
    }
    if (!trace_path_.empty()) {
      obs::Tracer::instance().disable();
      if (obs::Tracer::instance().dump_chrome_trace(trace_path_)) {
        std::fprintf(stderr, "wrote %s (%llu events)\n", trace_path_.c_str(),
                     static_cast<unsigned long long>(
                         obs::Tracer::instance().events_recorded()));
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", trace_path_.c_str());
        ok = false;
      }
    }
    if (!ok) std::exit(1);
  }

 private:
  obs::RunReport report_;
  std::string json_path_;
  std::string trace_path_;
  std::uint64_t row_mark_ns_ = 0;
  bool smoke_ = false;
  bool profile_ = false;
  bool finished_ = false;
  ThreadPeak threads_;
};

/// Keep `value` observable so timing loops are not optimized away.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct MicroResult {
  double ns_per_op = 0.0;
  std::uint64_t iterations = 0;
  double total_ms = 0.0;
};

/// Repeat `op` until `min_ms` of wall time has elapsed (after a short
/// warmup) and report the mean cost per call.
template <typename F>
MicroResult measure_op(F&& op, double min_ms = 100.0) {
  for (int i = 0; i < 1024; ++i) op();
  MicroResult r;
  Stopwatch sw;
  do {
    for (int i = 0; i < 2048; ++i) op();
    r.iterations += 2048;
  } while (sw.elapsed_ms() < min_ms);
  r.total_ms = sw.elapsed_ms();
  r.ns_per_op = r.total_ms * 1e6 / static_cast<double>(r.iterations);
  return r;
}

}  // namespace mc::bench
