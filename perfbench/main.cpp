// The repo benchmark: runs one workload for a fixed time and prints its
// end-to-end metrics or, with --trace 1, its per-layer ledger.  Every job's
// output is checked.  The last stdout line is one JSON object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// and the same figures, with the host fingerprint, go to the --out file.
// perfbench/run.py builds this binary and is the usual way to run it; see
// NOTES.md for the workloads and what each metric is meant to show.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

struct MetricDef {
  std::string name;
  std::string unit;
};

// The names and units BENCHMARK.json declares; `run.py --smoke` checks that
// the two agree.
const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"job_ms_p50", "ms"},        {"ops_per_s", "1/s"},
      {"wire_msgs_per_op", "msg/op"}, {"wire_bytes_per_op", "B/op"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<std::string> kWireKinds = {
    "update",         "batch",           "lock_req",     "lock_grant",     "unlock",
    "barrier_arrive", "dir_sharer_add",  "dir_ack",      "dir_sharer_del", "dir_unregister",
    "fetch_bulk_req", "fetch_bulk_resp", "frontier_req", "rel_ack",
};

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"net.send_ns.p50", "ns"}, {"net.send_ns.p99", "ns"}, {"net.messages", "msg/job"}};
    for (const std::string& k : kWireKinds) d.push_back({"net.msg." + k, "msg/job"});
    const std::vector<MetricDef> rest = {
        {"net.acks", "count/job"},
        {"net.retransmits", "count/job"},
        {"net.dup_dropped", "count/job"},
        {"dsm.read.pram_ns.p50", "ns"},
        {"dsm.read.pram_ns.p99", "ns"},
        {"dsm.read.causal_ns.p50", "ns"},
        {"dsm.read.causal_ns.p99", "ns"},
        {"dsm.lock.acquire_ns.p50", "ns"},
        {"dsm.lock.acquire_ns.p99", "ns"},
        {"dsm.lockmgr.grant_wait_ns.p50", "ns"},
        {"dsm.await.spin_ns.p50", "ns"},
        {"dsm.barrier.wait_ns.p50", "ns"},
        {"dsm.barrier.wait_ns.p99", "ns"},
        {"dsm.barriermgr.assemble_ns.p50", "ns"},
        {"dsm.blocked_share", "share"},
        {"dsm.batch.updates_per_msg", "rec/msg"},
        {"dsm.batch.coalesced_share", "share"},
        {"dsm.directory.fills_per_job", "count/job"},
        {"dsm.directory.records_per_fill", "rec/fill"},
        {"dsm.directory.evictions_per_fill", "evict/fill"},
        {"dsm.directory.control_msg_share", "share"},
        {"dsm.directory.fill_wait_ns.p50", "ns"},
        {"dsm.directory.fill_wait_ns.p99", "ns"},
        {"dsm.construct_ms", "ms"},
        {"dsm.run_ms", "ms"},
        {"dsm.shutdown_ms", "ms"},
        {"history.feed_ns_per_op", "ns"},
        {"history.prune_ms", "ms"},
        {"history.finalize_ms", "ms"},
        {"history.live_nodes_peak", "count"},
        {"history.retired_share", "share"},
        {"cp.compute_ms", "ms"},
        {"cp.lock_wait_ms", "ms"},
        {"cp.barrier_wait_ms", "ms"},
        {"cp.await_spin_ms", "ms"},
        {"cp.read_block_ms", "ms"},
        {"cp.net_transit_ms", "ms"},
        {"cp.retransmit_ms", "ms"},
        {"cp.deliver_ms", "ms"},
        {"cp.total_ms", "ms"},
        {"cp.wall_share", "share"},
        {"obs.trace_overhead", "x"},
        {"obs.trace.dropped", "count"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out <result.json>] [--commit <id>]\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T v{};
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) {
    usage("bad value '" + std::string(text) + "' for " + std::string(flag));
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, v);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out = v;
    } else if (flag == "--commit") {
      o.commit = v;
    } else {
      usage("unknown argument '" + std::string(flag) + "'");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// ----- host fingerprint -----

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ----- jobs -----

struct Job {
  double ms = 0.0;
  JobResult result;
};

/// Every job run — warm-up, timed and traced — and the failures.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void count(const JobResult& r) {
    ++attempted;
    if (r.ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(r.failure);
    std::fprintf(stderr, "perfbench: job failed: %s\n", r.failure.c_str());
  }
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Run, time and check one job.  `on_done` runs between the timed call and
/// the check (the traced loop closes its trace window there).
template <typename OnDone>
Job checked_job(Workload& w, Tally& tally, OnDone&& on_done) {
  Job job;
  const auto t0 = Clock::now();
  job.result = w.run_job();
  job.ms = ms_between(t0, Clock::now());
  on_done();
  w.check(job.result);
  tally.count(job.result);
  return job;
}

Job checked_job(Workload& w, Tally& tally) {
  return checked_job(w, tally, [] {});
}

/// Run jobs back to back until `seconds` of wall time have passed.
std::vector<Job> run_for(Workload& w, double seconds, Tally& tally) {
  std::vector<Job> jobs;
  const auto start = Clock::now();
  do {
    jobs.push_back(checked_job(w, tally));
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  return jobs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set up `reps` times — generate the inputs, compute the reference, run
/// the warm-up jobs — and return the median set-up time in seconds.  The
/// timed jobs use the last repetition's state.
double run_setup(Workload& w, std::uint64_t seed, int reps, int warmups, Tally& tally) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    w.setup(seed);
    for (int i = 0; i < warmups; ++i) checked_job(w, tally);
    times.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return median(times);
}

// ----- end-to-end metrics -----

struct Tail {
  double ms = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

/// The highest percentile with at least ten jobs beyond it, from p99.9,
/// p99, p95, p90, p75 and p50 (nearest rank); with fewer than eleven jobs,
/// the slowest job.
Tail tail_of(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  Tail t;
  t.samples = ms.size();
  if (ms.empty()) return t;
  t.ms = ms.back();
  const auto n = static_cast<double>(ms.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (rank >= 1 && ms.size() - rank >= 10) {
      t.ms = ms[rank - 1];
      t.percentile = pct;
      break;
    }
  }
  return t;
}

Metrics end_to_end(const std::vector<Job>& jobs, double setup_s) {
  std::vector<double> ms, rates;
  double ops = 0.0, msgs = 0.0, bytes = 0.0;
  for (const Job& j : jobs) {
    ms.push_back(j.ms);
    rates.push_back(static_cast<double>(j.result.ops) / (j.ms / 1e3));
    ops += static_cast<double>(j.result.ops);
    msgs += static_cast<double>(j.result.wire_msgs);
    bytes += static_cast<double>(j.result.wire_bytes);
  }
  return {
      {"job_ms_p50", median(std::move(ms))},
      {"ops_per_s", median(std::move(rates))},
      {"wire_msgs_per_op", msgs / ops},
      {"wire_bytes_per_op", bytes / ops},
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

// ----- per-layer ledger -----

struct TracedJob {
  Job job;
  mc::obs::CriticalPath cp;
};

/// Tracer events one traced run may keep.  The tracer never frees the ring
/// of a thread that has exited, so this bounds the run's memory.
constexpr std::uint64_t kMaxTraceEvents = 1'000'000;
constexpr std::size_t kMinTracedJobs = 3;

/// Trace jobs one at a time: clear the tracer, run the job, and analyse its
/// critical path over exactly the job's window.  Ring overwrites are summed
/// into `dropped`.
std::vector<TracedJob> run_traced(Workload& w, double seconds, Tally& tally,
                                  std::uint64_t& dropped) {
  mc::obs::Tracer& tracer = mc::obs::Tracer::instance();
  std::vector<TracedJob> out;
  std::uint64_t events = 0;
  tracer.clear();
  tracer.enable();
  const auto start = Clock::now();
  do {
    tracer.clear();
    TracedJob tj;
    const std::uint64_t t0 = mc::obs::Tracer::now_ns();
    tj.job = checked_job(w, tally, [&] {
      const std::uint64_t t1 = mc::obs::Tracer::now_ns();
      dropped += tracer.dropped_events();
      events += tracer.events_recorded();
      if (w.dsm()) tj.cp = mc::obs::analyze_trace(tracer.snapshot(), t0, t1);
    });
    out.push_back(std::move(tj));
  } while (out.size() < kMinTracedJobs ||
           (ms_between(start, Clock::now()) < seconds * 1e3 && events < kMaxTraceEvents));
  tracer.disable();
  tracer.clear();
  return out;
}

std::uint64_t sum_prefix(const mc::MetricsSnapshot& m, std::string_view prefix) {
  std::uint64_t s = 0;
  for (auto it = m.values.lower_bound(std::string(prefix));
       it != m.values.end() && it->first.starts_with(prefix); ++it) {
    s += it->second;
  }
  return s;
}

/// The per-layer metrics of one traced run.  `plain` are the run's untraced
/// jobs (the runtime's own counters and histograms come from them, so
/// tracing does not inflate them); `traced` give the critical path.  Failed
/// reconciliations are appended to `problems`.
Metrics per_layer(const Workload& w, const std::vector<Job>& plain,
                  const std::vector<TracedJob>& traced, std::uint64_t dropped,
                  std::vector<std::string>& problems) {
  Metrics out;
  for (const MetricDef& d : per_layer_defs()) out[d.name] = 0.0;

  const auto total = [&](const std::string& key) {
    double s = 0.0;
    for (const Job& j : plain) s += static_cast<double>(j.result.metrics.get(key));
    return s;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double jobs = static_cast<double>(plain.size());
  std::vector<double> plain_ms, traced_ms;
  for (const Job& j : plain) plain_ms.push_back(j.ms);
  for (const TracedJob& t : traced) traced_ms.push_back(t.job.ms);

  const auto median_span_ms = [&](const char* span) {
    std::vector<double> v;
    for (const Job& j : plain) {
      const auto it = j.result.spans_ns.find(span);
      if (it != j.result.spans_ns.end()) v.push_back(static_cast<double>(it->second) / 1e6);
    }
    return median(std::move(v));
  };

  if (w.dsm()) {
    // Histogram quantiles: the median over jobs of each job's quantile.
    for (const MetricDef& d : per_layer_defs()) {
      if (!d.name.ends_with(".p50") && !d.name.ends_with(".p99")) continue;
      const std::string key = d.name.starts_with("dsm.") ? d.name.substr(4) : d.name;
      std::vector<double> v;
      for (const Job& j : plain) {
        if (j.result.metrics.values.contains(key)) {
          v.push_back(static_cast<double>(j.result.metrics.get(key)));
        }
      }
      out[d.name] = median(std::move(v));
    }
    out["net.messages"] = total("net.messages") / jobs;
    for (const std::string& k : kWireKinds) {
      out["net.msg." + k] = total("net.msg." + k) / jobs;
    }
    for (const char* k : {"net.acks", "net.retransmits", "net.dup_dropped"}) {
      out[k] = total(k) / jobs;
    }

    std::vector<double> blocked;
    for (const Job& j : plain) {
      blocked.push_back(static_cast<double>(j.result.metrics.get("dsm.blocked_ns")) /
                        (static_cast<double>(kProcs) * j.ms * 1e6));
    }
    out["dsm.blocked_share"] = median(std::move(blocked));

    const double updates = total("net.batch.updates");
    out["dsm.batch.updates_per_msg"] = ratio(updates, total("net.batch.msgs"));
    const double coalesced = total("net.batch.coalesced");
    out["dsm.batch.coalesced_share"] = ratio(coalesced, updates + coalesced);

    const double fills = total("directory.fills");
    out["dsm.directory.fills_per_job"] = fills / jobs;
    out["dsm.directory.records_per_fill"] = ratio(total("directory.fill_records"), fills);
    out["dsm.directory.evictions_per_fill"] = ratio(total("directory.evictions"), fills);
    double control = 0.0;
    for (const Job& j : plain) {
      for (const char* p : {"net.msg.dir_", "net.msg.fetch_bulk_", "net.msg.frontier_"}) {
        control += static_cast<double>(sum_prefix(j.result.metrics, p));
      }
    }
    out["dsm.directory.control_msg_share"] = ratio(control, total("net.messages"));

    out["dsm.construct_ms"] = median_span_ms("construct");
    out["dsm.run_ms"] = median_span_ms("run");
    out["dsm.shutdown_ms"] = median_span_ms("shutdown");

    // Reconciliation: the per-kind counts partition net.messages exactly.
    const auto reconcile = [&](const mc::MetricsSnapshot& m) {
      const std::uint64_t kinds = sum_prefix(m, "net.msg.");
      if (kinds != m.get("net.messages")) {
        problems.push_back("net.msg.* sums to " + std::to_string(kinds) + ", net.messages is " +
                           std::to_string(m.get("net.messages")));
      }
    };
    for (const Job& j : plain) reconcile(j.result.metrics);
    for (const TracedJob& t : traced) reconcile(t.job.result.metrics);

    // Critical path: median per category over the traced jobs.  The
    // analyzer counts a message's transit and the head of the span that
    // consumes it both, so the path may read somewhat longer than the job.
    for (std::size_t c = 0; c < mc::obs::kCpCategories; ++c) {
      std::vector<double> v;
      for (const TracedJob& t : traced) v.push_back(static_cast<double>(t.cp.category_ns[c]) / 1e6);
      out[std::string("cp.") + mc::obs::to_string(static_cast<mc::obs::CpCategory>(c)) + "_ms"] =
          median(std::move(v));
    }
    std::vector<double> totals, shares;
    for (const TracedJob& t : traced) {
      const double cp_ms = static_cast<double>(t.cp.total_ns) / 1e6;
      totals.push_back(cp_ms);
      shares.push_back(cp_ms / t.job.ms);
      if (cp_ms < 0.5 * t.job.ms || cp_ms > 1.5 * t.job.ms) {
        problems.push_back("critical path of " + std::to_string(cp_ms) +
                           " ms does not reconcile with the job's " + std::to_string(t.job.ms) +
                           " ms");
      }
    }
    out["cp.total_ms"] = median(std::move(totals));
    out["cp.wall_share"] = median(std::move(shares));
  } else {
    double feed_ns = 0.0, ops = 0.0;
    double live_peak = 0.0;
    for (const Job& j : plain) {
      const auto it = j.result.spans_ns.find("feed");
      if (it != j.result.spans_ns.end()) feed_ns += static_cast<double>(it->second);
      ops += static_cast<double>(j.result.ops);
      live_peak = std::max(live_peak, static_cast<double>(j.result.live_nodes_peak));
    }
    out["history.feed_ns_per_op"] = ratio(feed_ns, ops);
    out["history.prune_ms"] = median_span_ms("prune");
    out["history.finalize_ms"] = median_span_ms("finalize");
    out["history.live_nodes_peak"] = live_peak;
    out["history.retired_share"] = ratio(total("checker.retired_total"), total("checker.ops"));
  }

  out["obs.trace_overhead"] = ratio(median(traced_ms), median(plain_ms));
  out["obs.trace.dropped"] = static_cast<double>(dropped);
  if (dropped != 0) {
    problems.push_back(std::to_string(dropped) +
                       " trace events were dropped; the per-layer split would undercount");
  }
  return out;
}

// ----- output -----

void write_metrics(mc::obs::JsonWriter& jw, const std::vector<MetricDef>& defs,
                   const Metrics& values) {
  jw.key("metrics").begin_object();
  for (const MetricDef& d : defs) {
    jw.key(d.name).begin_object();
    jw.key("value").value(values.at(d.name));
    jw.key("unit").value(d.unit);
    jw.end_object();
  }
  jw.end_object();
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload);
  if (!w) usage("unknown workload '" + o.workload + "'");

  Tally tally;
  std::vector<std::string> problems;
  const int reps = o.smoke ? 1 : 5;
  const int warmups = o.smoke ? 1 : w->warmup_jobs();
  const double setup_s = run_setup(*w, o.seed, reps, warmups, tally);

  const std::vector<MetricDef>& defs = o.trace ? per_layer_defs() : end_to_end_defs();
  Metrics metrics;
  Tail tail;
  std::vector<double> job_ms;  // every measured job, in run order
  if (!o.trace) {
    const std::vector<Job> jobs = run_for(*w, o.seconds, tally);
    for (const Job& j : jobs) job_ms.push_back(j.ms);
    tail = tail_of(job_ms);
    metrics = end_to_end(jobs, setup_s);
  } else {
    const std::vector<Job> plain = run_for(*w, o.seconds / 2, tally);
    std::uint64_t dropped = 0;
    const std::vector<TracedJob> traced = run_traced(*w, o.seconds / 2, tally, dropped);
    for (const Job& j : plain) job_ms.push_back(j.ms);
    for (const TracedJob& t : traced) job_ms.push_back(t.job.ms);
    metrics = per_layer(*w, plain, traced, dropped, problems);
  }
  for (const MetricDef& d : defs) {
    if (!std::isfinite(metrics.at(d.name))) {
      problems.push_back(d.name + " is not a finite number");
      metrics[d.name] = 0.0;
    }
  }
  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  const bool correct = tally.failed == 0 && problems.empty();
  const unsigned nproc = std::thread::hardware_concurrency();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("host: nproc=%u compiler=\"%s\" build_type=%s commit=%s\n", nproc,
              compiler().c_str(), PERFBENCH_BUILD_TYPE, o.commit.c_str());
  std::printf("jobs: %zu measured, %llu attempted in all, %llu failed (error_rate %g), "
              "peak RSS %.1f MB\n",
              job_ms.size(), static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
              peak_rss_mb());
  if (!o.trace) {
    std::printf("job_ms_tail %.6g ms (p%g of %zu jobs; recorded, not gated)\n", tail.ms,
                tail.percentile, tail.samples);
  }
  for (const MetricDef& d : defs) {
    std::printf("  %-34s %16.6g %s\n", d.name.c_str(), metrics.at(d.name), d.unit.c_str());
  }

  bool written = true;
  if (!o.out.empty()) {
    mc::obs::JsonWriter jw(2);
    jw.begin_object();
    jw.key("workload").value(o.workload);
    jw.key("seed").value(o.seed);
    jw.key("seconds").value(o.seconds);
    jw.key("trace").value(o.trace);
    jw.key("host").begin_object();
    jw.key("nproc").value(std::uint64_t{nproc});
    jw.key("compiler").value(compiler());
    jw.key("build_type").value(PERFBENCH_BUILD_TYPE);
    jw.key("commit").value(o.commit);
    jw.end_object();
    jw.key("jobs_measured").value(std::uint64_t{job_ms.size()});
    if (!o.trace) {
      jw.key("job_ms_tail").value(tail.ms);
      jw.key("job_ms_tail_percentile").value(tail.percentile);
      jw.key("job_ms_tail_samples").value(std::uint64_t{tail.samples});
    }
    jw.key("setup_repetitions").value(reps);
    jw.key("correct").value(correct);
    jw.key("attempted").value(tally.attempted);
    jw.key("failed").value(tally.failed);
    jw.key("error_rate")
        .value(static_cast<double>(tally.failed) / static_cast<double>(tally.attempted));
    jw.key("failures").begin_array();
    for (const std::string& f : tally.failures) jw.value(f);
    jw.end_array();
    jw.key("problems").begin_array();
    for (const std::string& p : problems) jw.value(p);
    jw.end_array();
    write_metrics(jw, defs, metrics);
    jw.key("job_ms").begin_array();
    for (const double ms : job_ms) jw.value(ms);
    jw.end_array();
    jw.end_object();
    std::ofstream f(o.out);
    f << jw.str() << '\n';
    f.close();
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write the result file %s\n", o.out.c_str());
      written = false;
    }
  }

  mc::obs::JsonWriter line(0);
  line.begin_object();
  line.key("correct").value(correct);
  line.key("attempted").value(tally.attempted);
  line.key("failed").value(tally.failed);
  write_metrics(line, defs, metrics);
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct && written ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
