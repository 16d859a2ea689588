#include "obs/critical_path.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string_view>

namespace mc::obs {

const char* to_string(CpCategory c) {
  switch (c) {
    case CpCategory::kCompute: return "compute";
    case CpCategory::kLockWait: return "lock_wait";
    case CpCategory::kBarrierWait: return "barrier_wait";
    case CpCategory::kAwaitSpin: return "await_spin";
    case CpCategory::kReadBlock: return "read_block";
    case CpCategory::kNetTransit: return "net_transit";
    case CpCategory::kRetransmit: return "retransmit";
    case CpCategory::kDeliver: return "deliver";
  }
  return "?";
}

std::size_t CpDag::add_node(CpCategory cat, std::uint64_t weight_ns) {
  weights_.push_back(weight_ns);
  cats_.push_back(cat);
  out_.emplace_back();
  in_degree_.push_back(0);
  return weights_.size() - 1;
}

void CpDag::add_edge(std::size_t from, std::size_t to) {
  out_[from].push_back(static_cast<std::uint32_t>(to));
  ++in_degree_[to];
}

CriticalPath CriticalPath::longest_path(const CpDag& dag) {
  CriticalPath cp;
  const std::size_t n = dag.weights_.size();
  cp.dag_nodes = n;
  if (n == 0) return cp;

  // Kahn sweep.  Nodes that never reach in-degree zero sit on a cycle
  // (malformed or ring-truncated trace); they are simply never relaxed.
  std::vector<std::uint32_t> indeg = dag.in_degree_;
  std::vector<std::uint64_t> dist(n, 0);
  constexpr std::uint32_t kNoPred = 0xffffffffu;
  std::vector<std::uint32_t> pred(n, kNoPred);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) {
      queue.push_back(static_cast<std::uint32_t>(i));
      dist[i] = dag.weights_[i];
    }
  }
  std::size_t processed = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    ++processed;
    for (const std::uint32_t v : dag.out_[u]) {
      if (dist[u] + dag.weights_[v] > dist[v]) {
        dist[v] = dist[u] + dag.weights_[v];
        pred[v] = u;
      }
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  cp.cyclic_nodes = n - processed;

  std::uint32_t best = 0;
  bool found = false;
  for (const std::uint32_t u : queue) {
    if (!found || dist[u] > dist[best]) {
      best = u;
      found = true;
    }
  }
  if (!found) return cp;
  cp.total_ns = dist[best];
  for (std::uint32_t u = best; u != kNoPred; u = pred[u]) {
    cp.category_ns[static_cast<std::size_t>(dag.cats_[u])] += dag.weights_[u];
    ++cp.path_nodes;
  }
  return cp;
}

namespace {

/// Maps an instrumented span name to its time category.  Unknown spans are
/// treated as processing work on whatever thread recorded them.
CpCategory span_category(const char* name) {
  const std::string_view n = name == nullptr ? std::string_view{} : name;
  if (n == "lock.acquire") return CpCategory::kLockWait;
  if (n == "barrier.wait") return CpCategory::kBarrierWait;
  if (n == "await") return CpCategory::kAwaitSpin;
  if (n == "read.block" || n == "fetch.wait") return CpCategory::kReadBlock;
  return CpCategory::kDeliver;
}

/// A wait span's pre-arrival time is explained by the path through the
/// message that ended it, so a bound wait keeps only its post-arrival
/// sliver.  (Await spins re-poll rather than sleep on a message and keep
/// their full duration.)
bool reducible_wait(CpCategory c) {
  return c == CpCategory::kLockWait || c == CpCategory::kBarrierWait ||
         c == CpCategory::kReadBlock;
}

struct Span {
  std::uint64_t s = 0;
  std::uint64_t e = 0;
  CpCategory cat = CpCategory::kDeliver;
  /// Latest bound wake-up arrival inside the span (0: unbound).
  std::uint64_t arrival = 0;
};

struct FlowEnd {
  std::uint64_t ts = 0;
  std::uint64_t id = 0;
};

struct ThreadLane {
  std::vector<Span> spans;
  std::vector<FlowEnd> ends;
  /// Flow start and end timestamps: the points every chain segment is
  /// split at.
  std::vector<std::uint64_t> splits;
  /// Timestamps of every non-span event, for app/infra classification.
  std::vector<std::uint64_t> loose_ts;
  bool has_marker = false;  ///< saw a proc.start / proc.end instant
  bool is_app = false;
  /// Marked lane lifetime: earliest proc.start and latest proc.end in the
  /// window (0: marker absent or clipped out).  Gap fill is clamped to the
  /// run's first proc.start and this lane's proc.end, so system
  /// construction / teardown around the measured run is not billed as
  /// compute, but a process whose thread started late is billed the delay.
  std::uint64_t marker_s = 0;
  std::uint64_t marker_e = 0;

  /// Chain segment [s, e) realized as DAG node `node`.
  struct Pos {
    std::uint64_t s, e;
    std::size_t node;
  };
  std::vector<Pos> chain;

  /// The chain node whose range holds `ts`.  Chains are split at every
  /// flow start and end, so a send leaves the segment that *ends* at its
  /// timestamp (`at_end`) and an arrival enters the one that *starts* there.
  [[nodiscard]] const Pos* locate(std::uint64_t ts, bool at_end) const {
    if (at_end) {
      auto it = std::lower_bound(chain.begin(), chain.end(), ts,
                                 [](const Pos& p, std::uint64_t t) { return p.e < t; });
      return it == chain.end() || it->s > ts ? nullptr : &*it;
    }
    auto it = std::upper_bound(chain.begin(), chain.end(), ts,
                               [](std::uint64_t t, const Pos& p) { return t < p.s; });
    if (it == chain.begin()) return nullptr;
    --it;
    return ts > it->e ? nullptr : &*it;
  }
};

}  // namespace

CriticalPath analyze_trace(const std::vector<Tracer::Recorded>& events,
                           std::uint64_t t0_ns, std::uint64_t t1_ns) {
  CpDag dag;
  if (t1_ns <= t0_ns) return CriticalPath::longest_path(dag);

  std::map<std::uint32_t, ThreadLane> lanes;
  // Flow id -> (thread, send ts).  Duplicated physical copies share an id;
  // the first recorded send wins, which is the original transmission.
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> starts;
  bool any_marker = false;
  std::uint64_t first_start = 0;  // earliest proc.start of any lane

  for (const Tracer::Recorded& r : events) {
    const TraceEvent& ev = r.ev;
    if (ev.phase == 'X') {
      std::uint64_t s = ev.ts_ns;
      std::uint64_t e = ev.ts_ns + ev.dur_ns;
      if (e <= t0_ns || s >= t1_ns) continue;
      s = std::max(s, t0_ns);
      e = std::min(e, t1_ns);
      lanes[r.tid].spans.push_back(Span{s, e, span_category(ev.name), 0});
      continue;
    }
    if (ev.ts_ns < t0_ns || ev.ts_ns >= t1_ns) continue;
    ThreadLane& lane = lanes[r.tid];
    if (ev.phase == 's') {
      starts.emplace(ev.flow_id, std::make_pair(r.tid, ev.ts_ns));
      lane.splits.push_back(ev.ts_ns);
      lane.loose_ts.push_back(ev.ts_ns);
    } else if (ev.phase == 'f') {
      lane.ends.push_back(FlowEnd{ev.ts_ns, ev.flow_id});
      lane.splits.push_back(ev.ts_ns);
      lane.loose_ts.push_back(ev.ts_ns);
    } else {
      const std::string_view name = ev.name == nullptr ? std::string_view{} : ev.name;
      if (name == "proc.start") {
        lane.has_marker = true;
        any_marker = true;
        if (lane.marker_s == 0 || ev.ts_ns < lane.marker_s) lane.marker_s = ev.ts_ns;
        if (first_start == 0 || ev.ts_ns < first_start) first_start = ev.ts_ns;
      } else if (name == "proc.end") {
        lane.has_marker = true;
        any_marker = true;
        lane.marker_e = std::max(lane.marker_e, ev.ts_ns);
      }
      lane.loose_ts.push_back(ev.ts_ns);
    }
  }

  for (auto& [tid, lane] : lanes) {
    (void)tid;
    // Keep the top-level spans only: program order is one chain per thread,
    // and nested spans (a blocked read inside an await) are already counted
    // by their enclosing span.
    std::sort(lane.spans.begin(), lane.spans.end(),
              [](const Span& a, const Span& b) { return a.s < b.s; });
    std::vector<Span> top;
    std::uint64_t cover = 0;
    for (const Span& sp : lane.spans) {
      if (!top.empty() && sp.s < cover) continue;
      top.push_back(sp);
      cover = sp.e;
    }
    lane.spans = std::move(top);

    // Application threads are the ones whose gaps are real work.  The
    // runtime marks them with a proc.start instant; for traces without
    // markers (unit tests, hand-rolled workloads) fall back to "has any
    // event outside its spans".
    if (any_marker) {
      lane.is_app = lane.has_marker;
    } else {
      lane.is_app = false;
      for (const std::uint64_t ts : lane.loose_ts) {
        const Span* enclosing = nullptr;
        for (const Span& sp : lane.spans) {
          if (ts >= sp.s && ts <= sp.e) {
            enclosing = &sp;
            break;
          }
        }
        if (enclosing == nullptr) {
          lane.is_app = true;
          break;
        }
      }
      if (lane.spans.empty() && lane.loose_ts.empty()) lane.is_app = false;
    }
  }

  // Bind wake-up arrivals to wait spans before materializing nodes so the
  // spans can be created with their reduced (post-arrival) weight.
  for (auto& [tid, lane] : lanes) {
    (void)tid;
    for (const FlowEnd& fe : lane.ends) {
      for (Span& sp : lane.spans) {
        if (fe.ts < sp.s || fe.ts > sp.e) continue;
        if (reducible_wait(sp.cat) && starts.count(fe.id) != 0) {
          sp.arrival = std::max(sp.arrival, fe.ts);
        }
        break;
      }
    }
  }

  // Materialize each thread's chain: span nodes, and on app threads the
  // compute gaps between them.  Every segment is split at the lane's flow
  // starts and ends, and transit edges leave the piece ending at the send
  // and enter the piece starting at the arrival, so the nodes along any
  // path are disjoint in time and no path outlasts the window.  (A sender's
  // chain stops at the send; a fan-out inside one deliver span does not
  // bill the span's tail to each message's path.)
  for (auto& [tid, lane] : lanes) {
    (void)tid;
    std::vector<std::uint64_t>& splits = lane.splits;
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    // Pieces of [s, e] weigh their overlap with [from, e]: a bound wait
    // weighs only its post-arrival sliver.
    auto append = [&lane, &dag, &splits](std::uint64_t s, std::uint64_t e, CpCategory cat,
                                          std::uint64_t from) {
      auto piece = [&](std::uint64_t ps, std::uint64_t pe) {
        const std::size_t node = dag.add_node(cat, pe > from ? pe - std::max(ps, from) : 0);
        if (!lane.chain.empty()) dag.add_edge(lane.chain.back().node, node);
        lane.chain.push_back(ThreadLane::Pos{ps, pe, node});
      };
      // A flow point at s or e yields a zero-length piece there, so a send
      // at s still leaves a piece that ends at it.
      std::uint64_t cursor = s;
      for (auto it = std::lower_bound(splits.begin(), splits.end(), s);
           it != splits.end() && *it <= e; ++it) {
        piece(cursor, *it);
        cursor = *it;
      }
      piece(cursor, e);
    };
    auto fill_gap = [&lane, &append](std::uint64_t from, std::uint64_t to) {
      if (lane.is_app && to > from) append(from, to, CpCategory::kCompute, from);
    };

    const std::uint64_t lane_t0 =
        lane.marker_s != 0 ? std::max(t0_ns, first_start) : t0_ns;
    const std::uint64_t lane_t1 =
        lane.marker_e != 0 ? std::min(t1_ns, lane.marker_e) : t1_ns;
    std::uint64_t cursor = lane_t0;
    for (const Span& sp : lane.spans) {
      fill_gap(cursor, std::min(sp.s, lane_t1));
      append(sp.s, sp.e, sp.cat, std::max(sp.arrival, sp.s));
      cursor = sp.e;
    }
    fill_gap(cursor, lane_t1);
  }

  // Transit nodes: one per bound flow end, edged sender-chain -> transit ->
  // consuming chain node.
  for (const auto& [tid, lane] : lanes) {
    (void)tid;
    for (const FlowEnd& fe : lane.ends) {
      const auto sit = starts.find(fe.id);
      if (sit == starts.end()) continue;  // start lost to ring overwrite
      const auto [sender_tid, ts_s] = sit->second;
      if (ts_s > fe.ts) continue;
      const ThreadLane::Pos* dst = lane.locate(fe.ts, /*at_end=*/false);
      if (dst == nullptr) continue;
      const CpCategory cat = (fe.id & kFlowRetransmitBit) != 0
                                 ? CpCategory::kRetransmit
                                 : CpCategory::kNetTransit;
      const std::size_t transit = dag.add_node(cat, fe.ts - ts_s);
      const auto lit = lanes.find(sender_tid);
      if (lit != lanes.end()) {
        const ThreadLane::Pos* src = lit->second.locate(ts_s, /*at_end=*/true);
        if (src != nullptr && src->node != dst->node) {
          dag.add_edge(src->node, transit);
        }
      }
      dag.add_edge(transit, dst->node);
    }
  }

  return CriticalPath::longest_path(dag);
}

}  // namespace mc::obs
