// Unit tests for the offline critical-path analyzer: longest_path() on
// hand-built DAGs, and analyze_trace() on hand-built event vectors with
// known causal structure.

#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <vector>

namespace mc::obs {
namespace {

TEST(CpDagTest, SingleChainSumsWeights) {
  CpDag dag;
  const std::size_t a = dag.add_node(CpCategory::kCompute, 10);
  const std::size_t b = dag.add_node(CpCategory::kLockWait, 5);
  const std::size_t c = dag.add_node(CpCategory::kCompute, 7);
  dag.add_edge(a, b);
  dag.add_edge(b, c);

  const CriticalPath cp = CriticalPath::longest_path(dag);
  EXPECT_EQ(cp.total_ns, 22u);
  EXPECT_EQ(cp.path_nodes, 3u);
  EXPECT_EQ(cp.dag_nodes, 3u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 17u);
  EXPECT_EQ(cp.category(CpCategory::kLockWait), 5u);
  EXPECT_EQ(cp.cyclic_nodes, 0u);
}

TEST(CpDagTest, PicksHeavierBranch) {
  // a -> b (heavy) -> d, a -> c (light) -> d.
  CpDag dag;
  const std::size_t a = dag.add_node(CpCategory::kCompute, 1);
  const std::size_t b = dag.add_node(CpCategory::kBarrierWait, 100);
  const std::size_t c = dag.add_node(CpCategory::kNetTransit, 2);
  const std::size_t d = dag.add_node(CpCategory::kCompute, 1);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);

  const CriticalPath cp = CriticalPath::longest_path(dag);
  EXPECT_EQ(cp.total_ns, 102u);
  EXPECT_EQ(cp.path_nodes, 3u);
  EXPECT_EQ(cp.category(CpCategory::kBarrierWait), 100u);
  EXPECT_EQ(cp.category(CpCategory::kNetTransit), 0u);
}

TEST(CpDagTest, CycleNodesAreExcludedNotFatal) {
  CpDag dag;
  const std::size_t a = dag.add_node(CpCategory::kCompute, 50);
  const std::size_t b = dag.add_node(CpCategory::kCompute, 60);
  dag.add_edge(a, b);
  dag.add_edge(b, a);  // malformed input
  const std::size_t c = dag.add_node(CpCategory::kDeliver, 30);

  const CriticalPath cp = CriticalPath::longest_path(dag);
  EXPECT_EQ(cp.total_ns, 30u);
  EXPECT_EQ(cp.cyclic_nodes, 2u);
  EXPECT_EQ(cp.category(CpCategory::kDeliver), 30u);
}

TEST(CpDagTest, EmptyDag) {
  const CriticalPath cp = CriticalPath::longest_path(CpDag{});
  EXPECT_EQ(cp.total_ns, 0u);
  EXPECT_EQ(cp.path_nodes, 0u);
}

// ---- analyze_trace on synthetic event streams ----

Tracer::Recorded instant(std::uint32_t tid, const char* name, std::uint64_t ts) {
  Tracer::Recorded r;
  r.tid = tid;
  r.ev.name = name;
  r.ev.cat = "dsm";
  r.ev.phase = 'i';
  r.ev.ts_ns = ts;
  return r;
}

Tracer::Recorded span(std::uint32_t tid, const char* name, std::uint64_t ts,
                      std::uint64_t dur) {
  Tracer::Recorded r;
  r.tid = tid;
  r.ev.name = name;
  r.ev.cat = "dsm";
  r.ev.phase = 'X';
  r.ev.ts_ns = ts;
  r.ev.dur_ns = dur;
  return r;
}

Tracer::Recorded flow(std::uint32_t tid, char phase, std::uint64_t id,
                      std::uint64_t ts) {
  Tracer::Recorded r;
  r.tid = tid;
  r.ev.name = "msg";
  r.ev.cat = "net";
  r.ev.phase = phase;
  r.ev.ts_ns = ts;
  r.ev.flow_id = id;
  return r;
}

TEST(AnalyzeTraceTest, SingleAppThreadIsPureCompute) {
  // One marked application thread with no spans: everything from its
  // proc.start to the end of the window is one compute chain.
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 10));

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  EXPECT_EQ(cp.total_ns, 990u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 990u);
  EXPECT_EQ(cp.cyclic_nodes, 0u);
}

TEST(AnalyzeTraceTest, TransitDetourDoesNotBeatStraightCompute) {
  // App thread sends at t=100; infra thread delivers at [300, 350].  The
  // detour (95 compute + 205 transit + 50 deliver) loses to the thread's
  // own 995ns compute chain.
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 5));
  ev.push_back(flow(1, 's', 7, 100));
  ev.push_back(span(2, "deliver", 300, 50));
  ev.push_back(flow(2, 'f', 7, 305));

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  EXPECT_EQ(cp.total_ns, 995u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 995u);
  EXPECT_EQ(cp.category(CpCategory::kDeliver), 0u);
}

TEST(AnalyzeTraceTest, BoundWaitRoutesThroughSenderChain) {
  // Lock handoff: app thread 1 requests at t=100, waits in [110, 610]; the
  // manager (thread 2) processes the request in [200, 500] and sends the
  // grant at t=490; the grant lands at t=600.  The wait span keeps only its
  // post-arrival sliver and the path detours through the manager.
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 5));
  ev.push_back(flow(1, 's', 1, 100));           // request leaves pre-span
  ev.push_back(span(1, "lock.acquire", 110, 500));
  ev.push_back(flow(1, 'f', 2, 600));           // grant arrival, in-span
  ev.push_back(span(2, "deliver", 200, 300));
  ev.push_back(flow(2, 'f', 1, 210));           // request consumed
  ev.push_back(flow(2, 's', 2, 490));           // grant sent, in-span

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  // gap[5,100]=95 -> transit(210-100)=110 -> deliver[210,490]=280 ->
  // transit(600-490)=110 -> sliver(610-600)=10 -> gap[610,1000]=390.  The
  // deliver span counts only between the request's arrival and the grant's
  // send: the rest overlaps the two transits.
  EXPECT_EQ(cp.total_ns, 95u + 110u + 280u + 110u + 10u + 390u);
  // The [100,110] pre-span gap is off the winning path (the detour leaves
  // at the t=100 send): compute = gap[5,100] + gap[610,1000].
  EXPECT_EQ(cp.category(CpCategory::kCompute), 95u + 390u);
  EXPECT_EQ(cp.category(CpCategory::kNetTransit), 220u);
  EXPECT_EQ(cp.category(CpCategory::kDeliver), 280u);
  EXPECT_EQ(cp.category(CpCategory::kLockWait), 10u);
  EXPECT_EQ(cp.cyclic_nodes, 0u);
}

TEST(AnalyzeTraceTest, RetransmitFlowBillsRetransmitCategory) {
  std::vector<Tracer::Recorded> ev;
  const std::uint64_t id = 3u | kFlowRetransmitBit;
  ev.push_back(flow(1, 's', id, 100));
  ev.push_back(instant(1, "proc.end", 150));
  ev.push_back(span(2, "deliver", 400, 50));  // clipped to [400, 430]
  ev.push_back(flow(2, 'f', id, 405));

  const CriticalPath cp = analyze_trace(ev, 0, 430);
  // Sender chain to the send (100) + retransmit transit (305) + clipped
  // deliver from the arrival (25) beats the sender's 150ns compute chain.
  EXPECT_EQ(cp.total_ns, 430u);
  EXPECT_EQ(cp.category(CpCategory::kRetransmit), 305u);
  EXPECT_EQ(cp.category(CpCategory::kNetTransit), 0u);
  EXPECT_EQ(cp.category(CpCategory::kDeliver), 25u);
}

TEST(AnalyzeTraceTest, BarrierFanOutDoesNotOutlastTheWindow) {
  // Four processes arrive at a barrier (sends at t=100, waits from t=105);
  // the manager consumes the arrivals in four deliver spans and, in the
  // last one ([260, 500]), sends the releases one after another at
  // 300, 350, 400, 450.  Process k's release lands at 470 + 10k and its
  // wait ends 5ns later; every lane ends at t=900.  Billing the whole
  // fan-out span to each release's path (and the span's head before the
  // arrival that entered it) made the path 1091ns long — longer than the
  // 890ns the processes lived.
  std::vector<Tracer::Recorded> ev;
  for (std::uint32_t k = 0; k < 4; ++k) {
    const std::uint32_t tid = k + 1;
    const std::uint64_t landing = 470 + 10 * k;
    ev.push_back(instant(tid, "proc.start", 10));
    ev.push_back(flow(tid, 's', tid, 100));  // arrival
    ev.push_back(span(tid, "barrier.wait", 105, landing + 5 - 105));
    ev.push_back(flow(tid, 'f', 10 + tid, landing));  // release
    ev.push_back(instant(tid, "proc.end", 900));
    const std::uint64_t d = 200 + 20 * k;
    ev.push_back(span(9, "deliver", d, k < 3 ? 10 : 240));
    ev.push_back(flow(9, 'f', tid, d + 1));
    ev.push_back(flow(9, 's', 11 + k, 300 + 50 * k));
  }

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  // Last arrival's sender chain [10,100] + transit to 261 = 251, then any
  // release k: deliver [261, send] + transit + 5ns sliver + compute to 900.
  EXPECT_EQ(cp.total_ns, 890u);
  EXPECT_LE(cp.category(CpCategory::kDeliver), 450u - 261u);
  EXPECT_EQ(cp.category(CpCategory::kBarrierWait), 5u);
  EXPECT_EQ(cp.cyclic_nodes, 0u);
}

TEST(AnalyzeTraceTest, UnboundWaitKeepsFullWeight) {
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 5));
  ev.push_back(span(1, "barrier.wait", 100, 400));

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  EXPECT_EQ(cp.total_ns, 995u);
  EXPECT_EQ(cp.category(CpCategory::kBarrierWait), 400u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 595u);
}

TEST(AnalyzeTraceTest, WindowClipsSpans) {
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 150));
  ev.push_back(span(1, "await", 50, 200));  // clipped to [100, 250]

  const CriticalPath cp = analyze_trace(ev, 100, 400);
  EXPECT_EQ(cp.total_ns, 300u);
  EXPECT_EQ(cp.category(CpCategory::kAwaitSpin), 150u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 150u);
}

TEST(AnalyzeTraceTest, ProcEndBoundsTheLane) {
  // The lane's compute chain is clamped to [proc.start, proc.end]: system
  // construction before the run and teardown after it are not billed.
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 100));
  ev.push_back(span(1, "await", 200, 50));
  ev.push_back(instant(1, "proc.end", 900));

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  EXPECT_EQ(cp.total_ns, 800u);
  EXPECT_EQ(cp.category(CpCategory::kAwaitSpin), 50u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 750u);
}

TEST(AnalyzeTraceTest, LateStartingProcessIsBilledItsStartDelay) {
  // Process 2's thread starts 390ns after process 1's and nothing traced
  // explains the delay; the run still lasts from the first start to the
  // last end, so the late lane's chain starts where the run did.
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 10));
  ev.push_back(instant(1, "proc.end", 200));
  ev.push_back(instant(2, "proc.start", 400));
  ev.push_back(instant(2, "proc.end", 900));

  const CriticalPath cp = analyze_trace(ev, 0, 1000);
  EXPECT_EQ(cp.total_ns, 890u);
  EXPECT_EQ(cp.category(CpCategory::kCompute), 890u);
}

TEST(AnalyzeTraceTest, EmptyWindow) {
  std::vector<Tracer::Recorded> ev;
  ev.push_back(instant(1, "proc.start", 5));
  const CriticalPath cp = analyze_trace(ev, 500, 500);
  EXPECT_EQ(cp.total_ns, 0u);
}

}  // namespace
}  // namespace mc::obs
