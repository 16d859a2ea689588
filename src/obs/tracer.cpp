#include "obs/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace mc::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
std::atomic<std::uint64_t> g_next_flow_id{0};
}  // namespace detail

struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t tid) : tid(tid) {}
  const std::uint32_t tid;
  // Grown on demand up to kRingCapacity (most threads record far fewer
  // events than the cap; preallocating the full ring per thread would cost
  // ~4.7 MB each across the many short-lived systems a bench run creates).
  std::vector<TraceEvent> events;
  // Total appended; the ring index is count % kRingCapacity.  Relaxed is
  // enough: dump_chrome_trace is documented to run only after recording
  // threads have quiesced.
  std::atomic<std::uint64_t> count{0};
};

namespace {

// Buffers live for the whole process (threads may outlive a dump and a
// dump may outlive its threads), so the registry owns them.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Tracer::ThreadBuffer>>& registry() {
  static auto* r = new std::vector<std::unique_ptr<Tracer::ThreadBuffer>>();
  return *r;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t buffer_dropped(const Tracer::ThreadBuffer& buf) {
  const std::uint64_t n = buf.count.load(std::memory_order_relaxed);
  return n > Tracer::kRingCapacity ? n - Tracer::kRingCapacity : 0;
}

}  // namespace

Tracer& Tracer::instance() {
  static auto* t = new Tracer();
  (void)trace_epoch();  // pin the epoch no later than first use
  return *t;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - trace_epoch())
                                        .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    std::scoped_lock lk(g_registry_mu);
    auto& reg = registry();
    reg.push_back(std::make_unique<ThreadBuffer>(static_cast<std::uint32_t>(reg.size())));
    return reg.back().get();
  }();
  return *buf;
}

void Tracer::record(const TraceEvent& ev) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  const std::uint64_t n = buf.count.load(std::memory_order_relaxed);
  if (buf.events.size() < kRingCapacity) {
    buf.events.push_back(ev);
  } else {
    buf.events[n % kRingCapacity] = ev;
  }
  buf.count.store(n + 1, std::memory_order_relaxed);
}

std::uint64_t Tracer::events_recorded() const {
  std::scoped_lock lk(g_registry_mu);
  std::uint64_t total = 0;
  for (const auto& buf : registry()) total += buf->count.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  std::scoped_lock lk(g_registry_mu);
  std::uint64_t dropped = 0;
  for (const auto& buf : registry()) dropped += buffer_dropped(*buf);
  return dropped;
}

std::vector<Tracer::Recorded> Tracer::snapshot() const {
  std::scoped_lock lk(g_registry_mu);
  std::vector<Recorded> out;
  for (const auto& buf : registry()) {
    const std::uint64_t n = buf->count.load(std::memory_order_relaxed);
    const std::uint64_t kept = n < kRingCapacity ? n : kRingCapacity;
    for (std::uint64_t i = n - kept; i < n; ++i) {
      out.push_back({buf->tid, buf->events[i % kRingCapacity]});
    }
  }
  return out;
}

void Tracer::clear() {
  std::scoped_lock lk(g_registry_mu);
  for (const auto& buf : registry()) {
    buf->count.store(0, std::memory_order_relaxed);
    buf->events.clear();
  }
}

namespace {

void emit_event(JsonWriter& w, const TraceEvent& ev, std::uint32_t tid) {
  w.begin_object();
  w.key("name").value(ev.name != nullptr ? ev.name : "?");
  w.key("cat").value(ev.cat != nullptr ? ev.cat : "mc");
  w.key("ph").value(std::string_view(&ev.phase, 1));
  // Chrome trace timestamps are microseconds; keep ns resolution as a
  // fraction.
  w.key("ts").value(static_cast<double>(ev.ts_ns) / 1e3);
  if (ev.phase == 'X') w.key("dur").value(static_cast<double>(ev.dur_ns) / 1e3);
  if (ev.phase == 'i') w.key("s").value("t");  // thread-scoped instant
  if (ev.phase == 's' || ev.phase == 'f') w.key("id").value(ev.flow_id);
  if (ev.phase == 'f') w.key("bp").value("e");  // bind to enclosing slice
  w.key("pid").value(std::uint64_t{1});
  w.key("tid").value(static_cast<std::uint64_t>(tid));
  if (ev.arg0.name != nullptr || ev.arg1.name != nullptr) {
    w.key("args").begin_object();
    if (ev.arg0.name != nullptr) w.key(ev.arg0.name).value(ev.arg0.value);
    if (ev.arg1.name != nullptr) w.key(ev.arg1.name).value(ev.arg1.value);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  JsonWriter w(0);  // compact: trace files get large
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  std::scoped_lock lk(g_registry_mu);
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  for (const auto& buf : registry()) {
    recorded += buf->count.load(std::memory_order_relaxed);
    dropped += buffer_dropped(*buf);
    const std::uint64_t n = buf->count.load(std::memory_order_relaxed);
    const std::uint64_t kept = n < kRingCapacity ? n : kRingCapacity;
    // Ring order is completion order (spans are recorded when they close),
    // so sort each thread's window by start time: viewers cope either way,
    // but a ts-sorted file is validatable (tools/validate_trace.py) and
    // diffs sanely.
    std::vector<const TraceEvent*> window;
    window.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t i = n - kept; i < n; ++i) {
      window.push_back(&buf->events[i % kRingCapacity]);
    }
    std::stable_sort(window.begin(), window.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->ts_ns < b->ts_ns;
                     });
    for (const TraceEvent* ev : window) emit_event(w, *ev, buf->tid);
  }
  w.end_array();
  // Truncation metadata: droppedEvents > 0 means the rings wrapped and the
  // file holds only the most recent window per thread (docs/TRACING.md); a
  // thread holding ringCapacity events may have wrapped.
  w.key("otherData").begin_object();
  w.key("recordedEvents").value(recorded);
  w.key("droppedEvents").value(dropped);
  w.key("ringCapacity").value(static_cast<std::uint64_t>(kRingCapacity));
  w.end_object();
  w.end_object();
  return w.str();
}

bool Tracer::dump_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace mc::obs
