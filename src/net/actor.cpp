#include "net/actor.h"

#include "obs/tracer.h"

namespace mc::net {

Actor::Actor(Fabric& fabric, Endpoint self)
    : fabric_(fabric), self_(self), dispatch_run_([this] {
        for (const Message& m : run_) deliver(m);
      }) {}

void Actor::on(std::uint16_t kind, Handler h) {
  MC_CHECK(kind < handlers_.size());
  handlers_[kind] = std::move(h);
}

void Actor::on_run(std::uint16_t kind, RunHook hook) {
  run_kind_ = kind;
  run_hook_ = std::move(hook);
}

void Actor::start() {
  MC_CHECK(!thread_.joinable());
  thread_ = std::thread([this] {
    while (step()) {
    }
  });
}

bool Actor::step() {
  if (!fabric_.drain(self_, batch_)) return false;
  const std::span<const Message> msgs(batch_);
  for (std::size_t i = 0; i < msgs.size();) {
    if (!run_hook_ || msgs[i].kind != run_kind_) {
      deliver(msgs[i++]);
      continue;
    }
    std::size_t end = i + 1;
    while (end < msgs.size() && msgs[end].kind == run_kind_) ++end;
    run_ = msgs.subspan(i, end - i);
    run_hook_(dispatch_run_);
    i = end;
  }
  if (after_batch_) after_batch_();
  return true;
}

void Actor::deliver(const Message& m) {
  obs::TraceSpan span("deliver", "net", {"kind", m.kind}, {"src", m.src});
  // Close the message's flow inside the deliver span so the Perfetto
  // arrow from its send binds to this slice.
  obs::trace_flow_end("msg", "net", m.trace_id);
  if (m.kind < handlers_.size() && handlers_[m.kind]) handlers_[m.kind](m);
}

}  // namespace mc::net
