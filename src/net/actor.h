// The endpoint actor: the one consumer every process and manager runs on
// its fabric endpoint (Section 6 models each as an endpoint that consumes
// its FIFO channels).
//
// A component registers what it does with a message — a handler per kind,
// optionally a run hook and an after-batch hook — and then start()s the
// actor, whose thread body is `while (step()) {}`.  step() calls
// Fabric::drain once (the reliability pass and the endpoint's mailbox
// deadlines run inside that call) and dispatches the batch in arrival
// order.  It is the only code that opens a message's `deliver` trace span
// and ends its flow, so every consumer's messages trace the same way
// (docs/TRACING.md).
//
// Join order: declare the actor as its component's last member.  Its
// destructor joins the thread, so the thread is gone before any state its
// handlers touch is destroyed.  Shutdown is Fabric::shutdown() followed by
// join() (or the destructor): the thread exits once its mailbox is closed
// and drained.

#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "net/fabric.h"
#include "net/message.h"

namespace mc::net {

class Actor {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Wraps the dispatch of one maximal run of consecutive messages of the
  /// run kind: the hook calls `dispatch` once, which hands each message of
  /// the run to its handler inside its own deliver span.  A hook takes a
  /// lock or does work once per run around that call.
  using RunHook = std::function<void(const std::function<void()>& dispatch)>;

  Actor(Fabric& fabric, Endpoint self);
  ~Actor() { join(); }

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  // Registration, before start().  Messages of a kind with no handler are
  // dropped (after their span and flow end).
  void on(std::uint16_t kind, Handler h);
  void on_run(std::uint16_t kind, RunHook hook);
  /// Runs once after each drained batch has been dispatched.
  void after_batch(std::function<void()> hook) { after_batch_ = std::move(hook); }

  /// Start the consumer thread: `while (step()) {}`.
  void start();

  /// Drain one batch from the endpoint and dispatch it in arrival order.
  /// Blocks until a message is deliverable; returns false once the
  /// endpoint is closed and drained.  One caller at a time.
  bool step();

  /// Join the consumer thread (the fabric must have been shut down).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void deliver(const Message& m);

  Fabric& fabric_;
  const Endpoint self_;
  std::array<Handler, Fabric::kKindBuckets> handlers_;
  std::uint16_t run_kind_ = 0;
  RunHook run_hook_;
  std::function<void()> after_batch_;
  std::vector<Message> batch_;
  /// The run being dispatched, and the one dispatch callable every run
  /// hook receives (built once, so a run costs no allocation).
  std::span<const Message> run_;
  std::function<void()> dispatch_run_;
  std::thread thread_;
};

/// The deadline of a protocol wait that starts now: a consistency protocol
/// that blocks this long is wedged, and tests want a crisp failure.
inline std::chrono::steady_clock::time_point liveness_deadline() {
  constexpr auto kLivenessDeadline = std::chrono::seconds(30);
  return std::chrono::steady_clock::now() + kLivenessDeadline;
}

/// Wait on `cv` until `pred` holds, failing with `what` past the liveness
/// deadline.  The state `pred` reads is what an actor's handlers change.
template <typename Pred>
void wait_or_die(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
                 const char* what, Pred pred) {
  MC_CHECK_MSG(cv.wait_until(lk, liveness_deadline(), pred), what);
}

}  // namespace mc::net
