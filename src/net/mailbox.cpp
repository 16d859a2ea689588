#include "net/mailbox.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace mc::net {

Mailbox::Mailbox(std::size_t lanes)
    : lane_count_(lanes), lanes_(std::make_unique<Lane[]>(lanes)) {
  MC_CHECK(lanes > 0);
}

bool Mailbox::push(Message m) {
  const SimTime deliver_at = m.deliver_at;
  Lane& lane = lanes_[m.src < lane_count_ ? m.src : m.src % lane_count_];
  {
    std::scoped_lock lk(lane.mu);
    if (closed_.load()) return false;  // late traffic after shutdown is rejected
    Entry& e = lane.items.emplace_back(Entry{std::move(m), 0});
    // The flag is set before the arrival bump: a consumer that sees the
    // bump also sees the flag.
    lane.nonempty.store(true, std::memory_order_relaxed);
    e.arrival = arrivals_.fetch_add(1);
  }
  wake_if_parked(deliver_at);
  return true;
}

void Mailbox::wake_if_parked(SimTime deliver_at) {
  const SimTime::rep due = deliver_at.time_since_epoch().count();
  SimTime::rep until = park_until_.load();
  while (due < until) {
    if (park_until_.compare_exchange_weak(until, kNotParked)) {
      // Taking park_mu_ orders the notify after the consumer's wait began.
      { std::scoped_lock lk(park_mu_); }
      park_cv_.notify_one();
      wakes_.add();
      return;
    }
  }
}

void Mailbox::collect(bool all) {
  if (!all && arrivals_.load() == collected_) return;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    Lane& lane = lanes_[i];
    if (!all && !lane.nonempty.load(std::memory_order_acquire)) continue;
    {
      std::scoped_lock lk(lane.mu);
      lane.items.swap(scratch_);
      lane.nonempty.store(false, std::memory_order_relaxed);
    }
    collected_ += scratch_.size();
    for (Entry& e : scratch_) {
      held_.push_back(std::move(e));
      std::push_heap(held_.begin(), held_.end(), std::greater<>{});
    }
    scratch_.clear();
  }
}

Message Mailbox::pop_top() {
  std::pop_heap(held_.begin(), held_.end(), std::greater<>{});
  Message top = std::move(held_.back().msg);
  held_.pop_back();
  return top;
}

void Mailbox::park(std::optional<SimTime> until, std::uint64_t collected) {
  const SimTime::rep deadline =
      until ? until->time_since_epoch().count() : std::numeric_limits<SimTime::rep>::max();
  const auto ready = [&] { return arrivals_.load() != collected || closed_.load(); };
  std::unique_lock lk(park_mu_);
  bool blocked = false;
  for (;;) {
    // Armed before the check, and re-armed after a wake-up that found no
    // work: a producer disarms the deadline before it notifies.
    park_until_.store(deadline);
    if (ready()) break;
    if (!blocked) {
      parks_.add();
      blocked = true;
    }
    if (!until) {
      park_cv_.wait(lk);
    } else if (park_cv_.wait_until(lk, *until) == std::cv_status::timeout) {
      break;
    }
    if (ready()) break;
  }
  park_until_.store(kNotParked);
}

bool Mailbox::drain(std::vector<Message>& out, std::size_t max) {
  out.clear();
  std::unique_lock lk(take_mu_);
  for (;;) {
    // Read before collecting: once closed is seen, the locked sweep of every
    // lane picks up each push that was accepted before the close.
    const bool closing = closed_.load();
    collect(closing);
    std::optional<SimTime> until;
    if (!held_.empty()) {
      // Once closed, everything held is released at once: nobody is left
      // to observe simulated latency, and a far-off local deadline (a
      // node's flush-due message) must not hold up shutdown.
      const SimTime now = closing ? SimTime::max() : std::chrono::steady_clock::now();
      until = held_.front().msg.deliver_at;
      if (*until <= now) {
        do {
          out.push_back(pop_top());
        } while (out.size() < max && !held_.empty() && held_.front().msg.deliver_at <= now);
        released_.fetch_add(out.size(), std::memory_order_release);
        return true;
      }
    } else if (closing) {
      return false;
    }
    const std::uint64_t collected = collected_;
    lk.unlock();
    park(until, collected);
    lk.lock();
  }
}

std::optional<Message> Mailbox::recv() {
  std::vector<Message> one;
  if (!drain(one, 1)) return std::nullopt;
  return std::move(one.front());
}

std::optional<Message> Mailbox::try_recv() {
  std::scoped_lock lk(take_mu_);
  collect(false);
  std::optional<Message> got;
  if (!held_.empty() && held_.front().msg.deliver_at <= std::chrono::steady_clock::now()) {
    got = pop_top();
    released_.fetch_add(1, std::memory_order_release);
  }
  // A receiver parked in drain() may not know about what was just collected.
  if (!held_.empty()) wake_if_parked(held_.front().msg.deliver_at);
  return got;
}

void Mailbox::close() {
  closed_.store(true);
  { std::scoped_lock lk(park_mu_); }
  park_cv_.notify_all();
}

bool Mailbox::closed() const { return closed_.load(); }

std::size_t Mailbox::pending() const {
  // released_ first: every release it counts was collected from a push
  // already counted in the arrivals_ read after it.
  const std::uint64_t released = released_.load(std::memory_order_acquire);
  return static_cast<std::size_t>(arrivals_.load() - released);
}

}  // namespace mc::net
