#include "net/mailbox.h"

#include <algorithm>
#include <functional>

namespace mc::net {

bool Mailbox::push(Message m) {
  {
    std::scoped_lock lk(mu_);
    if (closed_) return false;  // late traffic after shutdown is rejected
    heap_.push_back(Entry{std::move(m), arrivals_++});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  cv_.notify_all();
  return true;
}

Message Mailbox::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Message top = std::move(heap_.back().msg);
  heap_.pop_back();
  return top;
}

bool Mailbox::drain(std::vector<Message>& out, std::size_t max) {
  out.clear();
  std::unique_lock lk(mu_);
  for (;;) {
    if (!heap_.empty()) {
      const SimTime now = std::chrono::steady_clock::now();
      const SimTime due = heap_.front().msg.deliver_at;
      if (due <= now) {
        do {
          out.push_back(pop_top());
        } while (out.size() < max && !heap_.empty() &&
                 heap_.front().msg.deliver_at <= now);
        return true;
      }
      // Wait until the head becomes deliverable or something earlier/closing
      // arrives.
      cv_.wait_until(lk, due);
      continue;
    }
    if (closed_) return false;
    cv_.wait(lk);
  }
}

std::optional<Message> Mailbox::recv() {
  std::vector<Message> one;
  if (!drain(one, 1)) return std::nullopt;
  return std::move(one.front());
}

std::optional<Message> Mailbox::try_recv() {
  std::scoped_lock lk(mu_);
  if (heap_.empty()) return std::nullopt;
  if (heap_.front().msg.deliver_at > std::chrono::steady_clock::now()) return std::nullopt;
  return pop_top();
}

void Mailbox::close() {
  {
    std::scoped_lock lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::closed() const {
  std::scoped_lock lk(mu_);
  return closed_;
}

std::size_t Mailbox::pending() const {
  std::scoped_lock lk(mu_);
  return heap_.size();
}

}  // namespace mc::net
