// Bounded MPMC queue with micro-batch pop — the coalescing point of the
// query service.
//
// Producers (any number of client threads) push single requests and are
// never blocked: a full queue rejects the push, which is the service's
// backpressure signal (admission control rather than unbounded buffering).
// Consumers pop *batches*: pop_batch blocks until the ring holds an
// element, then takes whatever is queued, up to `max_items`, and returns
// at once. There is no timer: a batch holds exactly the backlog that built
// up while its consumer was busy, so it grows with load and an idle queue
// hands over a single request without delay. A mutex+condvar ring keeps
// every path TSan-clean under the std::thread backend; the hot-path cost
// is one uncontended lock per push and one per popped batch. The locking
// discipline is capability-annotated (util/thread_annotations.hpp), so the
// `thread-safety` preset proves every ring access holds mu_.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace pcq::svc {

template <typename T>
class BoundedMpmcQueue {
 public:
  /// Guarded members are initialized in the member-init list (exempt from
  /// the capability analysis — no other thread can exist yet).
  explicit BoundedMpmcQueue(std::size_t capacity)
      : ring_(ring_size_for(capacity)), capacity_(capacity),
        mask_(ring_size_for(capacity) - 1) {}

  /// Non-blocking push. Returns false when the queue is full or closed —
  /// the caller turns that into a kRejected response.
  bool try_push(T&& item) {
    {
      util::MutexLock lock(mu_);
      if (closed_ || count_ == capacity_) return false;
      ring_[(head_ + count_) & mask_] = std::move(item);
      ++count_;
    }
    cv_.notify_one();
    return true;
  }

  /// Pops up to `max_items` into `out` (appended): blocks until an element
  /// is queued, then takes what the ring holds, up to `max_items`, without
  /// waiting for more. Returns the number of items appended — 0 only once
  /// the queue is closed and drained; a close() wakes a blocked consumer.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    PCQ_CHECK(max_items > 0);
    util::MutexLock lock(mu_);
    // Explicit predicate loop (not a wait lambda) so the guarded reads sit
    // in the scope that holds the capability; spurious wakeups re-check.
    while (count_ == 0 && !closed_) cv_.wait(lock);
    const std::size_t taken = std::min(count_, max_items);
    for (std::size_t i = 0; i < taken; ++i) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) & mask_;
    }
    count_ -= taken;
    return taken;
  }

  /// Stops producers; consumers drain the remainder and then see 0.
  void close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    util::MutexLock lock(mu_);
    return count_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// The ring is sized to the next power of two so slot indexing is a
  /// mask instead of a modulo; `capacity_` still bounds occupancy.
  static std::size_t ring_size_for(std::size_t capacity) {
    PCQ_CHECK(capacity > 0);
    std::size_t ring = 1;
    while (ring < capacity) ring <<= 1;
    return ring;
  }

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::vector<T> ring_ PCQ_GUARDED_BY(mu_);
  std::size_t capacity_;  ///< immutable after construction
  std::size_t mask_ = 0;  ///< immutable after construction
  std::size_t head_ PCQ_GUARDED_BY(mu_) = 0;   ///< index of the oldest element
  std::size_t count_ PCQ_GUARDED_BY(mu_) = 0;  ///< elements currently queued
  bool closed_ PCQ_GUARDED_BY(mu_) = false;
};

}  // namespace pcq::svc
