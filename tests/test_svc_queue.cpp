#include "svc/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace pcq::svc {
namespace {

using namespace std::chrono_literals;

TEST(BoundedMpmcQueue, RejectsWhenFull) {
  BoundedMpmcQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // bounded: reject, never block
  EXPECT_EQ(q.size(), 3u);

  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.try_push(4));  // space again after the pop
}

TEST(BoundedMpmcQueue, FlushesOnBatchSize) {
  BoundedMpmcQueue<int> q(64);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(int{i}));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 4), 4u);  // max_items caps the batch
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

// Natural batching: a partial batch leaves as soon as the ring is empty
// instead of waiting for more items. The bound is loose enough for a
// loaded CI host, and far below any timer-driven gather.
TEST(BoundedMpmcQueue, PartialBatchReturnsWithoutWaiting) {
  BoundedMpmcQueue<int> q(128);
  ASSERT_TRUE(q.try_push(7));
  std::vector<int> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_batch(out, 100), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 50ms);
  EXPECT_EQ(out, std::vector<int>{7});
}

TEST(BoundedMpmcQueue, CloseDrainsThenReturnsZero) {
  BoundedMpmcQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed rejects producers
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8), 2u);  // drains without waiting
  EXPECT_EQ(q.pop_batch(out, 8), 0u);  // then always 0
}

TEST(BoundedMpmcQueue, CloseWakesBlockedConsumer) {
  BoundedMpmcQueue<int> q(4);
  std::thread consumer([&q] {
    std::vector<int> out;
    EXPECT_EQ(q.pop_batch(out, 4), 0u);
  });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
}

// The TSan target: concurrent producers and consumers moving every element
// exactly once, with rejections retried.
TEST(BoundedMpmcQueue, ConcurrentProducersConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  BoundedMpmcQueue<int> q(64);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      std::vector<int> out;
      for (;;) {
        out.clear();
        const std::size_t n = q.pop_batch(out, 16);
        if (n == 0) return;  // closed and drained
        for (std::size_t i = 0; i < n; ++i)
          sum.fetch_add(static_cast<std::uint64_t>(out[i]),
                        std::memory_order_relaxed);
        popped.fetch_add(n, std::memory_order_relaxed);
      }
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!q.try_push(int{value})) std::this_thread::yield();
      }
    });
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

}  // namespace
}  // namespace pcq::svc
