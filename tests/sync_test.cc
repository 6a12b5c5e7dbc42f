// Stress and semantics tests for the lock-free primitive in
// src/common/sync/: the bounded MPSC ring.
//
// Every suite name starts with `Sync` on purpose: the TSan leg of
// scripts/check.sh (and the ci.yml tsan job — PR 3 taught us the two
// regexes drift unless both are updated) selects these suites by that
// prefix, so the ring hand-off is exercised under the race detector on
// every CI run, not just when the whole suite happens to run
// instrumented.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync/mpsc_queue.h"
#include "common/sync/pause.h"
#include "gtest/gtest.h"

namespace tasq {
namespace {

TEST(SyncMpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscQueue<int>(1024).capacity(), 1024u);
  EXPECT_EQ(MpscQueue<int>(1025).capacity(), 2048u);
}

TEST(SyncMpscQueueTest, FifoWithinASingleProducer) {
  MpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.TryPop(&out));
}

TEST(SyncMpscQueueTest, FullRingRejectsUntilConsumed) {
  MpscQueue<int> queue(4);
  ASSERT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.TryPush(i));
  }
  EXPECT_FALSE(queue.TryPush(99));  // Full: bounded, never reallocates.
  int out = -1;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(queue.TryPush(99));   // Freed slot is reusable (lap wrap).
  for (int expected : {1, 2, 3, 99}) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out, expected);
  }
}

// The TSan target for the ring: several producers race TryPush while the
// single consumer drains. Every pushed value must arrive exactly once
// (no losses from CAS races, no duplicates from seq mismanagement), and
// per-producer FIFO order must hold.
TEST(SyncMpscQueueTest, ManyProducersOneConsumerDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MpscQueue<uint64_t> queue(256);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Encode producer id and sequence so the consumer can check
        // exactly-once delivery and per-producer order.
        uint64_t token = (static_cast<uint64_t>(p) << 32) |
                         static_cast<uint64_t>(i);
        while (!queue.TryPush(token)) {
          CpuRelax();  // Ring full: wait for the consumer.
        }
      }
    });
  }

  std::vector<std::vector<uint64_t>> seen(kProducers);
  uint64_t token = 0;
  for (int received = 0; received < kProducers * kPerProducer;) {
    if (queue.TryPop(&token)) {
      seen[token >> 32].push_back(token & 0xFFFFFFFFu);
      ++received;
    } else {
      CpuRelax();  // Ring momentarily empty: producers still pushing.
    }
  }
  for (std::thread& t : producers) t.join();

  int out_of_order = 0;
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<size_t>(kPerProducer))
        << "producer " << p << " lost or duplicated elements";
    for (int i = 0; i < kPerProducer; ++i) {
      if (seen[p][static_cast<size_t>(i)] != static_cast<uint64_t>(i)) {
        ++out_of_order;
      }
    }
  }
  EXPECT_EQ(out_of_order, 0) << "per-producer FIFO order violated";
  EXPECT_FALSE(queue.TryPop(&token)) << "stray element after drain";
}

TEST(SyncMpscQueueTest, MovableElementsTransferOwnership) {
  MpscQueue<std::unique_ptr<int>> queue(4);
  ASSERT_TRUE(queue.TryPush(std::make_unique<int>(41)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 41);
  // The vacated slot holds a moved-from (null) pointer, not a copy.
  EXPECT_FALSE(queue.TryPop(&out));
}

}  // namespace
}  // namespace tasq
