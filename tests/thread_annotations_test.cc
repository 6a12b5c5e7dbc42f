// Runtime behavior of the annotated synchronization wrappers
// (common/mutex.h). The compile-time half of the contract — that Clang's
// -Wthread-safety rejects un-locked access to TASQ_GUARDED_BY fields — is
// enforced by the TASQ_THREAD_SAFETY build in CI (job static-analysis);
// these tests pin down that the wrappers actually lock, unlock, and wake
// the way std::mutex/std::condition_variable do underneath.
//
// Suite names contain "Mutex"/"CondVar" so the TSan matrix leg
// (check.sh / ci.yml, filter Parallel|Cluster|Serve|Mutex|CondVar) runs
// them under the race detector. Every stress case records an overlap
// witness (tests/overlap_witness.h), so a run in which the threads never
// actually contended fails rather than passing vacuously.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "overlap_witness.h"

namespace tasq {
namespace {

using tasq_test::OverlapScope;
using tasq_test::OverlapWitness;

// A guarded counter exercising the annotation macros the way src/ does.
// Under TASQ_THREAD_SAFETY=ON (Clang), removing the MutexLock in Add or
// the TASQ_REQUIRES on AddLocked turns this file into a compile error.
class GuardedCounter {
 public:
  void Add(int delta) TASQ_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    AddLocked(delta);
  }

  int Get() const TASQ_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return value_;
  }

 private:
  void AddLocked(int delta) TASQ_REQUIRES(mutex_) { value_ += delta; }

  mutable Mutex mutex_;
  int value_ TASQ_GUARDED_BY(mutex_) = 0;
};

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  // With real mutual exclusion the total is exact; with a broken lock the
  // lost updates (and TSan) make this fail virtually every run. Each thread
  // runs its minimum, then keeps going until two threads have been inside
  // Add at once (one holding the lock, one waiting for it).
  constexpr int kThreads = 4;
  constexpr int kMinIncrementsPerThread = 25000;
  GuardedCounter counter;
  OverlapWitness witness;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      int mine = 0;
      while (mine < kMinIncrementsPerThread || witness.KeepWaiting()) {
        OverlapScope scope(witness);
        counter.Add(1);
        ++mine;
      }
      total.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(witness.overlapped()) << "no two threads ever contended";
  EXPECT_EQ(counter.Get(), total.load());
}

TEST(MutexTest, MutexLockReleasesAtScopeExit) {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  // If the scope above leaked the lock, this Lock would deadlock (and the
  // test harness timeout would flag it).
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, LockIsReacquirableAcrossThreads) {
  // The same mutex taken alternately from two threads: a handoff through
  // Lock/Unlock must neither deadlock nor corrupt the guarded value. Both
  // threads keep going past their minimum until they have overlapped.
  constexpr int kMinRounds = 1000;
  Mutex mu;
  int shared = 0;  // Guarded by mu.
  OverlapWitness witness;
  auto hammer = [&]() {
    int mine = 0;
    while (mine < kMinRounds || witness.KeepWaiting()) {
      OverlapScope scope(witness);
      MutexLock lock(mu);
      ++shared;
      ++mine;
    }
    return mine;
  };
  int other_rounds = 0;
  std::thread other([&]() { other_rounds = hammer(); });
  int my_rounds = hammer();
  other.join();
  EXPECT_TRUE(witness.overlapped()) << "the two threads never contended";
  MutexLock lock(mu);
  EXPECT_EQ(shared, my_rounds + other_rounds);
}

TEST(CondVarTest, WaitWakesOnNotifyOne) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // Guarded by mu.
  bool seen = false;   // Guarded by mu.

  std::thread waiter([&]() {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    seen = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(mu);
  EXPECT_TRUE(seen);
}

TEST(CondVarTest, NotifyBeforeWaitIsNotLost) {
  // The waiter checks the predicate under the lock before sleeping, so a
  // notification that happens-before the wait cannot be lost — the classic
  // reason Wait must be called in a predicate loop.
  Mutex mu;
  CondVar cv;
  bool ready = false;  // Guarded by mu.
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();  // No one is waiting yet.
  std::thread waiter([&]() {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
  });
  waiter.join();  // Terminates because the predicate is already true.
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  // NotifyAll is issued only once every waiter is asleep inside Wait (the
  // witness: all of them in the wait region at once), so each of them must
  // be woken by it rather than find the predicate already true.
  constexpr size_t kWaiters = 4;
  Mutex mu;
  CondVar cv;
  bool go = false;        // Guarded by mu.
  size_t waiting = 0;     // Guarded by mu.
  size_t awake = 0;       // Guarded by mu.
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (size_t i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&]() {
      MutexLock lock(mu);
      ++waiting;  // Wait releases mu only once this thread sleeps.
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t peak_waiting = 0;
  while (peak_waiting < kWaiters &&
         std::chrono::steady_clock::now() < deadline) {
    {
      MutexLock lock(mu);
      peak_waiting = waiting;
    }
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(peak_waiting, kWaiters) << "not every waiter was asleep at once";
  MutexLock lock(mu);
  EXPECT_EQ(awake, kWaiters);
}

TEST(CondVarTest, WaitReacquiresTheMutexBeforeReturning) {
  // Producer/consumer ping-pong: every Wait return must hold the lock, or
  // the unprotected increments would race (TSan) and the alternation
  // invariant would break.
  Mutex mu;
  CondVar cv;
  int turn = 0;  // Guarded by mu. Even: main's turn; odd: worker's turn.
  constexpr int kRounds = 500;

  OverlapWitness witness;  // Both threads inside their round loops.

  std::thread worker([&]() {
    OverlapScope scope(witness);
    for (int i = 0; i < kRounds; ++i) {
      MutexLock lock(mu);
      while (turn % 2 == 0) cv.Wait(mu);
      ++turn;
      cv.NotifyOne();
    }
  });
  {
    OverlapScope scope(witness);
    for (int i = 0; i < kRounds; ++i) {
      MutexLock lock(mu);
      while (turn % 2 == 1) cv.Wait(mu);
      ++turn;
      cv.NotifyOne();
    }
  }
  worker.join();
  EXPECT_TRUE(witness.overlapped()) << "the ping-pong never overlapped";
  MutexLock lock(mu);
  EXPECT_EQ(turn, 2 * kRounds);
}

}  // namespace
}  // namespace tasq
