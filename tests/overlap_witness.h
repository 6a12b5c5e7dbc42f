#ifndef TASQ_TESTS_OVERLAP_WITNESS_H_
#define TASQ_TESTS_OVERLAP_WITNESS_H_

// Overlap witness for the concurrency tests: records the most threads that
// were ever inside a region at once. A test that claims concurrency asserts
// `overlapped()`, so a run that was serialized fails instead of passing
// vacuously.
//
// Relaxed ordering throughout: `inside_` is one atomic, so its RMWs are
// totally ordered, and an increment that reads 1 happened while another
// thread's increment was not yet undone. That is all the witness claims.

#include <atomic>
#include <chrono>
#include <thread>

namespace tasq_test {

class OverlapWitness {
 public:
  // Threads keep waiting for an overlap until `patience` after
  // construction; past that deadline a serialized run fails fast.
  explicit OverlapWitness(
      std::chrono::steady_clock::duration patience = std::chrono::seconds(10))
      : deadline_(std::chrono::steady_clock::now() + patience) {}

  void Enter() {
    int now = inside_.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = peak_.load(std::memory_order_relaxed);
    while (now > seen && !peak_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }
  void Exit() { inside_.fetch_sub(1, std::memory_order_relaxed); }

  int peak() const { return peak_.load(std::memory_order_relaxed); }
  bool overlapped() const { return peak() >= 2; }

  // True while no overlap has been seen and the deadline has not passed:
  // the condition for a stress loop to run past its minimum.
  bool KeepWaiting() const {
    return !overlapped() && std::chrono::steady_clock::now() < deadline_;
  }

  // Yields while KeepWaiting(), then returns overlapped(). Called from
  // inside the region, it makes the first thread in wait for a second one
  // to join it, which a truly concurrent runner lets happen and a
  // serialized one never does.
  bool AwaitOverlap() const {
    while (KeepWaiting()) std::this_thread::yield();
    return overlapped();
  }

 private:
  const std::chrono::steady_clock::time_point deadline_;
  std::atomic<int> inside_{0};
  std::atomic<int> peak_{0};
};

// Enter on construction, Exit on destruction.
class OverlapScope {
 public:
  explicit OverlapScope(OverlapWitness& witness) : witness_(witness) {
    witness_.Enter();
  }
  ~OverlapScope() { witness_.Exit(); }

  OverlapScope(const OverlapScope&) = delete;
  OverlapScope& operator=(const OverlapScope&) = delete;

 private:
  OverlapWitness& witness_;
};

}  // namespace tasq_test

#endif  // TASQ_TESTS_OVERLAP_WITNESS_H_
