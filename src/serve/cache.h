#ifndef TASQ_SERVE_CACHE_H_
#define TASQ_SERVE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/hot.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "tasq/what_if.h"

namespace tasq {

/// Identity of one scoring request for cache purposes: the job graph's
/// content fingerprint (JobGraph::Fingerprint) plus every scoring knob
/// that changes the report. Two requests with equal keys produce
/// byte-identical WhatIfReports, because scoring a trained pipeline is a
/// pure function of (graph, model, reference tokens, grid resolution).
struct ReportCacheKey {
  uint64_t fingerprint = 0;
  ModelKind model = ModelKind::kNn;
  double reference_tokens = 0.0;
  uint64_t grid_points = 0;

  bool operator==(const ReportCacheKey& other) const {
    return fingerprint == other.fingerprint && model == other.model &&
           reference_tokens == other.reference_tokens &&
           grid_points == other.grid_points;
  }
};

/// Splitmix-style mix of the four key fields — the hash that places a key
/// in its shard and its bucket. A free function so the hot-path
/// analyzer sees the call from GetInto.
TASQ_HOT size_t HashReportCacheKey(const ReportCacheKey& key);

/// Hash for ReportCacheKey; delegates to HashReportCacheKey.
struct ReportCacheKeyHash {
  size_t operator()(const ReportCacheKey& key) const {
    return HashReportCacheKey(key);
  }
};

/// Counter snapshot of a cache instance since construction.
struct ReportCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  size_t size = 0;
  size_t capacity = 0;
};

/// A thread-safe LRU cache of WhatIfReports keyed by request identity.
/// The paper's dominant workload is recurring jobs (same template, same
/// compile-time graph), so the serving layer answers repeats from here
/// and skips model inference entirely. Capacity 0 disables caching (every
/// Get is a miss, Put is a no-op) — handy for A/B benchmarks.
///
/// Design: a fixed number of shards, chosen from the capacity alone
/// (one shard below 512 entries, then one per 256 entries up to 16).
/// Shard capacities sum to `capacity`. Each shard is an O(1) LRU behind
/// its own mutex:
///   - every node is allocated at construction; a node holds one key, its
///     report, its links on a doubly linked recency list, and its link in
///     a hash bucket's chain;
///   - a bucket array (one bucket per node, rounded up to a power of two)
///     heads the chains, so a lookup walks about one node;
///   - Put overwrites the found node, a fresh node, or the recycled tail
///     node in place, so an insert takes the same steps at any
///     capacity. The tail is unchained by its node id, never by key
///     comparison, so a key that equals nothing (a NaN
///     `reference_tokens`) still leaves;
///   - GetInto splices the node to the list front and copy-assigns its
///     report into the caller's buffer.
/// A lookup and an insert each hold one shard lock for a constant number
/// of steps, and GetInto never allocates under it. A single-shard cache
/// is an exact LRU (the unit tests pin the order); a sharded one is LRU
/// within each shard. The counters live in the shards too, so they need
/// no atomics: each is updated under its shard's lock.
class ReportCache {
 public:
  explicit ReportCache(size_t capacity);

  /// Returns the cached report and refreshes its recency, or nullopt on a
  /// miss. Counts the hit/miss either way. Allocating convenience over
  /// GetInto; the serving fast path uses GetInto directly.
  std::optional<WhatIfReport> Get(const ReportCacheKey& key);

  /// Copies the cached report into `*out` (refreshing recency) and
  /// returns true, or returns false on a miss leaving `*out` untouched.
  /// Counts the hit/miss either way. Takes one shard lock
  /// (scripts/hot_locks.txt) and is steady-state allocation-free: the
  /// copy-assign into a warm `*out` reuses the curve vector's existing
  /// capacity, so a caller that recycles its report buffer pays zero
  /// heap allocations per hit (pinned by tests/hot_path_test.cc).
  TASQ_HOT bool GetInto(const ReportCacheKey& key, WhatIfReport* out);

  /// Inserts (or refreshes) `report`, evicting the shard's least recently
  /// used entry when the shard is full. Copy-assigns into a node built at
  /// construction, so its step count does not depend on the capacity.
  void Put(const ReportCacheKey& key, const WhatIfReport& report);

  /// Point-in-time counters, summed over the shards. Each shard's share
  /// is read under its lock; the sum is exact whenever no operation is in
  /// flight (true everywhere it is read: tests and post-drain stats).
  ReportCacheCounters counters() const;

 private:
  /// Marks an empty bucket and the ends of the recency list and chains.
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    ReportCacheKey key;
    size_t hash = 0;
    uint32_t prev = kNone;   // Toward the most recently used end.
    uint32_t next = kNone;   // Toward the least recently used end.
    uint32_t chain = kNone;  // Next node in the same bucket.
    WhatIfReport report;
  };

  /// One independently locked LRU.
  struct Shard {
    Mutex mutex;
    uint32_t head TASQ_GUARDED_BY(mutex) = kNone;  // Most recently used.
    uint32_t tail TASQ_GUARDED_BY(mutex) = kNone;  // Least recently used.
    uint32_t used TASQ_GUARDED_BY(mutex) = 0;      // Live nodes.
    uint64_t hits TASQ_GUARDED_BY(mutex) = 0;
    uint64_t misses TASQ_GUARDED_BY(mutex) = 0;
    uint64_t evictions TASQ_GUARDED_BY(mutex) = 0;
    uint64_t insertions TASQ_GUARDED_BY(mutex) = 0;
    /// Sized once to the shard's capacity; the first `used` are live.
    std::vector<Node> nodes TASQ_GUARDED_BY(mutex);
    /// First node of each chain; a power-of-two count.
    std::vector<uint32_t> buckets TASQ_GUARDED_BY(mutex);
  };

  Shard& ShardOf(size_t hash) const {
    return shards_[(hash >> 48) & shard_mask_];
  }

  /// The live node holding `key`, or kNone.
  static uint32_t Find(const Shard& shard, const ReportCacheKey& key,
                       size_t hash) TASQ_REQUIRES(shard.mutex);
  /// Removes node `id` from its bucket's chain.
  static void Unchain(Shard& shard, uint32_t id) TASQ_REQUIRES(shard.mutex);
  static void LinkFront(Shard& shard, uint32_t id) TASQ_REQUIRES(shard.mutex);
  static void Unlink(Shard& shard, uint32_t id) TASQ_REQUIRES(shard.mutex);
  static void MoveToFront(Shard& shard, uint32_t id)
      TASQ_REQUIRES(shard.mutex);

  const size_t capacity_;    // Immutable after construction.
  const size_t shard_mask_;  // Shard count - 1; the count is a power of 2.
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace tasq

#endif  // TASQ_SERVE_CACHE_H_
