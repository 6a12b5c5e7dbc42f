#include "serve/cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace tasq {

namespace {

// A shard must hold enough entries for its LRU order to approximate the
// global one. Measured at the default 4096 entries on a 4-core Xeon,
// 1 / 4 / 16 shards: GetInto alone from 4 threads, 2.4M / 4.2M / 7.1M
// hits/s; warm TryScoreCached from 4 threads (microbench_serving), 1.1M /
// 1.8M / 2.1M; tasqbench `recurring` p50_us 5.0 / - / 5.0 us (its two
// workers rarely meet on a lock).
constexpr size_t kMinShardEntries = 256;
constexpr size_t kMaxShards = 16;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t ShardCount(size_t capacity) {
  size_t shards = 1;
  while (shards < kMaxShards && capacity / (2 * shards) >= kMinShardEntries) {
    shards *= 2;
  }
  return shards;
}

}  // namespace

size_t HashReportCacheKey(const ReportCacheKey& key) {
  // operator== compares reference_tokens with double ==, under which
  // -0.0 == +0.0 — but their bit patterns differ. Hash the canonical zero,
  // or equal keys would land in different buckets (equal keys must hash
  // equal).
  double tokens =
      // num: float-eq canonicalizes -0.0 to +0.0 before hashing
      key.reference_tokens == 0.0 ? 0.0 : key.reference_tokens;
  uint64_t h = Mix(key.fingerprint);
  h = Mix(h ^ (static_cast<uint64_t>(key.model) + 0x9E3779B97F4A7C15ULL));
  h = Mix(h ^ std::bit_cast<uint64_t>(tokens));
  h = Mix(h ^ key.grid_points);
  return static_cast<size_t>(h);
}

ReportCache::ReportCache(size_t capacity)
    : capacity_(capacity),
      shard_mask_(ShardCount(capacity) - 1),
      shards_(std::make_unique<Shard[]>(shard_mask_ + 1)) {
  size_t shard_count = shard_mask_ + 1;
  for (size_t i = 0; i < shard_count; ++i) {
    Shard& shard = shards_[i];
    // The first capacity % shard_count shards take one extra entry, so the
    // shard capacities sum to `capacity`.
    size_t entries =
        capacity / shard_count + (i < capacity % shard_count ? 1 : 0);
    // Node ids are 32-bit.
    TASQ_CHECK_LT(entries, size_t{kNone});
    MutexLock lock(shard.mutex);
    shard.nodes.resize(entries);
    shard.buckets.assign(std::bit_ceil(std::max<size_t>(entries, 1)), kNone);
  }
}

std::optional<WhatIfReport> ReportCache::Get(const ReportCacheKey& key) {
  std::optional<WhatIfReport> report;
  report.emplace();
  if (!GetInto(key, &report.value())) {
    report.reset();
  }
  return report;
}

bool ReportCache::GetInto(const ReportCacheKey& key, WhatIfReport* out) {
  size_t hash = HashReportCacheKey(key);
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mutex);
  uint32_t id = Find(shard, key, hash);
  if (id == kNone) {
    ++shard.misses;
    return false;
  }
  MoveToFront(shard, id);
  ++shard.hits;
  // Copy-assign instead of returning a fresh report: when the caller's
  // buffer is warm (its curve vector's capacity covers this report),
  // libstdc++ reuses the storage and the hit allocates nothing.
  *out = shard.nodes[id].report;
  return true;
}

void ReportCache::Put(const ReportCacheKey& key, const WhatIfReport& report) {
  if (capacity_ == 0) return;
  size_t hash = HashReportCacheKey(key);
  Shard& shard = ShardOf(hash);
  MutexLock lock(shard.mutex);
  uint32_t id = Find(shard, key, hash);
  if (id != kNone) {
    shard.nodes[id].report = report;
    MoveToFront(shard, id);
    return;
  }
  if (shard.used < shard.nodes.size()) {
    id = shard.used++;
  } else {
    // Recycle the least recently used node.
    id = shard.tail;
    Unchain(shard, id);
    Unlink(shard, id);
    ++shard.evictions;
  }
  Node& node = shard.nodes[id];
  node.key = key;
  node.hash = hash;
  node.report = report;
  uint32_t& bucket = shard.buckets[hash & (shard.buckets.size() - 1)];
  node.chain = bucket;
  bucket = id;
  LinkFront(shard, id);
  ++shard.insertions;
}

ReportCacheCounters ReportCache::counters() const {
  ReportCacheCounters counters;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    counters.hits += shard.hits;
    counters.misses += shard.misses;
    counters.evictions += shard.evictions;
    counters.insertions += shard.insertions;
    counters.size += shard.used;
  }
  counters.capacity = capacity_;
  return counters;
}

uint32_t ReportCache::Find(const Shard& shard, const ReportCacheKey& key,
                          size_t hash) {
  uint32_t id = shard.buckets[hash & (shard.buckets.size() - 1)];
  while (id != kNone) {
    const Node& node = shard.nodes[id];
    if (node.hash == hash && node.key == key) return id;
    id = node.chain;
  }
  return kNone;
}

void ReportCache::Unchain(Shard& shard, uint32_t id) {
  // Walks by node id: a key that equals nothing, not even itself (NaN
  // tokens), must still leave its chain when its node is recycled.
  uint32_t* link =
      &shard.buckets[shard.nodes[id].hash & (shard.buckets.size() - 1)];
  while (*link != id) link = &shard.nodes[*link].chain;
  *link = shard.nodes[id].chain;
}

void ReportCache::LinkFront(Shard& shard, uint32_t id) {
  Node& node = shard.nodes[id];
  node.prev = kNone;
  node.next = shard.head;
  if (shard.head != kNone) {
    shard.nodes[shard.head].prev = id;
  } else {
    shard.tail = id;
  }
  shard.head = id;
}

void ReportCache::Unlink(Shard& shard, uint32_t id) {
  const Node& node = shard.nodes[id];
  if (node.prev != kNone) {
    shard.nodes[node.prev].next = node.next;
  } else {
    shard.head = node.next;
  }
  if (node.next != kNone) {
    shard.nodes[node.next].prev = node.prev;
  } else {
    shard.tail = node.prev;
  }
}

void ReportCache::MoveToFront(Shard& shard, uint32_t id) {
  if (shard.head == id) return;
  Unlink(shard, id);
  LinkFront(shard, id);
}

}  // namespace tasq
