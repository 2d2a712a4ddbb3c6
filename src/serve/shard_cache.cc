#include "serve/shard_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dcmt {
namespace serve {

ConsistentHashRing::ConsistentHashRing(int num_shards, int replicas)
    : num_shards_(num_shards) {
  if (num_shards < 1 || replicas < 1) {
    std::fprintf(stderr,
                 "ConsistentHashRing: num_shards and replicas must be >= 1\n");
    std::abort();
  }
  points_.reserve(static_cast<std::size_t>(num_shards) *
                  static_cast<std::size_t>(replicas));
  for (int shard = 0; shard < num_shards; ++shard) {
    for (int replica = 0; replica < replicas; ++replica) {
      const std::uint64_t point =
          Mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(shard))
                 << 32) |
                static_cast<std::uint32_t>(replica));
      points_.push_back({point, shard});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Ties broken by shard id so the ring is a total order and
              // every instance agrees on ownership.
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int ConsistentHashRing::ShardFor(std::uint64_t key) const {
  const std::uint64_t h = Mix64(key);
  // First ring point clockwise of h, wrapping past the top.
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, std::uint64_t hash) {
                               return p.hash < hash;
                             });
  if (it == points_.end()) it = points_.begin();
  return it->shard;
}

ShardedEmbeddingCache::ShardedEmbeddingCache(int num_shards, int rows_per_shard,
                                             const EmbeddingRowSource* source,
                                             int ring_replicas)
    : ring_(num_shards, ring_replicas),
      rows_per_shard_(rows_per_shard),
      shards_(static_cast<std::size_t>(num_shards)) {
  if (rows_per_shard_ < 1) {
    std::fprintf(stderr,
                 "ShardedEmbeddingCache: rows_per_shard must be >= 1\n");
    std::abort();
  }
  for (Shard& shard : shards_) shard.source = source;
}

int ShardedEmbeddingCache::ShardFor(int table, int id) const {
  return ring_.ShardFor(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(table)) << 32) |
      static_cast<std::uint32_t>(id));
}

bool ShardedEmbeddingCache::Get(int table, int id, std::vector<float>* out,
                                bool* hit) {
  if (hit != nullptr) *hit = false;
  Shard& shard = shards_[static_cast<std::size_t>(ShardFor(table, id))];
  std::lock_guard<std::mutex> lock(shard.mu);
  const RowKey key{table, id};
  auto it = shard.rows.find(key);
  if (it != shard.rows.end()) {
    ++shard.hits;
    if (hit != nullptr) *hit = true;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    *out = it->second.row;
    return true;
  }
  if (shard.source == nullptr) return false;
  std::vector<float> row;
  if (!shard.source->EmbeddingRow(table, id, &row)) return false;
  ++shard.misses;
  if (static_cast<int>(shard.rows.size()) >= rows_per_shard_) {
    const RowKey victim = shard.lru.back();
    auto victim_it = shard.rows.find(victim);
    shard.resident_bytes -= static_cast<std::int64_t>(
        victim_it->second.row.size() * sizeof(float));
    shard.rows.erase(victim_it);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(key);
  shard.resident_bytes +=
      static_cast<std::int64_t>(row.size() * sizeof(float));
  *out = row;
  shard.rows.emplace(key, Entry{std::move(row), shard.lru.begin()});
  return true;
}

void ShardedEmbeddingCache::SetSource(const EmbeddingRowSource* source) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.invalidations += static_cast<std::int64_t>(shard.rows.size());
    shard.rows.clear();
    shard.lru.clear();
    shard.resident_bytes = 0;
    shard.source = source;
  }
}

ShardCacheStats ShardedEmbeddingCache::stats() const {
  ShardCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.invalidations += shard.invalidations;
    stats.resident_rows += static_cast<std::int64_t>(shard.rows.size());
    stats.resident_bytes += shard.resident_bytes;
  }
  return stats;
}

}  // namespace serve
}  // namespace dcmt
