#ifndef DCMT_SERVE_SHARD_CACHE_H_
#define DCMT_SERVE_SHARD_CACHE_H_

// Consistent-hash-sharded embedding serving (DESIGN.md §16).
//
// At fleet scale the embedding tables dominate model bytes (the MLP towers
// are a few hundred KB; the tables grow with vocabulary), so production
// pCTR/pCVR tiers replicate the towers per instance and shard the tables
// across a parameter store. This file provides the two building blocks the
// serve::Router uses to model that split inside one process:
//
//   * ConsistentHashRing — virtual-node consistent hashing. Keys (user ids
//     for request routing, (table,row) pairs for embedding ownership) map
//     to shards such that adding or removing one shard remaps only the
//     keys that shard owns, never reshuffling the rest of the fleet.
//   * ShardedEmbeddingCache — one bounded LRU of embedding rows per shard,
//     in front of an EmbeddingRowSource (the active FrozenModel's tables).
//     A hit serves the row from the shard's cache; a miss fetches from the
//     source (the stand-in for a remote parameter-store read) and evicts
//     the least-recently-used row once the shard is at capacity. SetSource
//     atomically rebinds and invalidates every shard, which is how the
//     router keeps caches coherent across a hot model swap.
//
// Coherence contract (pinned by RouterTest.CacheRowsMatchActiveModel): at
// any instant, every resident row is bit-identical to the bound source's
// row — entries fetched from a previous source cannot survive a rebind.
//
// This file is a sanctioned concurrency site (dcmt_lint `concurrency`
// rule): each cache shard owns a mutex so engines can resolve rows
// concurrently.

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "tensor/random.h"

namespace dcmt {
namespace serve {

/// Consistent hashing over `num_shards` shards with `replicas` virtual
/// nodes per shard. Deterministic: the ring depends only on (num_shards,
/// replicas), so every router instance agrees on ownership.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int num_shards, int replicas = 64);

  /// Owning shard of `key`, in [0, num_shards).
  int ShardFor(std::uint64_t key) const;

  int num_shards() const { return num_shards_; }

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
  };
  int num_shards_;
  std::vector<Point> points_;  // sorted by hash
};

/// Read-only provider of embedding rows, keyed by (table, row id). Tables
/// are indexed deep fields first, then wide fields. serve::FrozenModel is
/// the production implementation; tests plug in fakes.
class EmbeddingRowSource {
 public:
  virtual ~EmbeddingRowSource() = default;
  virtual int EmbeddingTableCount() const = 0;
  /// Vocabulary size (row count) of `table`; 0 when out of range.
  virtual int EmbeddingTableRows(int table) const = 0;
  /// Embedding dimension of `table`; 0 when out of range.
  virtual int EmbeddingTableDim(int table) const = 0;
  /// Copies row `id` of `table` into `*out`; false when out of range.
  virtual bool EmbeddingRow(int table, int id, std::vector<float>* out) const = 0;
};

/// Cache counters, aggregated over shards (monotone except resident_*).
struct ShardCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;      // == fetches from the backing source
  std::int64_t evictions = 0;
  std::int64_t invalidations = 0;  // rows dropped by SetSource rebinds
  std::int64_t resident_rows = 0;
  std::int64_t resident_bytes = 0;
};

/// N per-shard LRU caches of embedding rows in front of one
/// EmbeddingRowSource. Row ownership is consistent-hashed over the shards;
/// each shard caches at most `rows_per_shard` rows. Thread-safe.
class ShardedEmbeddingCache {
 public:
  /// `source` is non-owning and may be null (every Get misses and returns
  /// false until SetSource binds one).
  ShardedEmbeddingCache(int num_shards, int rows_per_shard,
                        const EmbeddingRowSource* source,
                        int ring_replicas = 64);

  ShardedEmbeddingCache(const ShardedEmbeddingCache&) = delete;
  ShardedEmbeddingCache& operator=(const ShardedEmbeddingCache&) = delete;

  /// Resolves one row through its owning shard's cache. On a miss the row
  /// is fetched from the source, inserted, and the shard's LRU row evicted
  /// if the shard was at capacity. Returns false when no source is bound or
  /// (table, id) is out of range. `*hit` (optional) reports whether the row
  /// was served from cache.
  bool Get(int table, int id, std::vector<float>* out, bool* hit = nullptr);

  /// Rebinds the backing source and invalidates every shard atomically
  /// per-shard: after SetSource returns, no resident row predates `source`.
  void SetSource(const EmbeddingRowSource* source);

  /// Owning shard of (table, id) — exposed for tests and stats.
  int ShardFor(int table, int id) const;

  int num_shards() const { return ring_.num_shards(); }
  int rows_per_shard() const { return rows_per_shard_; }

  ShardCacheStats stats() const;

 private:
  struct RowKey {
    int table;
    int id;
    bool operator==(const RowKey& other) const {
      return table == other.table && id == other.id;
    }
  };
  struct RowKeyHash {
    std::size_t operator()(const RowKey& k) const {
      return static_cast<std::size_t>(Mix64(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.table))
           << 32) |
          static_cast<std::uint32_t>(k.id)));
    }
  };
  struct Entry {
    std::vector<float> row;
    std::list<RowKey>::iterator lru_pos;
  };
  /// One cache shard: LRU list (front = most recent) + index. The source
  /// pointer is replicated per shard so Get resolves fetch + insert under
  /// one lock — the coherence contract depends on the fetch and the insert
  /// seeing the same source.
  struct Shard {
    mutable std::mutex mu;
    const EmbeddingRowSource* source = nullptr;
    std::list<RowKey> lru;
    std::unordered_map<RowKey, Entry, RowKeyHash> rows;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t invalidations = 0;
    std::int64_t resident_bytes = 0;
  };

  ConsistentHashRing ring_;
  int rows_per_shard_;
  std::vector<Shard> shards_;
};

}  // namespace serve
}  // namespace dcmt

#endif  // DCMT_SERVE_SHARD_CACHE_H_
