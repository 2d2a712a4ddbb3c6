#ifndef DCMT_SERVE_ROUTER_H_
#define DCMT_SERVE_ROUTER_H_

// Sharded multi-instance serving tier (DESIGN.md §16).
//
// The paper deploys DCMT in Alipay Search, where pCTR/pCVR serving is a
// fleet, not one process. serve::Router models that fleet in-process: N
// serve::Engine instances (each its own micro-batcher + dispatcher thread)
// front one hot-swappable FrozenModel. Requests are routed to engines by
// consistent-hashing the user id — users are sticky to an engine, so each
// engine's embedding working set is a stable 1/N slice of the traffic — and
// each request's embedding rows are resolved through the per-shard LRU
// caches of a ShardedEmbeddingCache before scoring (the stand-in for the
// remote parameter-store fetch a production tier performs; scoring itself
// uses the replicated in-process model, so scores stay bit-exact).
//
//   * Deadline propagation: every routed request carries an absolute
//     deadline (config.default_deadline_micros unless the caller passes its
//     own budget), which the engine's micro-batcher folds into its flush
//     policy — a batch flushes at min(first-enqueue + max_wait, earliest
//     member deadline).
//   * Overload policy: bounded queue + reject-with-status. The router never
//     blocks a caller; a full engine queue resolves the future immediately
//     with ServeStatus::kRejectedOverload (counted in dcmt::obs), keeping
//     queueing delay bounded instead of letting latency run away past
//     saturation.
//   * Hot model swap: SwappableModel double-buffers two FrozenModel
//     versions behind an atomic active-slot index. Engines pin a version
//     per batch (ModelSource::Acquire/Release), the swap flips the index
//     and waits for the old version's in-flight batches to drain, so every
//     request completes — zero drops — and every response is computed
//     entirely against exactly one version, never a torn mix. Swap() then
//     rebinds + invalidates the embedding caches and returns the retired
//     version to the caller.
//
// This file is a sanctioned concurrency site (dcmt_lint `concurrency`
// rule): it owns the swap atomics and the engine fleet.

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/obs.h"
#include "data/example.h"
#include "serve/engine.h"
#include "serve/frozen_model.h"
#include "serve/shard_cache.h"

namespace dcmt {
namespace serve {

/// Double-buffered hot-swappable FrozenModel (the v2-checkpoint publish
/// path's serving end). Readers pin the active version with Acquire and
/// must Release when done; Swap installs a new version into the inactive
/// slot, flips the active index atomically, and blocks until the previous
/// version's pins drain — so the returned retired model is safe to destroy
/// and no reader ever observes a torn version.
class SwappableModel : public ModelSource {
 public:
  explicit SwappableModel(std::unique_ptr<const FrozenModel> initial);

  const FrozenModel* Acquire(std::uint64_t* ticket) override;
  void Release(std::uint64_t ticket) override;

  /// Publishes `next` and retires the current version. Serialized across
  /// callers; blocks until every in-flight pin of the retired version is
  /// released. Never blocks Acquire — readers keep scoring throughout.
  std::unique_ptr<const FrozenModel> Swap(
      std::unique_ptr<const FrozenModel> next);

  /// Currently active version. Stable only while the caller can rule out a
  /// concurrent Swap (tests, setup); scoring paths use Acquire/Release.
  const FrozenModel* active() const {
    return slots_[static_cast<std::size_t>(
                      active_.load(std::memory_order_acquire))]
        .get();
  }

  std::int64_t swaps() const;

 private:
  std::array<std::unique_ptr<const FrozenModel>, 2> slots_;
  std::atomic<int> active_{0};
  std::array<std::atomic<std::int64_t>, 2> inflight_{};
  mutable std::mutex swap_mu_;  // serializes swappers; guards swap_count_
  std::int64_t swap_count_ = 0;
};

/// Router-tier knobs (DESIGN.md §16).
struct RouterConfig {
  /// Engine instances (== embedding cache shards). Production would spread
  /// these over machines; in-process they share core::ThreadPool.
  int num_engines = 2;
  /// Per-engine micro-batcher policy.
  EngineConfig engine;
  /// Request budget applied when Submit is called without a deadline;
  /// <= 0 disables deadline propagation.
  std::int64_t default_deadline_micros = 5000;
  /// Per-shard LRU capacity of the embedding row cache.
  int cache_rows_per_shard = 4096;
  /// Virtual nodes per shard on both hash rings.
  int ring_replicas = 64;
};

/// Aggregated router counters (engine stats summed over the fleet).
struct RouterStats {
  std::int64_t routed = 0;     // requests accepted into some engine's queue
  std::int64_t scored = 0;
  std::int64_t rejected_overload = 0;
  std::int64_t rejected_shutdown = 0;
  std::int64_t rejected_invalid = 0;
  std::int64_t swaps = 0;
  ShardCacheStats cache;
  std::vector<EngineStats> per_engine;
};

/// The serving fleet front end. Thread-safe: any number of client threads
/// may Submit concurrently with one thread calling Swap.
class Router {
 public:
  explicit Router(std::unique_ptr<const FrozenModel> model,
                  RouterConfig config = {});
  ~Router();  // == Shutdown()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one request: resolves its embedding rows through the owning
  /// shard caches, then enqueues into the user's engine with the given
  /// budget (config.default_deadline_micros when omitted). Never blocks:
  /// a request that does not fit the schema, overload, or shutdown resolve
  /// the future immediately with the corresponding rejection status.
  std::future<Score> Submit(const data::Example& example);
  std::future<Score> Submit(const data::Example& example,
                            std::int64_t deadline_micros);

  /// Zero-drop hot model swap; see SwappableModel::Swap. Also rebinds and
  /// invalidates the embedding caches so resident rows never outlive the
  /// version they were fetched from. Returns the retired version.
  std::unique_ptr<const FrozenModel> Swap(
      std::unique_ptr<const FrozenModel> next);

  /// Drains every engine and stops accepting work. Idempotent.
  void Shutdown();

  RouterStats stats() const;

  /// Engine owning `user` under the routing ring (exposed for tests).
  int EngineFor(std::int64_t user) const;
  int num_engines() const { return static_cast<int>(engines_.size()); }
  const Engine& engine(int i) const {
    return *engines_[static_cast<std::size_t>(i)];
  }
  const SwappableModel& model() const { return model_; }
  /// Embedding cache (shared across engines; exposed for tests).
  ShardedEmbeddingCache& cache() { return cache_; }

 private:
  void ResolveEmbeddings(const data::Example& example);

  RouterConfig config_;
  SwappableModel model_;
  ConsistentHashRing user_ring_;
  ShardedEmbeddingCache cache_;
  std::vector<std::unique_ptr<Engine>> engines_;
  int deep_fields_;
  int wide_fields_;

  obs::Counter obs_requests_;
  obs::Counter obs_swaps_;
  obs::Counter obs_cache_hits_;
  obs::Counter obs_cache_misses_;
};

}  // namespace serve
}  // namespace dcmt

#endif  // DCMT_SERVE_ROUTER_H_
