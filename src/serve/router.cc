#include "serve/router.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

namespace dcmt {
namespace serve {

// ---------------------------------------------------------------------------
// SwappableModel
// ---------------------------------------------------------------------------

SwappableModel::SwappableModel(std::unique_ptr<const FrozenModel> initial) {
  if (initial == nullptr) {
    std::fprintf(stderr, "SwappableModel: initial model must be non-null\n");
    std::abort();
  }
  slots_[0] = std::move(initial);
}

const FrozenModel* SwappableModel::Acquire(std::uint64_t* ticket) {
  // Left-right pinning: bump the slot's in-flight count, then re-check that
  // the slot is still active. A swap that flipped away between the load and
  // the bump sees our pin (both are seq_cst) and waits for it — but we would
  // be pinning the *retiring* version after its successor was published, so
  // retry on the new slot instead. The loop runs at most a handful of times
  // even under a swap storm: each retry observes a strictly newer flip.
  for (;;) {
    const int slot = active_.load(std::memory_order_acquire);
    inflight_[static_cast<std::size_t>(slot)].fetch_add(
        1, std::memory_order_seq_cst);
    if (active_.load(std::memory_order_seq_cst) == slot) {
      *ticket = static_cast<std::uint64_t>(slot);
      return slots_[static_cast<std::size_t>(slot)].get();
    }
    inflight_[static_cast<std::size_t>(slot)].fetch_sub(
        1, std::memory_order_seq_cst);
  }
}

void SwappableModel::Release(std::uint64_t ticket) {
  inflight_[static_cast<std::size_t>(ticket)].fetch_sub(
      1, std::memory_order_seq_cst);
}

std::unique_ptr<const FrozenModel> SwappableModel::Swap(
    std::unique_ptr<const FrozenModel> next) {
  if (next == nullptr) {
    std::fprintf(stderr, "SwappableModel::Swap: next model must be non-null\n");
    std::abort();
  }
  std::lock_guard<std::mutex> lock(swap_mu_);
  const int old_slot = active_.load(std::memory_order_relaxed);
  const int target = 1 - old_slot;
  // A straggler from before the *previous* swap could still pin the target
  // slot for an instant (Acquire's bump-then-recheck window); wait it out
  // before installing over the slot.
  while (inflight_[static_cast<std::size_t>(target)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  slots_[static_cast<std::size_t>(target)] = std::move(next);
  active_.store(target, std::memory_order_seq_cst);
  // Quiesce the retiring version: once its pin count hits zero every batch
  // scored against it has been fulfilled (engines Release only after
  // fulfilling all promises), so the caller may destroy it — zero drops.
  while (inflight_[static_cast<std::size_t>(old_slot)].load(
             std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  ++swap_count_;
  return std::move(slots_[static_cast<std::size_t>(old_slot)]);
}

std::int64_t SwappableModel::swaps() const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return swap_count_;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Router::Router(std::unique_ptr<const FrozenModel> model, RouterConfig config)
    : config_(config),
      model_(std::move(model)),
      user_ring_(config.num_engines > 0 ? config.num_engines : 1,
                 config.ring_replicas),
      cache_(config.num_engines > 0 ? config.num_engines : 1,
             config.cache_rows_per_shard, model_.active(),
             config.ring_replicas),
      deep_fields_(
          static_cast<int>(model_.active()->schema().deep_fields.size())),
      wide_fields_(
          static_cast<int>(model_.active()->schema().wide_fields.size())) {
  if (config_.num_engines < 1) {
    std::fprintf(stderr, "Router: num_engines must be >= 1\n");
    std::abort();
  }
  engines_.reserve(static_cast<std::size_t>(config_.num_engines));
  for (int i = 0; i < config_.num_engines; ++i) {
    engines_.push_back(std::make_unique<Engine>(&model_, config_.engine));
  }
  obs::Registry& reg = obs::Registry::Global();
  obs_requests_ = reg.counter("dcmt_router_requests_total");
  obs_swaps_ = reg.counter("dcmt_router_swaps_total");
  obs_cache_hits_ = reg.counter("dcmt_router_embed_cache_hits_total");
  obs_cache_misses_ = reg.counter("dcmt_router_embed_cache_misses_total");
}

Router::~Router() { Shutdown(); }

int Router::EngineFor(std::int64_t user) const {
  return user_ring_.ShardFor(static_cast<std::uint64_t>(user));
}

void Router::ResolveEmbeddings(const data::Example& example) {
  // Touch every embedding row the request needs through its owning shard's
  // cache — the stand-in for the gather a remote parameter store would
  // serve. Scoring reads the replicated model directly, so a failed resolve
  // (a variant without shared embedding tables, or a table index past the
  // source's count) costs one rejected source probe and nothing else.
  std::vector<float> row;
  bool hit = false;
  const int deep = static_cast<int>(example.deep_ids.size());
  for (int f = 0; f < deep && f < deep_fields_; ++f) {
    if (cache_.Get(f, example.deep_ids[static_cast<std::size_t>(f)], &row,
                   &hit)) {
      (hit ? obs_cache_hits_ : obs_cache_misses_).Inc();
    }
  }
  const int wide = static_cast<int>(example.wide_ids.size());
  for (int f = 0; f < wide && f < wide_fields_; ++f) {
    if (cache_.Get(deep_fields_ + f,
                   example.wide_ids[static_cast<std::size_t>(f)], &row,
                   &hit)) {
      (hit ? obs_cache_hits_ : obs_cache_misses_).Inc();
    }
  }
}

std::future<Score> Router::Submit(const data::Example& example) {
  return Submit(example, config_.default_deadline_micros);
}

std::future<Score> Router::Submit(const data::Example& example,
                                  std::int64_t deadline_micros) {
  obs_requests_.Inc();
  ResolveEmbeddings(example);
  const std::int64_t deadline_ns =
      deadline_micros > 0 ? obs::NowNanos() + deadline_micros * 1000 : 0;
  Engine& engine = *engines_[static_cast<std::size_t>(
      EngineFor(example.user_index))];
  return engine.TrySubmit(example, deadline_ns);
}

std::unique_ptr<const FrozenModel> Router::Swap(
    std::unique_ptr<const FrozenModel> next) {
  const FrozenModel* next_raw = next.get();
  // Flip the scoring path first: after Swap returns, every batch pinned to
  // the retired version has been fulfilled and all new batches score on
  // `next`. The retired model stays alive (held here) while the caches
  // still point at its rows.
  std::unique_ptr<const FrozenModel> retired = model_.Swap(std::move(next));
  // Rebind + invalidate the caches. SetSource takes every shard lock, so
  // once it returns no in-flight Get can be reading through the retired
  // model, and it is safe to hand back.
  cache_.SetSource(next_raw);
  obs_swaps_.Inc();
  return retired;
}

void Router::Shutdown() {
  for (auto& engine : engines_) engine->Shutdown();
}

RouterStats Router::stats() const {
  RouterStats stats;
  for (const auto& engine : engines_) {
    EngineStats es = engine->stats();
    stats.routed += es.submitted;
    stats.scored += es.scored;
    stats.rejected_overload += es.rejected_overload;
    stats.rejected_shutdown += es.rejected_shutdown;
    stats.rejected_invalid += es.rejected_invalid;
    stats.per_engine.push_back(es);
  }
  stats.swaps = model_.swaps();
  stats.cache = cache_.stats();
  return stats;
}

}  // namespace serve
}  // namespace dcmt
