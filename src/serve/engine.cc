#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dcmt {
namespace serve {
namespace {

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt serve fatal: %s\n", msg);
  std::abort();
}

// Fixed histogram geometries: metric names are a global contract, so the
// bounds must not depend on any one engine's config (two engines with
// different configs share these cells).
constexpr int kBatchSizeBins = 32;
constexpr double kBatchSizeHi = 1024.0;
constexpr int kQueueDepthBins = 64;
constexpr double kQueueDepthHi = 4096.0;
constexpr int kLatencyBins = 64;
constexpr double kLatencyHiSeconds = 1.0;

}  // namespace

Engine::Engine(const FrozenModel* model, EngineConfig config)
    : fixed_source_(model), source_(&fixed_source_), config_(config) {
  if (model == nullptr) Fatal("Engine requires a FrozenModel");
  schema_ = model->schema();
  Start();
}

Engine::Engine(ModelSource* source, EngineConfig config)
    : fixed_source_(nullptr), source_(source), config_(config) {
  if (source == nullptr) Fatal("Engine requires a ModelSource");
  std::uint64_t ticket = 0;
  schema_ = source_->Acquire(&ticket)->schema();
  source_->Release(ticket);
  Start();
}

void Engine::Start() {
  if (config_.max_batch < 1 || config_.queue_capacity < 1 ||
      config_.max_wait_micros < 0) {
    Fatal("EngineConfig: max_batch/queue_capacity must be >= 1, max_wait >= 0");
  }
  obs::Registry& registry = obs::Registry::Global();
  obs_requests_ = registry.counter("dcmt_serve_requests_total");
  obs_batches_ = registry.counter("dcmt_serve_batches_total");
  obs_rejected_ = registry.counter("dcmt_serve_rejected_total");
  obs_queue_depth_ = registry.histogram("dcmt_serve_queue_depth",
                                        kQueueDepthBins, 0.0, kQueueDepthHi);
  obs_batch_size_ = registry.histogram("dcmt_serve_batch_size", kBatchSizeBins,
                                       0.0, kBatchSizeHi);
  obs_latency_seconds_ = registry.histogram(
      "dcmt_serve_request_latency_seconds", kLatencyBins, 0.0,
      kLatencyHiSeconds);
  obs_score_seconds_ = registry.sum("dcmt_serve_score_seconds_total");
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Engine::~Engine() { Shutdown(); }

std::future<Score> Engine::RejectedFuture(ServeStatus status) {
  std::promise<Score> promise;
  std::future<Score> future = promise.get_future();
  Score score;
  score.status = status;
  promise.set_value(score);
  obs_rejected_.Inc();
  return future;
}

bool Engine::FitsSchema(const data::Example& example) const {
  const auto fits = [](const std::vector<int>& ids,
                       const std::vector<data::FieldSpec>& fields) {
    if (ids.size() != fields.size()) return false;
    for (std::size_t f = 0; f < ids.size(); ++f) {
      if (ids[f] < 0 || ids[f] >= fields[f].vocab_size) return false;
    }
    return true;
  };
  return fits(example.deep_ids, schema_.deep_fields) &&
         fits(example.wide_ids, schema_.wide_fields);
}

std::future<Score> Engine::TrySubmit(data::Example example,
                                     std::int64_t deadline_ns) {
  // The schema is immutable, so the check needs no lock. A malformed row
  // must never reach the dispatcher: an out-of-vocabulary id aborts the
  // embedding gather, and a short id list reads past its end in assembly.
  const bool fits = FitsSchema(example);
  Request request;
  request.example = std::move(example);
  request.deadline_ns = deadline_ns;
  std::future<Score> future = request.promise.get_future();
  ServeStatus rejection = ServeStatus::kOk;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!fits) {
      ++stats_.rejected_invalid;
      rejection = ServeStatus::kRejectedInvalid;
    } else if (stopping_) {
      // Shutdown raced (or preceded) the enqueue: the request was never
      // queued, so it resolves immediately with an explicit status instead
      // of aborting the process.
      ++stats_.rejected_shutdown;
      rejection = ServeStatus::kRejectedShutdown;
    } else if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      // Bounded queue + reject-with-status: the overload policy. Shedding
      // here keeps queueing delay bounded by capacity instead of letting
      // latency grow without bound past saturation.
      ++stats_.rejected_overload;
      rejection = ServeStatus::kRejectedOverload;
    } else {
      request.enqueue_ns = obs::NowNanos();
      queue_.push_back(std::move(request));
      ++stats_.submitted;
      stats_.max_queue_depth = std::max(
          stats_.max_queue_depth, static_cast<std::int64_t>(queue_.size()));
      obs_queue_depth_.Observe(static_cast<double>(queue_.size()));
    }
  }
  if (rejection != ServeStatus::kOk) return RejectedFuture(rejection);
  obs_requests_.Inc();
  queue_ready_.notify_one();
  return future;
}

void Engine::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  // Every Shutdown caller — including racing ones — must observe the drain
  // as complete on return, or a caller could destroy the engine while
  // another's join is still in flight. join_mu_ serializes the join; late
  // arrivals block until it finished, then see joinable() == false.
  std::lock_guard<std::mutex> join_lk(join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

EngineStats Engine::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  return stats_;
}

void Engine::DispatchLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_ready_.wait(lk, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) break;  // stopping_ and fully drained

      // Deadline policy. The flush deadline anchors at the enqueue of the
      // first request of the *current* batch (== queue_.front(): the batch
      // is always a prefix of the queue) — never at the previous flush —
      // plus max_wait, tightened by the earliest per-request deadline among
      // the rows that would be in the flush. Shutdown flushes immediately;
      // drained requests still get scored.
      auto flush_by = [this]() {
        std::int64_t by =
            queue_.front().enqueue_ns +
            static_cast<std::int64_t>(config_.max_wait_micros) * 1000;
        const int considered = std::min<int>(config_.max_batch,
                                             static_cast<int>(queue_.size()));
        for (int i = 0; i < considered; ++i) {
          const std::int64_t d = queue_[static_cast<std::size_t>(i)].deadline_ns;
          if (d > 0) by = std::min(by, d);
        }
        return by;
      };
      while (static_cast<int>(queue_.size()) < config_.max_batch &&
             !stopping_) {
        const std::int64_t remaining_ns = flush_by() - obs::NowNanos();
        if (remaining_ns <= 0) break;
        queue_ready_.wait_for(lk, std::chrono::nanoseconds(remaining_ns));
      }

      const int take = std::min<int>(config_.max_batch,
                                     static_cast<int>(queue_.size()));
      batch.reserve(static_cast<std::size_t>(take));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      // Flush classification, one counter per flush. A full batch counts as
      // flushed_full exactly once even when its deadline expired in the
      // same instant (or shutdown raced it) — full wins, so the three
      // counters always sum to `batches` with no double counting.
      if (take >= config_.max_batch) {
        ++stats_.flushed_full;
      } else if (stopping_) {
        ++stats_.flushed_drain;
      } else {
        ++stats_.flushed_deadline;
      }
    }
    ScoreAndFulfill(&batch);
  }
}

void Engine::ScoreAndFulfill(std::vector<Request>* batch) {
  std::vector<data::Example> examples;
  examples.reserve(batch->size());
  for (const Request& request : *batch) examples.push_back(request.example);

  // Pin one model version for the whole batch: every row of the batch is
  // scored against the same FrozenModel, and the version cannot be retired
  // (hot swap) until Release — after the last promise is fulfilled.
  std::uint64_t ticket = 0;
  const FrozenModel* model = source_->Acquire(&ticket);

  const std::int64_t score_t0 = obs::NowNanos();
  const ScoreColumns columns = model->ScoreExamples(examples);
  const std::int64_t done_ns = obs::NowNanos();
  obs_score_seconds_.Add(static_cast<double>(done_ns - score_t0) * 1e-9);
  obs_batches_.Inc();
  obs_batch_size_.Observe(static_cast<double>(batch->size()));

  // Count the batch before fulfilling any promise: a caller whose future
  // just resolved must already see itself in stats() (submit-wait-then-stats
  // is a natural pattern, and the tests rely on it).
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.batches;
    stats_.scored += static_cast<std::int64_t>(batch->size());
    stats_.max_batch_scored = std::max(
        stats_.max_batch_scored, static_cast<std::int64_t>(batch->size()));
  }

  for (std::size_t i = 0; i < batch->size(); ++i) {
    Score score;
    score.pctr = columns.pctr[i];
    score.pcvr = columns.pcvr[i];
    score.pctcvr = columns.pctcvr[i];
    obs_latency_seconds_.Observe(
        static_cast<double>(done_ns - (*batch)[i].enqueue_ns) * 1e-9);
    (*batch)[i].promise.set_value(score);
  }
  source_->Release(ticket);
}

}  // namespace serve
}  // namespace dcmt
