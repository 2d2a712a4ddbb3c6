// serve-open phase: an open-loop Poisson arrival schedule into serve::Router
// (2 engines, 5 ms deadline) at three fixed rates. Loads the router (whose
// Submit resolves embeddings on the caller's thread), the engines'
// micro-batchers and frozen-model inference; no backward, optimizer or
// shard I/O.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/obs.h"
#include "core/thread_pool.h"

namespace perfbench {
namespace {

namespace serve = dcmt::serve;
namespace data = dcmt::data;

constexpr const char* kRateNames[] = {"low", "high", "overload"};
constexpr double kRates[] = {kRateLow, kRateHigh, kRateOverload};

/// Per-rate results summed over rounds.
struct RateTotals {
  double window_s = 0.0;
  SlicedLatency latency;
  std::vector<double> lags_us;
  std::int64_t n = 0, ok = 0, good = 0, shed = 0, rejected = 0;
  bool drained = true;
};

/// Counters the traced run reads, summed over rounds.
struct LayerTotals {
  double scored = 0, batches = 0, flushed_full = 0, max_queue_depth = 0;
  double hits = 0, misses = 0, rejected = 0, score_seconds = 0, wall_s = 0;
  std::vector<double> submit_us;
};

/// Checks a sample of OK responses against direct scoring; returns the
/// number of mismatches and adds the sample size to `*checked`.
std::int64_t VerifySample(const serve::FrozenModel& model,
                          const std::vector<data::Example>& pool,
                          const Schedule& schedule, const OpenLoopResult& run,
                          std::int64_t* checked) {
  std::vector<data::Example> rows;
  std::vector<serve::Score> got;
  const std::size_t stride = std::max<std::size_t>(1, schedule.size() / 256);
  for (std::size_t i = 0; i < schedule.size(); i += stride) {
    if (!run.outcomes[i].ok()) continue;
    rows.push_back(pool[schedule.pick[i]]);
    got.push_back(run.outcomes[i].score);
  }
  *checked += static_cast<std::int64_t>(rows.size());
  return CountScoreMismatches(model, rows, got);
}

}  // namespace

void RunServePhase(const Options& options, const Budget& budget,
                   const Inputs& inputs, Report* report) {
  // Threads: this one (the load generator) + one dispatcher per engine.
  // Scoring runs inline on the dispatchers: the pool gets no workers.
  dcmt::core::ThreadPool::Global().SetNumThreads(1);
  dcmt::obs::SetEnabled(options.trace);
  dcmt::obs::Sum score_seconds =
      dcmt::obs::Registry::Global().sum("dcmt_serve_score_seconds_total");
  const double windows[] = {budget.serve_low, budget.serve_high,
                            budget.serve_overload};
  const Schedule* schedules[] = {&inputs.low, &inputs.high, &inputs.overload};

  // Each round stands up a fresh fleet and replays the three schedules, so
  // a slow round moves only its own slices.
  RateTotals totals[3];
  LayerTotals layers;
  std::int64_t checked = 0, mismatches = 0;
  for (int round = 0; round < kServeRounds; ++round) {
    serve::Router router(std::make_unique<serve::FrozenModel>(
                             MakeModel(inputs.schema), inputs.schema),
                         BenchRouterConfig());
    if (round == 0) {
      std::printf("serve-open: %d rounds; %d engines, deadline %lld us, queue "
                  "capacity %d, max_batch %d, max_wait %d us, pool 1\n",
                  kServeRounds, kEngines,
                  static_cast<long long>(kDeadlineMicros),
                  router.engine(0).config().queue_capacity,
                  router.engine(0).config().max_batch,
                  router.engine(0).config().max_wait_micros);
    }
    // The first round warms up longer: the first seconds of traffic from a
    // fresh sender show thousands of involuntary context switches a second
    // and a tenfold p99, which then vanish.
    for (int k = 0; k < (round == 0 ? kSettleWarmups : 1); ++k) {
      RunOpenLoop(&router, inputs.pool, inputs.warmup, Clock::now(), false);
    }

    const serve::RouterStats before = router.stats();
    const double score_seconds0 = score_seconds.value();
    const auto round_start = Clock::now();
    for (int r = 0; r < 3; ++r) {
      const OpenLoopResult run = RunOpenLoop(&router, inputs.pool,
                                             *schedules[r], Clock::now(),
                                             options.trace);
      RateTotals& t = totals[r];
      t.window_s += windows[r];
      t.latency.Add(SummarizeSlices(run.outcomes, 0.0, windows[r],
                                    kSliceSeconds));
      const std::vector<double> lags = LagsUs(run.outcomes);
      t.lags_us.insert(t.lags_us.end(), lags.begin(), lags.end());
      t.drained = t.drained && run.drained;
      for (const Outcome& o : run.outcomes) {
        ++t.n;
        t.shed += o.shed ? 1 : 0;
        if (!o.shed && !o.score.ok()) ++t.rejected;
        if (!o.ok()) continue;
        ++t.ok;
        if (1e6 * (o.done_s - o.due_s) <= kDeadlineMicros) ++t.good;
        if (options.trace && r < 2) layers.submit_us.push_back(o.submit_us);
      }
      mismatches += VerifySample(*router.model().active(), inputs.pool,
                                 *schedules[r], run, &checked);
    }
    layers.wall_s += SecondsSince(round_start);
    layers.score_seconds += score_seconds.value() - score_seconds0;
    const serve::RouterStats after = router.stats();
    for (std::size_t e = 0; e < after.per_engine.size(); ++e) {
      const serve::EngineStats& a = after.per_engine[e];
      const serve::EngineStats& b = before.per_engine[e];
      layers.scored += static_cast<double>(a.scored - b.scored);
      layers.batches += static_cast<double>(a.batches - b.batches);
      layers.flushed_full += static_cast<double>(a.flushed_full - b.flushed_full);
      layers.max_queue_depth = std::max(
          layers.max_queue_depth, static_cast<double>(a.max_queue_depth));
    }
    layers.hits += static_cast<double>(after.cache.hits - before.cache.hits);
    layers.misses +=
        static_cast<double>(after.cache.misses - before.cache.misses);
    layers.rejected += static_cast<double>(after.rejected_overload -
                                           before.rejected_overload);
  }

  std::int64_t attempted = 0;
  for (int r = 0; r < 3; ++r) {
    const RateTotals& t = totals[r];
    const LatencySummary lag = Summarize(t.lags_us);
    std::printf(
        "serve-open %-8s rate %.0f/s, %.2f s: n=%lld ok=%lld "
        "within-deadline=%lld shed=%lld rejected=%lld; latency from due time, "
        "median over %d valid of %d slices of %.2f s (>= %lld samples each, "
        "so p99 has >= 10 beyond it): p50=%.1f us p99=%.1f us; sender lag "
        "p99 %.1f us overall, %.1f us in the median slice -> %s\n",
        kRateNames[r], kRates[r], t.window_s, static_cast<long long>(t.n),
        static_cast<long long>(t.ok), static_cast<long long>(t.good),
        static_cast<long long>(t.shed), static_cast<long long>(t.rejected),
        t.latency.valid_slices(), t.latency.slices(), kSliceSeconds,
        static_cast<long long>(kMinSliceSamples), t.latency.p50(),
        t.latency.p99(), lag.p99, t.latency.lag_p99(),
        r == 2              ? "overload: the sender is expected to fall behind"
        : t.latency.valid() ? "valid"
                            : "INVALID: the sender fell behind its schedule");
    attempted += t.n;
    report->Check(t.drained, std::string("serve-open ") + kRateNames[r] +
                                 ": every request resolved");
    // The p99s are reported with the per-layer metrics: on a shared host
    // they are bimodal from run to run, too wide to gate (README.md).
    if (r < 2 && options.trace) {
      report->Set(std::string("serve_p99_us.") + kRateNames[r],
                  t.latency.p99(), "us");
    } else if (r < 2) {
      report->Set(std::string("serve_p50_us.") + kRateNames[r],
                  t.latency.p50(), "us");
    } else if (!options.trace) {
      report->Set("serve_goodput_rps", static_cast<double>(t.good) / t.window_s,
                  "1/s");
    }
  }
  // A rejection is the router's overload policy answering a stall, not a
  // wrong answer: it counts as a latency miss, not as a failure.
  report->Attempt(attempted, mismatches);
  report->Check(mismatches == 0,
                "serve-open: " + std::to_string(checked) +
                    " sampled responses bit-exact against direct "
                    "FrozenModel::ScoreExamples (" +
                    std::to_string(mismatches) + " differ)");
  if (!options.trace) return;

  std::sort(layers.submit_us.begin(), layers.submit_us.end());
  std::vector<double> lags = totals[0].lags_us;
  lags.insert(lags.end(), totals[1].lags_us.begin(), totals[1].lags_us.end());
  report->Set("serve.router.submit_us.p50",
              QuantileSorted(layers.submit_us, 0.5), "us");
  report->Set("serve.router.submit_us.p99",
              QuantileSorted(layers.submit_us, 0.99), "us");
  report->Set("serve.router.cache_hit_ratio",
              layers.hits / (layers.hits + layers.misses), "ratio");
  report->Set("serve.engine.batch_mean", layers.scored / layers.batches, "rows");
  report->Set("serve.engine.flush_full_share",
              layers.flushed_full / layers.batches, "ratio");
  report->Set("serve.engine.max_queue_depth", layers.max_queue_depth,
              "requests");
  report->Set("serve.engine.score_busy_share",
              layers.score_seconds / layers.wall_s / kEngines, "ratio");
  report->Set("serve.router.rejected_share",
              layers.rejected / static_cast<double>(attempted), "ratio");
  report->Set("loadgen.lag_us.p99", Summarize(lags).p99, "us");

  // Direct scoring at the observed mean batch size.
  const std::size_t rows = static_cast<std::size_t>(
      std::clamp(std::lround(layers.scored / layers.batches), 1L, 256L));
  const std::vector<data::Example> batch(inputs.pool.begin(),
                                         inputs.pool.begin() + rows);
  const serve::FrozenModel direct(MakeModel(inputs.schema), inputs.schema);
  std::vector<double> per_row;
  const auto t_direct = Clock::now();
  while (per_row.size() < 20 || SecondsSince(t_direct) < 0.25) {
    const auto t0 = Clock::now();
    direct.ScoreExamples(batch);
    per_row.push_back(1e6 * SecondsSince(t0) / static_cast<double>(rows));
  }
  report->Set("serve.frozen_model.score_us_per_row", Median(per_row), "us");
  std::printf("serve-open: cache lookups %.0f (hits %.0f), batches %.0f, "
              "scored %.0f; direct scoring timed at %zu rows/batch\n",
              layers.hits + layers.misses, layers.hits, layers.batches,
              layers.scored, rows);
}

double MeasureSaturationRps(const Inputs& inputs, double offered_rps,
                            double seconds) {
  dcmt::core::ThreadPool::Global().SetNumThreads(1);
  serve::Router router(std::make_unique<serve::FrozenModel>(
                           MakeModel(inputs.schema), inputs.schema),
                       BenchRouterConfig());
  for (int k = 0; k < kSettleWarmups; ++k) {
    RunOpenLoop(&router, inputs.pool, inputs.warmup, Clock::now(), false);
  }
  Schedule schedule;
  const std::size_t n = static_cast<std::size_t>(offered_rps * seconds);
  for (std::size_t i = 0; i < n; ++i) {
    schedule.due_s.push_back(static_cast<double>(i) / offered_rps);
    schedule.pick.push_back(static_cast<std::uint32_t>(i % inputs.pool.size()));
  }
  const OpenLoopResult run =
      RunOpenLoop(&router, inputs.pool, schedule, Clock::now(), false);
  std::int64_t good = 0, shed = 0;
  for (const Outcome& o : run.outcomes) {
    shed += o.shed ? 1 : 0;
    if (o.ok() && 1e6 * (o.done_s - o.due_s) <= kDeadlineMicros) ++good;
  }
  const SlicedLatency lat =
      SummarizeSlices(run.outcomes, 0.0, seconds, kSliceSeconds);
  std::printf("calibrate: offered %.0f/s: within-deadline %lld of %zu, shed "
              "%lld; sender on schedule in %d of %d slices; p50 %.1f us, p99 "
              "%.1f us, median-slice sender lag p99 %.1f us\n",
              offered_rps, static_cast<long long>(good), run.outcomes.size(),
              static_cast<long long>(shed), lat.valid_slices(), lat.slices(),
              lat.p50(), lat.p99(), lat.lag_p99());
  return static_cast<double>(good) / seconds;
}

}  // namespace perfbench
