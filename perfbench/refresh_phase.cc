// refresh-live phase: serve-open traffic at the low rate keeps flowing while
// this thread runs refresh cycles — write a day's log through ShardWriter,
// retrain from it warm-started from the setup checkpoint, freeze, publish
// with Router::Swap. Training here shares the machine with serving.

#include <algorithm>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/shard.h"
#include "data/stream.h"
#include "eval/checkpointer.h"
#include "eval/trainer.h"
#include "optim/adam.h"

namespace perfbench {
namespace {

namespace serve = dcmt::serve;
namespace data = dcmt::data;
namespace eval = dcmt::eval;

struct Cycle {
  double start_s = 0, swap_start_s = 0, end_s = 0;  // traffic clock
  double write_s = 0, train_s = 0, save_s = 0, freeze_s = 0, swap_s = 0;
  double post_swap_hit_ratio = 0;
};

}  // namespace

void RunRefreshPhase(const Options& options, const Budget& budget,
                     const Inputs& inputs, Report* report) {
  // Threads: this one (refresh) + the load generator + one dispatcher per
  // engine; the pool gets no workers.
  dcmt::core::ThreadPool::Global().SetNumThreads(1);
  dcmt::obs::SetEnabled(options.trace);
  std::unique_ptr<serve::FrozenModel> initial;
  {
    std::unique_ptr<dcmt::models::MultiTaskModel> model =
        MakeModel(inputs.schema);
    dcmt::optim::Adam adam(model->parameters());
    std::string error;
    const bool loaded = eval::Checkpointer(inputs.pretrain_ckpt)
                            .WarmStart(eval::FingerprintModelVariant(
                                           *model, model->name()),
                                       model.get(), &adam, &error);
    report->Check(loaded, "refresh-live: pretrained checkpoint loads " + error);
    if (!loaded) return;
    initial = std::make_unique<serve::FrozenModel>(std::move(model),
                                                   inputs.schema);
  }
  std::vector<const serve::FrozenModel*> versions = {initial.get()};
  std::vector<std::unique_ptr<const serve::FrozenModel>> retired;
  // This thread, already warmed up as the serve-open sender, sends the
  // traffic; a second thread runs the refresh cycles once it is flowing.
  serve::Router router(std::move(initial), BenchRouterConfig());
  std::promise<Clock::time_point> started;
  std::shared_future<Clock::time_point> traffic_start = started.get_future();
  const double traffic_s = inputs.refresh_traffic.due_s.back();
  const auto clock = [&] { return SecondsSince(traffic_start.get()); };
  std::vector<Cycle> cycles;
  bool writes_ok = true;
  std::thread refresher([&] {
    std::this_thread::sleep_until(traffic_start.get() +
                                  std::chrono::milliseconds(250));
    for (int c = 0; c < kMaxRefreshCycles; ++c) {
      // Start another cycle only if it can finish inside the measured window
      // and while traffic is still flowing.
      if (!cycles.empty()) {
        const double last = cycles.back().end_s - cycles.back().start_s + 0.2;
        if (clock() + last > std::min(budget.refresh, traffic_s - 0.1)) break;
      }
      Cycle cycle;
      TimingFileSystem io;
      const std::string day_dir =
          inputs.dir + "/refresh/day" + std::to_string(c);
      cycle.start_s = clock();
      auto t0 = Clock::now();
      writes_ok = io.CreateDirectories(day_dir) && writes_ok;
      {
        data::ShardWriterConfig shard_config;
        shard_config.rows_per_shard = kRowsPerShard;
        shard_config.fs = &io;
        data::ShardWriter writer(day_dir, inputs.schema, shard_config);
        for (const data::Example& e : inputs.day_logs[static_cast<std::size_t>(c)]) {
          writer.Append(e);
        }
        writes_ok = writer.Finish() && writes_ok;
      }
      auto t1 = Clock::now();
      cycle.write_s = SecondsBetween(t0, t1);

      data::StreamingDataset dataset;
      std::string error;
      if (!data::StreamingDataset::Open(day_dir, {}, &dataset, &error)) {
        writes_ok = false;
        break;
      }
      std::unique_ptr<dcmt::models::MultiTaskModel> model =
          MakeModel(inputs.schema);
      eval::TrainConfig config;
      config.epochs = 1;
      config.batch_size = kBatchSize;
      config.checkpoint_dir = inputs.dir + "/refresh/ckpt" + std::to_string(c);
      config.checkpoint_every = kCheckpointEvery;
      config.warm_start_dir = inputs.pretrain_ckpt;
      config.fs = &io;
      const double io_before = io.write_seconds;
      {
        dcmt::Rng shuffle(config.seed);
        data::StreamingBatcher batcher(&dataset, kBatchSize, &shuffle, 0);
        eval::TrainFromSource(model.get(), &batcher, &shuffle, config);
      }
      cycle.save_s = io.write_seconds - io_before;
      t0 = Clock::now();
      cycle.train_s = SecondsBetween(t1, t0);

      auto next = std::make_unique<serve::FrozenModel>(std::move(model),
                                                       inputs.schema);
      versions.push_back(next.get());
      t1 = Clock::now();
      cycle.freeze_s = SecondsBetween(t0, t1);
      cycle.swap_start_s = clock();
      retired.push_back(router.Swap(std::move(next)));
      t0 = Clock::now();
      cycle.swap_s = SecondsBetween(t1, t0);
      cycle.end_s = clock();

      // Cache behaviour in the window right after the swap.
      const serve::ShardCacheStats c0 = router.stats().cache;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const serve::ShardCacheStats c1 = router.stats().cache;
      const double hits = static_cast<double>(c1.hits - c0.hits);
      const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
      cycle.post_swap_hit_ratio = lookups > 0 ? hits / lookups : 0.0;
      cycles.push_back(cycle);
    }
  });
  RunOpenLoop(&router, inputs.pool, inputs.warmup, Clock::now(), false);
  const Clock::time_point start = Clock::now();
  started.set_value(start);
  const OpenLoopResult traffic = RunOpenLoop(
      &router, inputs.pool, inputs.refresh_traffic, start, options.trace);
  refresher.join();
  report->Check(writes_ok, "refresh-live: every day log written");
  report->Check(traffic.drained, "refresh-live: every request resolved");

  // Router responses must all be OK at this rate; requests the front end
  // shed during a machine stall never reached the router and count as
  // latency misses instead.
  const std::vector<Outcome>& out = traffic.outcomes;
  std::int64_t non_ok = 0, shed = 0;
  for (const Outcome& o : out) {
    if (o.shed) {
      ++shed;
    } else if (!o.score.ok()) {
      ++non_ok;
    }
  }
  // Latency of requests due while a refresh was in progress, sliced.
  SlicedLatency during;
  std::vector<double> submit_us;
  std::int64_t requests_during = 0;
  for (const Cycle& cycle : cycles) {
    during.Add(
        SummarizeSlices(out, cycle.start_s, cycle.end_s, kSliceSeconds));
    for (const Outcome& o : out) {
      if (o.due_s < cycle.start_s || o.due_s >= cycle.end_s) continue;
      ++requests_during;
      if (!o.shed) submit_us.push_back(o.submit_us);
    }
  }

  // Each sampled response must equal direct scoring by a version that was
  // active at some point between its send and its completion.
  const std::size_t stride = std::max<std::size_t>(1, out.size() / 1024);
  std::vector<std::vector<data::Example>> rows(versions.size());
  std::vector<std::vector<serve::Score>> got(versions.size());
  std::vector<std::vector<std::size_t>> owner(versions.size());
  std::vector<int> matched;
  for (std::size_t i = 0; i < out.size(); i += stride) {
    if (!out[i].ok()) continue;
    std::size_t lo = 0, hi = 0;
    for (const Cycle& cycle : cycles) {
      if (cycle.end_s <= out[i].sent_s) ++lo;
      if (cycle.swap_start_s <= out[i].done_s) ++hi;
    }
    for (std::size_t v = lo; v <= hi && v < versions.size(); ++v) {
      rows[v].push_back(inputs.pool[inputs.refresh_traffic.pick[i]]);
      got[v].push_back(out[i].score);
      owner[v].push_back(matched.size());
    }
    matched.push_back(0);
  }
  for (std::size_t v = 0; v < versions.size(); ++v) {
    const serve::ScoreColumns want = versions[v]->ScoreExamples(rows[v]);
    for (std::size_t k = 0; k < rows[v].size(); ++k) {
      if (SameScore(want, k, got[v][k])) matched[owner[v][k]] = 1;
    }
  }
  const std::int64_t checked = static_cast<std::int64_t>(matched.size());
  const std::int64_t mismatches =
      checked - std::count(matched.begin(), matched.end(), 1);

  report->Check(!cycles.empty(), "refresh-live: at least one refresh cycle");
  report->Check(non_ok == 0, "refresh-live: zero non-OK responses at the low "
                             "rate (" + std::to_string(non_ok) + " non-OK, " +
                                 std::to_string(shed) + " shed unsent)");
  report->Check(mismatches == 0,
                "refresh-live: " + std::to_string(checked) +
                    " sampled responses bit-exact against direct scoring by "
                    "the version that served them (" +
                    std::to_string(mismatches) + " differ)");
  report->Attempt(static_cast<std::int64_t>(out.size() + cycles.size()),
                  non_ok + mismatches);
  if (cycles.empty()) return;

  const auto median_of = [&](double Cycle::*field) {
    std::vector<double> v;
    for (const Cycle& cycle : cycles) v.push_back(cycle.*field);
    return Median(v);
  };
  std::vector<double> refresh_s;
  for (const Cycle& cycle : cycles) refresh_s.push_back(cycle.end_s - cycle.start_s);
  std::printf("refresh-live: %zu cycles of %lld rows under %.0f req/s; "
              "refresh_s median %.4f; %lld requests due during refresh, "
              "median over %d valid of %d slices (>= %lld samples each): "
              "p50=%.1f us p99=%.1f us -> %s\n",
              cycles.size(), static_cast<long long>(kDayRows), kRateLow,
              Median(refresh_s), static_cast<long long>(requests_during),
              during.valid_slices(), during.slices(),
              static_cast<long long>(kMinSliceSamples), during.p50(),
              during.p99(),
              during.valid() ? "valid"
                             : "INVALID: the sender fell behind its schedule");
  if (!options.trace) {
    report->Set("refresh_s", Median(refresh_s), "s");
    report->Set("refresh_serve_p50_us", during.p50(), "us");
    return;
  }
  report->Set("refresh_serve_p99_us", during.p99(), "us");
  std::sort(submit_us.begin(), submit_us.end());
  report->Set("data.shard.write_s", median_of(&Cycle::write_s), "s");
  report->Set("refresh.train_s", median_of(&Cycle::train_s), "s");
  report->Set("refresh.eval.checkpointer.save_s", median_of(&Cycle::save_s), "s");
  report->Set("serve.frozen_model.freeze_s", median_of(&Cycle::freeze_s), "s");
  report->Set("serve.router.swap_s", median_of(&Cycle::swap_s), "s");
  report->Set("serve.router.cache_hit_ratio.post_swap",
              median_of(&Cycle::post_swap_hit_ratio), "ratio");
  report->Set("refresh.serve.router.submit_us.p99",
              QuantileSorted(submit_us, 0.99), "us");
  std::printf("refresh-live stage table (median cycle):\n");
  const struct {
    const char* name;
    double Cycle::*field;
  } stages[] = {{"data.shard.write", &Cycle::write_s},
                {"refresh.train", &Cycle::train_s},
                {"  of which checkpoint I/O", &Cycle::save_s},
                {"serve.frozen_model.freeze", &Cycle::freeze_s},
                {"serve.router.swap", &Cycle::swap_s}};
  for (const auto& s : stages) {
    std::printf("  %-28s %10.4f s\n", s.name, median_of(s.field));
  }
}

}  // namespace perfbench
