// train-stream phase: out-of-core DCMT training through StreamingBatcher
// (prefetch 2) and TrainFromSource at batch 1024 with periodic checkpoints.
// Loads data, tensor, nn/models, optim and the checkpointer; never serve/.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/stream.h"
#include "eval/checkpointer.h"
#include "eval/evaluator.h"
#include "eval/trainer.h"
#include "optim/adam.h"

namespace perfbench {
namespace {

namespace data = dcmt::data;
namespace eval = dcmt::eval;
using dcmt::Rng;
using dcmt::models::MultiTaskModel;

eval::TrainConfig BenchTrainConfig(const std::string& checkpoint_dir) {
  eval::TrainConfig config;
  config.epochs = 1;
  config.batch_size = kBatchSize;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every = kCheckpointEvery;
  return config;
}

data::StreamingDataset OpenShards(const std::string& dir) {
  data::StreamingDataset dataset;
  std::string error;
  if (!data::StreamingDataset::Open(dir, {}, &dataset, &error)) {
    std::fprintf(stderr, "perfbench: cannot open %s: %s\n", dir.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return dataset;
}

/// One untraced TrainFromSource run from the fixed initialization. Returns
/// its wall time; `history` receives the trainer's record.
double TrainOnce(const data::StreamingDataset& dataset,
                 const eval::TrainConfig& config, MultiTaskModel* model,
                 eval::TrainHistory* history) {
  Rng shuffle(config.seed);
  data::StreamingBatcher batcher(&dataset, config.batch_size, &shuffle,
                                 kPrefetchDepth);
  const auto t0 = Clock::now();
  *history = eval::TrainFromSource(model, &batcher, &shuffle, config);
  return SecondsSince(t0);
}

/// Multiply-adds of one row's forward pass through every dense layer
/// (the `.weight` matrices; embedding tables are gathers, not GEMMs).
double ForwardMaddsPerRow(const MultiTaskModel& model) {
  double madds = 0.0;
  for (const dcmt::Tensor& p : model.parameters()) {
    const std::string& name = p.name();
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".weight") == 0) {
      madds += static_cast<double>(p.rows()) * static_cast<double>(p.cols());
    }
  }
  return madds;
}

struct StageTimes {
  double next = 0, zero_grad = 0, forward = 0, loss = 0, backward = 0,
         clip = 0, step = 0, save = 0;
  double wall = 0;
  double Sum() const {
    return next + zero_grad + forward + loss + backward + clip + step + save;
  }
};

/// The trainer's step loop spelled out with a timer around each call into a
/// layer: Next -> ZeroGrad -> Forward -> Loss -> Backward -> ClipGradNorm ->
/// Step, plus the checkpoint saves TrainFromSource makes (every
/// kCheckpointEvery steps, at the epoch end and at completion). Runs at most
/// `max_steps` steps (0 = the whole epoch). Returns the per-step losses.
std::vector<double> TracedLoop(const data::StreamingDataset& dataset,
                               const eval::TrainConfig& config,
                               MultiTaskModel* model, std::int64_t max_steps,
                               TimingFileSystem* fs, StageTimes* t) {
  Rng shuffle(config.seed);
  data::StreamingBatcher batcher(&dataset, config.batch_size, &shuffle,
                                 kPrefetchDepth);
  dcmt::optim::Adam adam(model->parameters(), config.learning_rate, 0.9f,
                         0.999f, 1e-8f, config.weight_decay);
  eval::Checkpointer checkpointer(config.checkpoint_dir, fs);
  const std::uint64_t fingerprint =
      eval::FingerprintTrainSetup(*model, config, batcher.size());
  const std::uint64_t variant =
      eval::FingerprintModelVariant(*model, model->name());
  std::vector<double> losses;
  double loss_sum = 0.0;
  std::int64_t steps = 0;

  const auto save = [&](int epoch, double sum, std::int64_t batches) {
    const auto t0 = Clock::now();
    eval::TrainCheckpointState state;
    state.fingerprint = fingerprint;
    state.variant_fingerprint = variant;
    state.epoch = epoch;
    state.loss_sum = sum;
    state.batches = batches;
    state.steps = steps;
    state.adam = adam.ExportState();
    state.shuffle_rng = shuffle.state();
    state.batcher = batcher.SaveState();
    checkpointer.Save(*model, state);
    t->save += SecondsSince(t0);
  };

  const auto start = Clock::now();
  data::Batch batch;
  for (;;) {
    auto t0 = Clock::now();
    const bool more = batcher.Next(&batch);
    auto t1 = Clock::now();
    t->next += SecondsBetween(t0, t1);
    if (!more) break;
    adam.ZeroGrad();
    t0 = Clock::now();
    t->zero_grad += SecondsBetween(t1, t0);
    dcmt::models::Predictions preds = model->Forward(batch);
    t1 = Clock::now();
    t->forward += SecondsBetween(t0, t1);
    dcmt::Tensor loss = model->Loss(batch, preds);
    t0 = Clock::now();
    t->loss += SecondsBetween(t1, t0);
    loss.Backward();
    t1 = Clock::now();
    t->backward += SecondsBetween(t0, t1);
    if (config.grad_clip > 0.0f) adam.ClipGradNorm(config.grad_clip);
    t0 = Clock::now();
    t->clip += SecondsBetween(t1, t0);
    adam.Step();
    t1 = Clock::now();
    t->step += SecondsBetween(t0, t1);
    const double step_loss = static_cast<double>(loss.item());
    losses.push_back(step_loss);
    loss_sum += step_loss;
    ++steps;
    if (steps % config.checkpoint_every == 0) save(0, loss_sum, steps);
    if (max_steps > 0 && steps >= max_steps) break;
  }
  if (!batcher.ok()) {
    std::fprintf(stderr, "perfbench: batch source failed: %s\n",
                 batcher.error().c_str());
    std::exit(2);
  }
  if (max_steps == 0) {
    save(1, 0.0, 0);  // epoch end
    save(1, 0.0, 0);  // completion
  }
  t->wall = SecondsSince(start);
  return losses;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// MB/s of StreamingDataset::ReadShard over every shard, sequentially.
double DecodeMbPerSecond(const data::StreamingDataset& dataset) {
  double bytes = 0.0;
  for (const data::ShardInfo& info : dataset.manifest().shards) {
    bytes += static_cast<double>(
        std::filesystem::file_size(dataset.dir() + "/" + info.file));
  }
  std::vector<data::Example> rows;
  std::string error;
  const auto t0 = Clock::now();
  for (int s = 0; s < dataset.num_shards(); ++s) {
    if (!dataset.ReadShard(s, &rows, &error)) {
      std::fprintf(stderr, "perfbench: ReadShard(%d): %s\n", s, error.c_str());
      std::exit(2);
    }
  }
  return bytes / 1e6 / SecondsSince(t0);
}

}  // namespace

void RunTrainPhase(const Options& options, const Budget& budget,
                   const Inputs& inputs, Report* report) {
  // Threads: this one + the prefetch worker + (pool - 1) pool workers.
  const int pool = std::max(1, options.threads - 1);
  dcmt::core::ThreadPool::Global().SetNumThreads(pool);
  const data::StreamingDataset dataset = OpenShards(inputs.train_shards);
  const eval::TrainConfig config =
      BenchTrainConfig(inputs.dir + "/train_ckpt");
  const double rows = static_cast<double>(dataset.size());
  std::printf("train-stream: %lld rows in %d shards, batch %d, prefetch %d, "
              "pool %d, checkpoint every %d steps\n",
              static_cast<long long>(dataset.size()), dataset.num_shards(),
              kBatchSize, kPrefetchDepth, pool, kCheckpointEvery);

  if (!options.trace) {
    // Whole-epoch runs from the same initialization until the window is
    // spent (at least three); rows/s is the median over runs.
    std::vector<double> rates;
    double auc = 0.0;
    const auto phase_start = Clock::now();
    while (rates.size() < 3 || SecondsSince(phase_start) < budget.train) {
      std::unique_ptr<MultiTaskModel> model = MakeModel(inputs.schema);
      eval::TrainHistory history;
      const double wall = TrainOnce(dataset, config, model.get(), &history);
      rates.push_back(rows / wall);
      if (rates.size() == 1) {
        auc = eval::Evaluate(model.get(), inputs.test).cvr_auc_oracle;
      }
    }
    report->Set("train_rows_per_s", Median(rates), "rows/s");
    report->Set("train_cvr_auc_oracle", auc, "auc");
    report->Attempt(static_cast<std::int64_t>(rates.size()) *
                        (dataset.size() + kBatchSize - 1) / kBatchSize,
                    0);
    std::printf("train-stream: %zu epochs, rows/s median %.1f (min %.1f, max "
                "%.1f), oracle CVR AUC %.4f (test n=%lld)\n",
                rates.size(), Median(rates),
                *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()), auc,
                static_cast<long long>(inputs.test.size()));
    report->Check(std::isfinite(auc) && auc > kAucFloor,
                  "train-stream: oracle CVR AUC finite and above floor");
  }

  // Bit-exactness of the spelled-out loop against TrainFromSource's
  // record_step_loss trace: the whole epoch when tracing, a prefix otherwise.
  const std::int64_t check_steps = options.trace ? 0 : 16;
  eval::TrainConfig ref_config = config;
  ref_config.record_step_loss = true;
  ref_config.halt_after_steps = check_steps;
  std::unique_ptr<MultiTaskModel> ref_model = MakeModel(inputs.schema);
  eval::TrainHistory ref;
  const double untraced_wall =
      TrainOnce(dataset, ref_config, ref_model.get(), &ref);
  dcmt::obs::SetEnabled(options.trace);

  dcmt::obs::Registry& registry = dcmt::obs::Registry::Global();
  dcmt::obs::Counter dispatched = registry.counter("dcmt_pool_dispatch_total");
  dcmt::obs::Counter inlined = registry.counter("dcmt_pool_inline_runs_total");
  const std::int64_t dispatched0 = dispatched.value();
  const std::int64_t inlined0 = inlined.value();
  std::unique_ptr<MultiTaskModel> model = MakeModel(inputs.schema);
  TimingFileSystem timing_fs;
  StageTimes t;
  const std::vector<double> losses =
      TracedLoop(dataset, config, model.get(), check_steps, &timing_fs, &t);
  dcmt::obs::SetEnabled(false);
  report->Check(SameBits(losses, ref.step_loss),
                "train-stream: traced step loop reproduces TrainFromSource's "
                "step losses bit for bit (" +
                    std::to_string(losses.size()) + " steps)");
  if (!options.trace) return;

  const double steps = static_cast<double>(losses.size());
  const double madds = ForwardMaddsPerRow(*model);
  const double dispatch = static_cast<double>(dispatched.value() - dispatched0);
  const double inline_runs = static_cast<double>(inlined.value() - inlined0);
  const double unaccounted = 1.0 - t.Sum() / t.wall;
  report->Set("data.stream.next_s", t.next, "s");
  report->Set("data.shard.decode_mb_per_s", DecodeMbPerSecond(dataset), "MB/s");
  report->Set("optim.zero_grad_s", t.zero_grad, "s");
  report->Set("models.forward_s", t.forward, "s");
  report->Set("models.loss_s", t.loss, "s");
  report->Set("tensor.backward_s", t.backward, "s");
  report->Set("optim.clip_s", t.clip, "s");
  report->Set("optim.adam_step_s", t.step, "s");
  // Computed, not counted: forward GEMMs plus the two backward GEMMs per
  // dense layer, 2 flops per multiply-add, over forward + backward time.
  report->Set("tensor.matmul_gflops",
              6.0 * madds * rows / (t.forward + t.backward) / 1e9, "GFLOP/s");
  report->Set("core.thread_pool.dispatch_share",
              dispatch + inline_runs > 0 ? dispatch / (dispatch + inline_runs)
                                         : 0.0,
              "ratio");
  report->Set("eval.checkpointer.save_s", t.save, "s");
  report->Set("core.io.bytes_written", static_cast<double>(timing_fs.bytes_written),
              "bytes");
  report->Set("train.unaccounted_share", unaccounted, "ratio");
  report->Set("train.trace_overhead_s", t.wall - untraced_wall, "s");
  report->Attempt(2 * static_cast<std::int64_t>(steps), 0);

  std::printf("train-stream stage table (one epoch, %.0f steps; traced wall "
              "%.4f s, untraced wall %.4f s, tracing overhead %+.4f s)\n",
              steps, t.wall, untraced_wall, t.wall - untraced_wall);
  const struct {
    const char* name;
    double seconds;
  } stages[] = {{"data.stream.next", t.next},   {"optim.zero_grad", t.zero_grad},
                {"models.forward", t.forward},  {"models.loss", t.loss},
                {"tensor.backward", t.backward}, {"optim.clip", t.clip},
                {"optim.adam_step", t.step},    {"eval.checkpointer.save", t.save}};
  for (const auto& s : stages) {
    std::printf("  %-26s %10.4f s %7.2f%%\n", s.name, s.seconds,
                100.0 * s.seconds / t.wall);
  }
  std::printf("  %-26s %10.4f s %7.2f%%\n", "(unaccounted)",
              t.wall - t.Sum(), 100.0 * unaccounted);
  std::printf("  tensor.matmul_gflops is computed: 6 x %.0f madds/row x rows "
              "/ (forward + backward)\n"
              "  core.thread_pool.dispatch_share: %.0f regions dispatched to the "
              "pool, %.0f run inline (ParallelFor calls that fit one chunk "
              "never reach the pool)\n",
              madds, dispatch, inline_runs);
  report->Check(std::fabs(unaccounted) <= 0.05,
                "train-stream: stages sum to within 5% of traced wall time");
}

}  // namespace perfbench
