// Disabled-path overhead of the observability layer (DESIGN.md §12).
//
// The tier-1 acceptance gate: with obs disabled (the default for every
// training/serving process that does not pass --metrics-out/--trace-out),
// the fully-wired training step must cost within 2% of itself — each
// recording site degrades to one relaxed atomic load and a branch. The
// ObsOff/ObsOn family pair below measures the same training step (the
// BM_DcmtTrainStep workload from bench_parallel_scaling) with recording off
// and on; tools/bench_to_json pairs them into an obs_overhead entry in
// BENCH_engine.json.

#include <benchmark/benchmark.h>

#include "core/dcmt.h"
#include "core/obs.h"
#include "core/thread_pool.h"
#include "data/batch.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "optim/adam.h"

namespace dcmt {
namespace {

/// One full optimizer step on a fixed 1024-row batch — identical workload to
/// bench_parallel_scaling's BM_DcmtTrainStep, single-threaded so the
/// measurement isolates per-call recording cost rather than pool dispatch.
void TrainStepWorkload(benchmark::State& state) {
  data::DatasetProfile profile = data::AeEsProfile();
  profile.train_exposures = 4096;
  data::SyntheticLogGenerator generator(profile);
  const data::Dataset train = generator.GenerateTrain();

  models::ModelConfig config;
  core::Dcmt model(train.schema(), config);
  optim::Adam adam(model.parameters(), 1e-3f);
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 1024);

  for (auto _ : state) {
    adam.ZeroGrad();
    models::Predictions preds = model.Forward(batch);
    Tensor loss = model.Loss(batch, preds);
    loss.Backward();
    adam.Step();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_DcmtTrainStepObsOff(benchmark::State& state) {
  core::ThreadPool::Global().SetNumThreads(1);
  obs::SetEnabled(false);
  TrainStepWorkload(state);
}
BENCHMARK(BM_DcmtTrainStepObsOff)->UseRealTime();

void BM_DcmtTrainStepObsOn(benchmark::State& state) {
  core::ThreadPool::Global().SetNumThreads(1);
  obs::SetEnabled(true);
  TrainStepWorkload(state);
  obs::SetEnabled(false);
  obs::Registry::Global().ResetForTesting();
}
BENCHMARK(BM_DcmtTrainStepObsOn)->UseRealTime();

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
