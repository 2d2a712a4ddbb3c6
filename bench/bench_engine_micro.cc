// google-benchmark microbenchmarks of the autodiff engine: the primitives
// whose cost dominates training (matmul, embedding lookup, sigmoid+BCE) and
// one full DCMT train step. Not a paper table; used to size the scaled
// experiments and catch performance regressions.

#include <benchmark/benchmark.h>

#include "core/dcmt.h"
#include "data/batch.h"
#include "data/profiles.h"
#include "optim/adam.h"
#include "tensor/ops.h"

namespace {

using namespace dcmt;

void BM_MatMulForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Randn(256, n, 1.0f, &rng);
  Tensor b = Tensor::Randn(n, n, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256LL * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulTrainStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor x = Tensor::Randn(256, n, 1.0f, &rng);
  Tensor w = Tensor::Randn(n, n, 0.1f, &rng, /*requires_grad=*/true);
  for (auto _ : state) {
    w.ZeroGrad();
    Tensor loss = ops::Mean(ops::Square(ops::MatMul(x, w)));
    loss.Backward();
    benchmark::DoNotOptimize(w.grad());
  }
}
BENCHMARK(BM_MatMulTrainStep)->Arg(32)->Arg(64);

void BM_EmbeddingLookup(benchmark::State& state) {
  Rng rng(3);
  Tensor table = Tensor::Randn(10000, 16, 0.05f, &rng, /*requires_grad=*/true);
  std::vector<int> ids(1024);
  for (auto& id : ids) id = static_cast<int>(rng.NextBounded(10000));
  for (auto _ : state) {
    Tensor out = ops::EmbeddingLookup(table, ids);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EmbeddingLookup);

void BM_SigmoidBce(benchmark::State& state) {
  Rng rng(4);
  Tensor logits = Tensor::Randn(1024, 1, 1.0f, &rng, /*requires_grad=*/true);
  Tensor labels = Tensor::Zeros(1024, 1);
  for (auto _ : state) {
    logits.ZeroGrad();
    Tensor loss = ops::Mean(ops::BceLoss(ops::Sigmoid(logits), labels));
    loss.Backward();
    benchmark::DoNotOptimize(logits.grad());
  }
}
BENCHMARK(BM_SigmoidBce);

void BM_DcmtTrainStep(benchmark::State& state) {
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
BENCHMARK(BM_DcmtTrainStep);

}  // namespace

BENCHMARK_MAIN();
