// Streaming data path performance (DESIGN.md §15).
//
// Three numbers back the out-of-core design:
//   * ShardWrite / ShardDecode — MB/s through the columnar shard codec
//     (encode includes the CRC framing; decode includes the full fail-closed
//     validation chain, which is the honest cost of every production read);
//   * StreamingEpoch at prefetch 0 vs 2 — one full epoch of batch assembly
//     through the StreamingBatcher. The prefetch-0 run pays decode and
//     assembly serially; with prefetch the decode overlaps assembly, and the
//     ratio of the two times is the overlap win recorded in
//     BENCH_engine.json.
//
// All entries fold into BENCH_engine.json via tools/bench_to_json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/thread_pool.h"
#include "data/batch.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/shard.h"
#include "data/stream.h"
#include "tensor/random.h"

namespace dcmt {
namespace {

constexpr std::int64_t kRows = 65536;
constexpr std::int64_t kRowsPerShard = 8192;

data::SyntheticLogGenerator& Generator() {
  static data::SyntheticLogGenerator generator([] {
    data::DatasetProfile profile = data::AeEsProfile();
    profile.train_exposures = kRows;
    return profile;
  }());
  return generator;
}

/// One shard's worth of rows, drawn once.
const std::vector<data::Example>& ShardRows() {
  static const std::vector<data::Example> rows = [] {
    Rng rng(1234);
    std::vector<data::Example> drawn;
    drawn.reserve(static_cast<std::size_t>(kRowsPerShard));
    for (std::int64_t i = 0; i < kRowsPerShard; ++i) {
      drawn.push_back(Generator().DrawExposure(&rng));
    }
    return drawn;
  }();
  return rows;
}

/// A shard directory with kRows rows, generated once per process.
const std::string& ShardDir() {
  static const std::string dir = [] {
    const std::string path = "/tmp/dcmt_bench_stream_shards";
    data::ShardWriterConfig config;
    config.rows_per_shard = kRowsPerShard;
    std::string error;
    if (!Generator().GenerateToShards(path, kRows, /*stream=*/1, config,
                                      &error)) {
      std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
      std::abort();
    }
    return path;
  }();
  return dir;
}

void BM_ShardEncode(benchmark::State& state) {
  const data::FeatureSchema schema = Generator().Schema();
  std::string image;
  for (auto _ : state) {
    image = data::EncodeShardImage(schema, /*shard_index=*/0, ShardRows());
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRowsPerShard),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardEncode)->Unit(benchmark::kMillisecond);

void BM_ShardDecode(benchmark::State& state) {
  const std::string& dir = ShardDir();
  data::ShardManifest manifest;
  std::string error;
  if (!data::ReadManifest(nullptr, dir, &manifest, &error)) std::abort();
  const std::string path = dir + "/" + data::ShardFileName(0);
  std::vector<data::Example> rows;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    rows.clear();
    if (!data::ReadShardFile(nullptr, path, manifest, /*shard_index=*/0, &rows,
                             &error)) {
      std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(rows.data());
  }
  {
    // Size the throughput by the on-disk image (decode reads every byte).
    std::string image;
    std::unique_ptr<core::FileReader> reader =
        core::FileSystem::Default()->OpenForRead(path);
    if (reader != nullptr && reader->ReadAll(&image)) {
      bytes = static_cast<std::int64_t>(image.size());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * bytes);
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() *
                          static_cast<std::int64_t>(rows.size())),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardDecode)->Unit(benchmark::kMillisecond);

/// One full epoch of batch assembly through the StreamingBatcher at the
/// given prefetch depth. depth 0 = serial decode (the baseline the overlap
/// ratio is measured against).
void StreamingEpoch(benchmark::State& state, int prefetch_depth) {
  core::ThreadPool::Global().SetNumThreads(1);
  data::StreamingDataset dataset;
  std::string error;
  if (!data::StreamingDataset::Open(ShardDir(), {}, &dataset, &error)) {
    std::fprintf(stderr, "bench_stream: %s\n", error.c_str());
    std::abort();
  }
  for (auto _ : state) {
    Rng rng(7);
    data::StreamingBatcher batcher(&dataset, 1024, &rng, prefetch_depth);
    data::Batch batch;
    std::int64_t rows = 0;
    while (batcher.Next(&batch)) rows += batch.size;
    if (rows != dataset.size() || !batcher.ok()) std::abort();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          dataset.size());
}

void BM_StreamingEpochNoPrefetch(benchmark::State& state) {
  StreamingEpoch(state, /*prefetch_depth=*/0);
}
BENCHMARK(BM_StreamingEpochNoPrefetch)->Unit(benchmark::kMillisecond);

void BM_StreamingEpochPrefetch2(benchmark::State& state) {
  StreamingEpoch(state, /*prefetch_depth=*/2);
}
BENCHMARK(BM_StreamingEpochPrefetch2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcmt

BENCHMARK_MAIN();
