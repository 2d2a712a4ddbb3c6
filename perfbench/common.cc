#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <sstream>

#include "core/dcmt.h"
#include "core/thread_pool.h"
#include "data/profiles.h"
#include "data/stream.h"
#include "eval/trainer.h"

namespace perfbench {

namespace fs = std::filesystem;
using dcmt::Rng;
namespace data = dcmt::data;
namespace serve = dcmt::serve;

// --- Report -------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::PrintTable(const char* title) const {
  std::printf("== %s\n", title);
  for (const Entry& e : entries_) {
    std::printf("  %-44s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::int64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN/inf: a non-finite metric is reported as null (and the
    // run is already marked incorrect by the check that produced it).
    out << (i ? ", " : "") << '"' << e.name << "\": {\"value\": ";
    if (std::isfinite(e.value)) {
      out << e.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

LatencySummary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.n = static_cast<std::int64_t>(values.size());
  s.p50 = QuantileSorted(values, 0.50);
  s.p99 = QuantileSorted(values, 0.99);
  return s;
}

// --- TimingFileSystem ------------------------------------------------------------

namespace {

class TimingWriter : public dcmt::core::FileWriter {
 public:
  TimingWriter(std::unique_ptr<dcmt::core::FileWriter> base,
               TimingFileSystem* owner)
      : base_(std::move(base)), owner_(owner) {}
  bool Write(const void* data, std::size_t size) override {
    const auto t0 = Clock::now();
    const bool ok = base_->Write(data, size);
    owner_->write_seconds += SecondsSince(t0);
    if (ok) owner_->bytes_written += static_cast<std::int64_t>(size);
    return ok;
  }
  bool Sync() override {
    const auto t0 = Clock::now();
    const bool ok = base_->Sync();
    owner_->write_seconds += SecondsSince(t0);
    return ok;
  }
  bool Close() override {
    const auto t0 = Clock::now();
    const bool ok = base_->Close();
    owner_->write_seconds += SecondsSince(t0);
    return ok;
  }

 private:
  std::unique_ptr<dcmt::core::FileWriter> base_;
  TimingFileSystem* owner_;
};

}  // namespace

TimingFileSystem::TimingFileSystem() : base_(dcmt::core::FileSystem::Default()) {}

std::unique_ptr<dcmt::core::FileWriter> TimingFileSystem::OpenForWrite(
    const std::string& path) {
  const auto t0 = Clock::now();
  std::unique_ptr<dcmt::core::FileWriter> w = base_->OpenForWrite(path);
  write_seconds += SecondsSince(t0);
  if (w == nullptr) return nullptr;
  return std::make_unique<TimingWriter>(std::move(w), this);
}

std::unique_ptr<dcmt::core::FileReader> TimingFileSystem::OpenForRead(
    const std::string& path) {
  return base_->OpenForRead(path);
}

bool TimingFileSystem::Rename(const std::string& from, const std::string& to) {
  const auto t0 = Clock::now();
  const bool ok = base_->Rename(from, to);
  write_seconds += SecondsSince(t0);
  return ok;
}

bool TimingFileSystem::Remove(const std::string& path) {
  return base_->Remove(path);
}

bool TimingFileSystem::CreateDirectories(const std::string& path) {
  return base_->CreateDirectories(path);
}

bool TimingFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

// --- Inputs ---------------------------------------------------------------------

Budget MakeBudget(const Options& options) {
  // Every run measures every phase (each end-to-end metric is reported on
  // every workload); the workload's own phase gets the full window and the
  // other two a shorter one.
  const double full = options.seconds;
  const double other = 0.6 * options.seconds;
  Budget b;
  b.train = options.workload == "train-stream" ? full : other;
  // Serving windows are per round; the rounds together fill the budget.
  const double serve =
      (options.workload == "serve-open" ? full : other) / kServeRounds;
  b.serve_low = 0.35 * serve;
  b.serve_high = 0.35 * serve;
  b.serve_overload = 0.3 * serve;
  b.refresh = options.workload == "refresh-live" ? full : other;
  return b;
}

dcmt::models::ModelConfig BenchModelConfig() {
  dcmt::models::ModelConfig config;
  config.seed = 7;
  return config;
}

std::unique_ptr<dcmt::models::MultiTaskModel> MakeModel(
    const data::FeatureSchema& schema) {
  return std::make_unique<dcmt::core::Dcmt>(schema, BenchModelConfig());
}

serve::RouterConfig BenchRouterConfig() {
  serve::RouterConfig config;
  config.num_engines = kEngines;
  config.default_deadline_micros = kDeadlineMicros;
  return config;
}

namespace {

/// Zipf(s) over [0, population) by inverse CDF (one uniform + binary search).
class ZipfSampler {
 public:
  ZipfSampler(int population, double exponent) {
    cdf_.reserve(static_cast<std::size_t>(population));
    double total = 0.0;
    for (int k = 0; k < population; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Uniform double in [0, 1) with 53 random bits.
double Uniform01(Rng* rng) {
  return static_cast<double>(rng->NextUint64() >> 11) * 0x1.0p-53;
}

/// Poisson arrivals at `rate` for `seconds`, each picking a pool row
/// uniformly.
Schedule MakeSchedule(std::size_t pool_size, double rate, double seconds,
                      std::uint64_t stream) {
  Rng rng(stream);
  Schedule schedule;
  const std::size_t expected = static_cast<std::size_t>(rate * seconds);
  schedule.due_s.reserve(expected + expected / 8 + 16);
  schedule.pick.reserve(expected + expected / 8 + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-Uniform01(&rng)) / rate;
    if (t >= seconds) break;
    schedule.due_s.push_back(t);
    schedule.pick.push_back(static_cast<std::uint32_t>(rng.NextBounded(pool_size)));
  }
  return schedule;
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: setup failed: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace

Inputs Setup(const Options& options, const Budget& budget,
             const std::string& dir) {
  Inputs in;
  in.dir = dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) Fatal("cannot create " + dir + ": " + ec.message());

  // The population and the test split come from the ae-es profile seed and
  // never change; every stream drawn from them is keyed by --seed.
  in.generator =
      std::make_unique<data::SyntheticLogGenerator>(data::AeEsProfile());
  const data::SyntheticLogGenerator& gen = *in.generator;
  in.schema = gen.Schema();
  const std::uint64_t seed = options.seed;
  auto stream = [seed](std::uint64_t salt) {
    return (seed + 1) * 0x9E3779B97F4A7C15ull ^ (salt * 0xBF58476D1CE4E5B9ull);
  };

  std::string error;
  data::ShardWriterConfig shard_config;
  shard_config.rows_per_shard = kRowsPerShard;
  in.train_shards = dir + "/train";
  if (!in.generator->GenerateToShards(in.train_shards, kTrainRows, stream(1),
                                      shard_config, &error)) {
    Fatal("GenerateToShards: " + error);
  }
  in.test = in.generator->GenerateTest();

  // Pretrained checkpoint for the refresh cycles to warm-start from.
  {
    const std::string pre_shards = dir + "/pretrain";
    if (!in.generator->GenerateToShards(pre_shards, kPretrainRows, stream(2),
                                        shard_config, &error)) {
      Fatal("GenerateToShards(pretrain): " + error);
    }
    data::StreamingDataset dataset;
    if (!data::StreamingDataset::Open(pre_shards, {}, &dataset, &error)) {
      Fatal("open pretrain shards: " + error);
    }
    std::unique_ptr<dcmt::models::MultiTaskModel> model = MakeModel(in.schema);
    dcmt::eval::TrainConfig config;
    config.epochs = 1;
    config.batch_size = kBatchSize;
    config.checkpoint_dir = dir + "/pretrain_ckpt";
    Rng shuffle(config.seed);
    data::StreamingBatcher batcher(&dataset, kBatchSize, &shuffle, 0);
    dcmt::eval::TrainFromSource(model.get(), &batcher, &shuffle, config);
    in.pretrain_ckpt = config.checkpoint_dir;
  }

  for (int c = 0; c < kMaxRefreshCycles; ++c) {
    const data::Dataset day =
        in.generator->Generate(kDayRows, stream(100 + static_cast<std::uint64_t>(c)));
    in.day_logs.push_back(day.examples());
  }

  const ZipfSampler zipf(gen.profile().num_users, kZipfExponent);
  Rng rows(stream(9));
  in.pool.reserve(kRequestPool);
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    const int user = zipf.Sample(Uniform01(&rows));
    const int item = static_cast<int>(
        rows.NextBounded(static_cast<std::uint64_t>(gen.profile().num_items)));
    const int position = static_cast<int>(rows.NextBounded(10));
    in.pool.push_back(gen.MakeExample(user, item, position));
  }
  in.warmup = MakeSchedule(kRequestPool, kRateHigh, kWarmupSeconds, stream(10));
  in.low = MakeSchedule(kRequestPool, kRateLow, budget.serve_low, stream(11));
  in.high = MakeSchedule(kRequestPool, kRateHigh, budget.serve_high, stream(12));
  in.overload = MakeSchedule(kRequestPool, kRateOverload,
                             budget.serve_overload, stream(13));
  in.refresh_traffic =
      MakeSchedule(kRequestPool, kRateLow, budget.refresh + 0.5, stream(14));
  return in;
}

// --- Open loop --------------------------------------------------------------------

OpenLoopResult RunOpenLoop(serve::Router* router,
                           const std::vector<data::Example>& pool,
                           const Schedule& schedule, Clock::time_point start,
                           bool time_submit) {
  OpenLoopResult result;
  result.outcomes.resize(schedule.size());
  struct Pending {
    std::size_t index;
    std::future<serve::Score> future;
  };
  std::vector<std::deque<Pending>> pending(
      static_cast<std::size_t>(router->num_engines()));
  std::size_t outstanding = 0;

  // Engines fulfil their requests in FIFO order, so only each engine's
  // oldest pending future needs polling.
  const auto poll = [&] {
    for (std::deque<Pending>& queue : pending) {
      while (!queue.empty() &&
             queue.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        Outcome& o = result.outcomes[queue.front().index];
        o.score = queue.front().future.get();
        o.done_s = SecondsSince(start);
        queue.pop_front();
        --outstanding;
      }
    }
  };

  const auto shed_after = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kShedAfterMicros * 1e-6));
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const data::Example& example = pool[schedule.pick[i]];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule.due_s[i]));
    // Poll at least once per request, so completions are stamped on time
    // even while the sender runs behind its schedule.
    do {
      poll();
    } while (Clock::now() < due);
    Outcome& o = result.outcomes[i];
    o.due_s = schedule.due_s[i];
    const auto sent = Clock::now();
    o.sent_s = SecondsBetween(start, sent);
    if (sent - due > shed_after) {
      o.shed = true;
      o.done_s = o.sent_s;
      continue;
    }
    const int engine = router->EngineFor(example.user_index);
    std::future<serve::Score> future = router->Submit(example);
    if (time_submit) o.submit_us = 1e6 * SecondsSince(sent);
    pending[static_cast<std::size_t>(engine)].push_back({i, std::move(future)});
    ++outstanding;
  }
  const auto drain_deadline = Clock::now() + std::chrono::seconds(10);
  while (outstanding > 0 && Clock::now() < drain_deadline) poll();
  result.drained = outstanding == 0;
  for (std::deque<Pending>& queue : pending) {
    // Only reachable when the drain timed out (a failed check): wait so no
    // future outlives the router.
    for (Pending& p : queue) {
      result.outcomes[p.index].score = p.future.get();
      result.outcomes[p.index].done_s = SecondsSince(start);
    }
  }
  return result;
}

std::vector<double> LatenciesUs(const std::vector<Outcome>& outcomes,
                                double from_s, double to_s) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) {
    if (o.due_s < from_s || o.due_s >= to_s) continue;
    out.push_back(o.ok() ? 1e6 * (o.done_s - o.due_s) : kMissLatencyUs);
  }
  return out;
}

int SlicedLatency::valid_slices() const {
  return static_cast<int>(
      std::count_if(lag_p99s.begin(), lag_p99s.end(),
                    [](double lag) { return lag <= kMaxValidLagP99Us; }));
}

double SlicedLatency::MedianOfValid(const std::vector<double>& values) const {
  if (!valid()) return Median(values);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (lag_p99s[i] <= kMaxValidLagP99Us) kept.push_back(values[i]);
  }
  return Median(kept);
}

void SlicedLatency::Add(const SlicedLatency& other) {
  p50s.insert(p50s.end(), other.p50s.begin(), other.p50s.end());
  p99s.insert(p99s.end(), other.p99s.begin(), other.p99s.end());
  lag_p99s.insert(lag_p99s.end(), other.lag_p99s.begin(), other.lag_p99s.end());
}

SlicedLatency SummarizeSlices(const std::vector<Outcome>& outcomes,
                              double from_s, double to_s, double slice_s) {
  SlicedLatency result;
  for (double lo = from_s; lo < to_s; lo += slice_s) {
    const double hi = std::min(lo + slice_s, to_s);
    const LatencySummary slice = Summarize(LatenciesUs(outcomes, lo, hi));
    if (slice.n < kMinSliceSamples) continue;
    result.p50s.push_back(slice.p50);
    result.p99s.push_back(slice.p99);
    std::vector<double> lags;
    for (const Outcome& o : outcomes) {
      if (o.due_s >= lo && o.due_s < hi) lags.push_back(1e6 * (o.sent_s - o.due_s));
    }
    result.lag_p99s.push_back(Summarize(std::move(lags)).p99);
  }
  return result;
}

std::vector<double> LagsUs(const std::vector<Outcome>& outcomes) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) out.push_back(1e6 * (o.sent_s - o.due_s));
  return out;
}

bool SameScore(const serve::ScoreColumns& want, std::size_t i,
               const serve::Score& got) {
  return std::memcmp(&want.pctr[i], &got.pctr, sizeof(float)) == 0 &&
         std::memcmp(&want.pcvr[i], &got.pcvr, sizeof(float)) == 0 &&
         std::memcmp(&want.pctcvr[i], &got.pctcvr, sizeof(float)) == 0;
}

std::int64_t CountScoreMismatches(const serve::FrozenModel& model,
                                  const std::vector<data::Example>& rows,
                                  const std::vector<serve::Score>& got) {
  if (rows.empty()) return 0;
  const serve::ScoreColumns want = model.ScoreExamples(rows);
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!SameScore(want, i, got[i])) ++mismatches;
  }
  return mismatches;
}

}  // namespace perfbench
