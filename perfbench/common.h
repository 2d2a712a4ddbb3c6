#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: options, the report that ends
// in the one-line JSON result, statistics, the timing FileSystem wrapper,
// the seeded inputs every phase draws from, and the open-loop load
// generator. See README.md for what each workload and metric means.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "data/dataset.h"
#include "data/example.h"
#include "data/generator.h"
#include "models/multi_task_model.h"
#include "serve/router.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Fixed benchmark configuration. Rates were measured on the reference
// machine (4 vCPU Intel Xeon, KVM guest); README.md records how.

/// Training: the paper's batch (§IV-A2), checkpoint cadence, corpus size.
inline constexpr int kBatchSize = 1024;
inline constexpr int kCheckpointEvery = 32;
inline constexpr std::int64_t kTrainRows = 64 * 1024;
inline constexpr std::int64_t kRowsPerShard = 16 * 1024;
inline constexpr int kPrefetchDepth = 2;
/// Quality floor for the oracle CVR AUC after one epoch (observed 0.67-0.70
/// over ten seeds).
inline constexpr double kAucFloor = 0.60;

/// Serving: fleet shape and the request budget.
inline constexpr int kEngines = 2;
inline constexpr std::int64_t kDeadlineMicros = 5000;
/// A request still unsent this long after its due time is shed by the
/// load generator's front end: half the budget is left for queueing and
/// scoring. Only the overload rate, where the front end cannot keep up,
/// should ever shed.
inline constexpr double kShedAfterMicros = 0.5 * kDeadlineMicros;
inline constexpr double kZipfExponent = 1.1;
/// Distinct request rows drawn per run.
inline constexpr std::size_t kRequestPool = 1 << 16;
/// Open-loop rates (requests/s): ~30%, ~80% and ~2x of the saturation
/// throughput measured with `perfbench --workload calibrate`.
inline constexpr double kSaturationRps = 250000.0;
inline constexpr double kRateLow = 0.3 * kSaturationRps;
inline constexpr double kRateHigh = 0.8 * kSaturationRps;
inline constexpr double kRateOverload = 2.0 * kSaturationRps;
/// Latency a miss (shed or non-OK) counts as in the percentiles: ten
/// deadlines, so the percentiles stay finite however many requests miss.
inline constexpr double kMissLatencyUs = 10.0 * kDeadlineMicros;
/// Lag (µs) of the sender's p99 beyond which the open loop is flagged
/// invalid: the sender, not the router, fell behind its schedule.
inline constexpr double kMaxValidLagP99Us = 500.0;

/// Refresh: rows in one day's log and the most cycles a run performs.
inline constexpr std::int64_t kDayRows = 16 * 1024;
inline constexpr int kMaxRefreshCycles = 12;
/// Rows and steps of the setup pretraining that refreshes warm-start from.
inline constexpr std::int64_t kPretrainRows = 16 * 1024;

/// Latency percentiles are taken per slice of this length, with at least
/// this many samples (p99 then has >= 10 samples beyond it).
inline constexpr double kSliceSeconds = 0.1;
inline constexpr std::int64_t kMinSliceSamples = 1000;

/// Warm-up schedules (kWarmupSeconds at the high rate) a sending thread
/// runs before its first measured window, and before each later round.
inline constexpr double kWarmupSeconds = 0.5;
inline constexpr int kSettleWarmups = 3;

/// Serving rounds per run, each with a fresh fleet (see serve_phase.cc).
inline constexpr int kServeRounds = 3;

/// Setup repetitions per run (setup_s is their median).
inline constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  int threads = 4;  // the thread cap (hardware threads)
};

/// Collects metrics and checks; renders the final one-line JSON result.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Human-readable metric table (one line per metric).
  void PrintTable(const char* title) const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values);

/// Nearest-rank quantile of an ascending-sorted sample.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// p50/p99 and sample count of a sample.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::int64_t n = 0;
};
LatencySummary Summarize(std::vector<double> values);

// --- I/O seam ---------------------------------------------------------------

/// core::FileSystem decorator over the real file system that counts the
/// bytes written and the wall time spent in writes, syncs, closes and
/// renames. Single-threaded use only (the caller that owns the writes).
class TimingFileSystem : public dcmt::core::FileSystem {
 public:
  TimingFileSystem();
  std::unique_ptr<dcmt::core::FileWriter> OpenForWrite(
      const std::string& path) override;
  std::unique_ptr<dcmt::core::FileReader> OpenForRead(
      const std::string& path) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Remove(const std::string& path) override;
  bool CreateDirectories(const std::string& path) override;
  bool Exists(const std::string& path) override;

  std::int64_t bytes_written = 0;
  double write_seconds = 0.0;

 private:
  dcmt::core::FileSystem* base_;
};

// --- Inputs -----------------------------------------------------------------

/// Open-loop arrival schedule: request i is the pool example pick[i], due
/// at due_s[i] seconds after the schedule starts.
struct Schedule {
  std::vector<double> due_s;
  std::vector<std::uint32_t> pick;
  std::size_t size() const { return due_s.size(); }
};

/// Everything a run draws from `--seed`, generated before any timing.
struct Inputs {
  std::unique_ptr<dcmt::data::SyntheticLogGenerator> generator;
  dcmt::data::FeatureSchema schema;
  std::string dir;             // this setup's private directory
  std::string train_shards;    // ae-es exposure log, sharded
  dcmt::data::Dataset test;    // fixed test split (profile seed, not --seed)
  std::string pretrain_ckpt;   // checkpoint dir refreshes warm-start from
  std::vector<std::vector<dcmt::data::Example>> day_logs;  // one per cycle
  /// Request rows (Zipf users, uniform items and positions); schedules
  /// pick from them uniformly.
  std::vector<dcmt::data::Example> pool;
  Schedule warmup, low, high, overload, refresh_traffic;
};

/// Phase windows (seconds) derived from --seconds and the workload focus.
struct Budget {
  double train = 0.0;
  double serve_low = 0.0, serve_high = 0.0, serve_overload = 0.0;
  double refresh = 0.0;
};
Budget MakeBudget(const Options& options);

/// Builds all inputs into `dir` (created, must not exist).
Inputs Setup(const Options& options, const Budget& budget,
             const std::string& dir);

/// The model every phase trains or serves: DCMT with the default
/// (paper-scaled) configuration and a fixed initialization seed.
dcmt::models::ModelConfig BenchModelConfig();
std::unique_ptr<dcmt::models::MultiTaskModel> MakeModel(
    const dcmt::data::FeatureSchema& schema);

dcmt::serve::RouterConfig BenchRouterConfig();

// --- Open-loop load generation -----------------------------------------------

/// Per-request outcome of an open-loop run. Times are seconds relative to
/// the schedule start.
struct Outcome {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  double submit_us = 0.0;  // time inside Router::Submit (traced runs only)
  bool shed = false;       // dropped by the front end, never submitted
  dcmt::serve::Score score;
  bool ok() const { return !shed && score.ok(); }
};

struct OpenLoopResult {
  std::vector<Outcome> outcomes;  // in schedule order
  bool drained = true;  // every future resolved before the drain timeout
};

/// Sends `schedule` into `router` from the calling thread, each request at
/// its due time (never earlier), and polls the per-engine FIFOs of pending
/// futures between sends, so the one thread both generates and collects.
/// Like a deadline-aware front end, it sheds a request that has already
/// waited kShedAfterMicros past its due time instead of submitting it.
/// `start` anchors due offsets.
OpenLoopResult RunOpenLoop(dcmt::serve::Router* router,
                           const std::vector<dcmt::data::Example>& pool,
                           const Schedule& schedule, Clock::time_point start,
                           bool time_submit);

/// Latency from the due time, in µs, of the outcomes due in [from_s, to_s)
/// (kMissLatencyUs for a miss: shed or non-OK).
std::vector<double> LatenciesUs(const std::vector<Outcome>& outcomes,
                                double from_s, double to_s);

/// Latency of a window measured slice by slice: the window is cut into
/// `slice_s` slices by due time, each with its own p50/p99 and sender-lag
/// p99 (slices with fewer than kMinSliceSamples are skipped). A slice is
/// valid when the sender kept its schedule in it (lag p99 at most
/// kMaxValidLagP99Us); a slice where the sender itself fell behind measures
/// the machine, not the router. Reported percentiles are medians over the
/// valid slices — over all slices when fewer than half are valid, and the
/// window is then flagged invalid — so a stall moves one slice rather than
/// the result.
struct SlicedLatency {
  std::vector<double> p50s, p99s, lag_p99s;
  double p50() const { return MedianOfValid(p50s); }
  double p99() const { return MedianOfValid(p99s); }
  double lag_p99() const { return Median(lag_p99s); }
  int slices() const { return static_cast<int>(p50s.size()); }
  int valid_slices() const;
  bool valid() const { return 2 * valid_slices() >= slices(); }
  /// Appends the slices of another window.
  void Add(const SlicedLatency& other);

 private:
  double MedianOfValid(const std::vector<double>& values) const;
};
SlicedLatency SummarizeSlices(const std::vector<Outcome>& outcomes,
                              double from_s, double to_s, double slice_s);

/// Sender lag (sent - due) of each outcome, in µs.
std::vector<double> LagsUs(const std::vector<Outcome>& outcomes);

/// True when `got` equals row `i` of `want` bit for bit.
bool SameScore(const dcmt::serve::ScoreColumns& want, std::size_t i,
               const dcmt::serve::Score& got);

/// Compares a sample of OK responses against direct scoring by `model`;
/// returns the number that differ in any bit.
std::int64_t CountScoreMismatches(const dcmt::serve::FrozenModel& model,
                                  const std::vector<dcmt::data::Example>& rows,
                                  const std::vector<dcmt::serve::Score>& got);

// --- Phases -----------------------------------------------------------------

void RunTrainPhase(const Options& options, const Budget& budget,
                   const Inputs& inputs, Report* report);
void RunServePhase(const Options& options, const Budget& budget,
                   const Inputs& inputs, Report* report);
void RunRefreshPhase(const Options& options, const Budget& budget,
                     const Inputs& inputs, Report* report);

/// Responses within the deadline per second at `offered_rps`, with the
/// sender's on-schedule slices printed — how kSaturationRps was chosen.
double MeasureSaturationRps(const Inputs& inputs, double offered_rps,
                            double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
