#ifndef DCMT_EVAL_CONTINUAL_H_
#define DCMT_EVAL_CONTINUAL_H_

// Continual-training loop with delayed feedback (DESIGN.md §17).
//
// The paper's deployment story is a daily cycle: day-d training data is
// logged under day-(d-1)'s model, conversions attribute days late (the
// *fake negative* problem the whole framework exists for), the model is
// retrained and republished, and day-(d+1) traffic is scored by the fresh
// version. ContinualLoop closes that cycle in-process:
//
//   day d:  score traffic through serve::Router (live version)
//           roll outcomes; conversions land day d + lag (oracle kept)
//           log the day through data::ShardWriter (eventual labels + lag)
//   day d+1 (refresh): re-label rows matured by now, rebuild the as-of
//           training set through the out-of-core streaming path, retrain —
//           warm-started from the previous refresh's eval::Checkpointer
//           state or cold-started, per config — and republish via the
//           drop-free Router::Swap
//
// Everything is deterministic at a fixed thread count: traffic and outcomes
// are stateless keyed draws (eval::RollDayOutcomes), training is the
// checkpointed deterministic TrainLoop, and router scores are bit-exact
// under any micro-batch composition — so two identically-configured runs
// produce byte-identical staleness tables, and a run killed mid-loop
// resumes through the per-refresh checkpoints to the same table.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "data/generator.h"
#include "eval/online_ab.h"
#include "eval/trainer.h"
#include "models/multi_task_model.h"

namespace dcmt {
namespace eval {

/// When the loop retrains + republishes.
enum class RefreshCadence {
  kNever,    // pretrained model serves the whole horizon (staleness grows)
  kDaily,    // retrain at each day boundary on data matured through day d-1
  kIntraDay  // daily, plus mid-day refreshes that pick up same-day lag-0
             // conversions (intra_day_segments splits per day)
};

struct ContinualConfig {
  /// Traffic, horizon, lag distribution and drift. `ab.days` is the serving
  /// horizon; `ab.seed` drives traffic and outcomes.
  AbConfig ab;

  /// Model variant under continual training (core::CreateModel name).
  std::string variant = "dcmt";
  models::ModelConfig model;
  /// Per-refresh optimization settings. checkpoint_dir/resume/warm_start_dir
  /// are managed by the loop (one checkpoint directory per refresh);
  /// validation_fraction must be 0 (streaming source).
  TrainConfig train;

  /// Historical (fully matured) exposures the day-0 model is trained on.
  std::int64_t pretrain_exposures = 6000;

  RefreshCadence refresh = RefreshCadence::kDaily;
  /// Segments per day under kIntraDay (>= 2 to actually refresh mid-day).
  int intra_day_segments = 2;
  /// Warm-start each refresh from the previous refresh's checkpoint
  /// (parameters + Adam moments); false = cold-start control arm.
  bool warm_start = true;

  /// Root directory for shard logs, as-of training sets, and checkpoints.
  /// Required. Layout: pretrain/, log-dDDD-sS/, asof-rRRR/, ckpt/rRRR/.
  std::string work_dir;
  std::int64_t rows_per_shard = 4096;

  /// Serving tier geometry (serve::RouterConfig::num_engines).
  int router_engines = 2;
  /// StreamingBatcher prefetch depth (0 required with a fault-injecting fs).
  int prefetch_depth = 2;

  /// Total optimizer-step budget across every retrain; hitting it stops the
  /// loop abruptly mid-refresh like a kill — no final checkpoint for the
  /// interrupted retrain, result flagged `halted`. A rerun with the same
  /// work_dir and budget 0 resumes through the checkpoints and reproduces
  /// the uninterrupted run byte-for-byte. 0 = no budget.
  std::int64_t halt_after_total_steps = 0;

  /// nullptr = real file system. A FaultInjectingFileSystem requires
  /// prefetch_depth = 0 (it is not thread-safe).
  core::FileSystem* fs = nullptr;
};

/// One serving day of the loop.
struct ContinualDayResult {
  int day = 0;
  /// Days since the serving model was last republished (0 on refresh days;
  /// equals `day` under kNever).
  int days_since_refresh = 0;
  DayMetrics metrics;
  /// CVR AUC of the served pCVR over clicked exposures against oracle
  /// conversion labels (no maturation wait — the oracle is the point).
  double cvr_auc = 0.0;
  /// Entire-space ranking quality: served pCTCVR over all exposures against
  /// the eventual click-and-convert label.
  double pv_cvr_auc = 0.0;
  /// As-of training set composition at the refresh that produced the model
  /// serving this day (0s under kNever after day 0).
  std::int64_t train_rows = 0;
  std::int64_t fake_negatives = 0;  // logged converters not yet matured
  std::int64_t relabeled = 0;       // rows whose label flipped 0 -> 1 now
  std::int64_t retrain_steps = 0;
  double retrain_seconds = 0.0;
};

/// One row of the staleness table: day-level AUCs bucketed by model age.
struct StalenessRow {
  int days_since_refresh = 0;
  int days = 0;  // how many serving days landed in this bucket
  double cvr_auc = 0.0;
  double pv_cvr_auc = 0.0;
  /// Deltas against the staleness-0 bucket (0 when that bucket is absent).
  double delta_cvr_auc = 0.0;
  double delta_pv_cvr_auc = 0.0;
};

struct ContinualResult {
  std::vector<ContinualDayResult> days;
  std::vector<StalenessRow> staleness;
  /// Router requests that did not resolve ok (must be 0: Swap is drop-free
  /// and deadlines are disabled inside the loop).
  std::int64_t dropped_requests = 0;
  std::int64_t swaps = 0;      // republishes after the initial publish
  std::int64_t retrains = 0;   // including pretrain
  std::int64_t total_steps = 0;
  bool halted = false;  // stopped by halt_after_total_steps

  /// Paper-style ASCII tables (AsciiTable): per-day serving metrics and the
  /// staleness aggregation.
  std::string RenderDayTable() const;
  std::string RenderStalenessTable() const;
};

/// Runs the continual cycle. `generator` supplies traffic and ground truth;
/// non-owning, must outlive the call. Aborts on invalid configuration
/// (empty work_dir, unknown variant) and on I/O failure of the shard log —
/// a serving loop that silently loses its log has no valid result.
class ContinualLoop {
 public:
  ContinualLoop(data::SyntheticLogGenerator* generator, ContinualConfig config);

  ContinualResult Run();

 private:
  data::SyntheticLogGenerator* generator_;
  ContinualConfig config_;
};

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_CONTINUAL_H_
