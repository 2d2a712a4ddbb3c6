#ifndef DCMT_EVAL_CHECKPOINTER_H_
#define DCMT_EVAL_CHECKPOINTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/io.h"
#include "data/stream.h"
#include "eval/trainer.h"
#include "nn/module.h"
#include "optim/adam.h"
#include "tensor/random.h"

namespace dcmt {
namespace eval {

/// Trainer-side progress captured in a training checkpoint, alongside the
/// module parameters (stored separately as a kParameters record) and the
/// optimizer/RNG/batcher states. Restoring all of it resumes a run mid-epoch
/// and reproduces the uninterrupted run bit-for-bit at a fixed thread count.
struct TrainCheckpointState {
  /// Hash of the training setup (config, parameter inventory, dataset size);
  /// a checkpoint whose fingerprint differs from the resuming setup is
  /// rejected rather than half-applied.
  std::uint64_t fingerprint = 0;

  /// Hash of the model *variant* (registry name + parameter inventory),
  /// independent of the training setup. Warm starts compare this one: a
  /// day-over-day continual loop may legitimately change dataset size or
  /// epoch count between refreshes (different setup fingerprint) but must
  /// never restore, say, an mmoe checkpoint into a dcmt tower.
  std::uint64_t variant_fingerprint = 0;

  /// Epoch in progress (0-based) and the loss accumulated so far inside it.
  std::int32_t epoch = 0;
  double loss_sum = 0.0;
  std::int64_t batches = 0;

  /// TrainHistory as of the save point (seconds excluded — wall clock is
  /// not resumable and is reported per process).
  std::int64_t steps = 0;
  std::int32_t final_epoch = -1;
  std::vector<double> epoch_loss;
  std::vector<double> validation_cvr_auc;

  /// Early-stopping bookkeeping. `best_snapshot` is empty when no epoch has
  /// improved on the initial best yet.
  double best_val_auc = -1.0;
  std::int32_t best_epoch = -1;
  std::int32_t epochs_since_best = 0;
  std::vector<std::vector<float>> best_snapshot;

  optim::AdamState adam;
  RngState shuffle_rng;
  data::BatcherState batcher;
};

/// Computes the setup fingerprint stored in (and demanded of) a training
/// checkpoint: optimization hyper-parameters, the module's parameter
/// inventory (names and shapes), and the training-split size.
std::uint64_t FingerprintTrainSetup(const nn::Module& module,
                                    const TrainConfig& config,
                                    std::int64_t dataset_size);

/// Fingerprints a model variant: the registry name plus the parameter
/// inventory (names and shapes). Two checkpoints of the same variant share
/// it across any training setup; checkpoints of different variants (or of
/// the same variant at a different ModelConfig geometry) never do.
std::uint64_t FingerprintModelVariant(const nn::Module& module,
                                      const std::string& variant);

/// Writes and restores full training-state checkpoints (DESIGN.md §10).
/// One file, `<dir>/train_state.ckpt`, always holds the latest complete
/// state: saves go through the atomic tmp + fsync + rename protocol, so a
/// crash (or injected fault) during a save leaves the previous checkpoint
/// intact and readable.
class Checkpointer {
 public:
  /// Creates `dir` if needed. `fs` is the I/O seam (null = real file
  /// system); tests pass a core::FaultInjectingFileSystem.
  explicit Checkpointer(std::string dir, core::FileSystem* fs = nullptr);

  /// Atomically persists the module parameters plus `state`. Returns false
  /// on I/O failure, in which case the previous checkpoint (if any) is
  /// still intact.
  bool Save(const nn::Module& module, const TrainCheckpointState& state);

  /// Restores the latest checkpoint into the given training objects.
  /// The entire file is parsed and checksum-verified, the fingerprint is
  /// compared, and every payload is validated against the live objects
  /// *before* the first mutation — on any failure the function returns
  /// false and module/adam/batcher/rng are all left untouched. The
  /// batcher's RestoreState gates the batcher-position record.
  bool Restore(std::uint64_t expected_fingerprint, nn::Module* module,
               optim::Adam* adam, data::StreamingBatcher* batcher, Rng* rng,
               TrainCheckpointState* state) const;

  /// Warm start (DESIGN.md §17): restores only the module parameters and
  /// optimizer moments from the latest checkpoint — not the batcher
  /// position, shuffle RNG, or trainer progress — so a new training run can
  /// continue from yesterday's weights over today's (different) dataset.
  /// The checkpoint's variant fingerprint must equal
  /// `expected_variant_fingerprint` (see FingerprintModelVariant); on a
  /// mismatch — restoring a checkpoint of a different model variant is
  /// never recoverable — this returns false with `*error` naming both
  /// fingerprints instead of attempting an undefined restore. As with
  /// Restore, every payload is validated before the first mutation.
  bool WarmStart(std::uint64_t expected_variant_fingerprint, nn::Module* module,
                 optim::Adam* adam, std::string* error) const;

  /// True if a checkpoint file exists (it may still fail validation).
  bool Exists() const;

  const std::string& path() const { return path_; }

 private:
  std::string dir_;
  std::string path_;
  core::FileSystem* fs_;
};

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_CHECKPOINTER_H_
