#ifndef DCMT_DATA_STREAM_H_
#define DCMT_DATA_STREAM_H_

// The one batch stream the trainer reads (DESIGN.md §15). A
// StreamingDataset is a shard directory opened through its manifest, or
// resident in-RAM rows with an optional shard plan; a StreamingBatcher turns
// either into epochs of minibatches (its class comment gives the epoch-order
// rule). On disk it holds at most 1 (current) + prefetch_depth decoded
// shards in memory; resident rows are read in place.
//
// The prefetch thread only ever reads immutable inputs (the manifest, the
// epoch's visit list snapshot, the stateless file system); all mutable
// batcher state stays on the consumer thread, which is why SaveState()
// racing an in-flight prefetch is benign (see tests/tsan_stress_test.cc).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/prefetch.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "data/shard.h"
#include "tensor/random.h"

namespace dcmt {
namespace data {

struct StreamingConfig {
  /// nullptr = real file system; tests pass a FaultInjectingFileSystem.
  /// Must be safe for concurrent reads if prefetch is enabled (the default
  /// PosixFileSystem is; FaultInjectingFileSystem is NOT — use it with
  /// prefetch_depth = 0).
  core::FileSystem* fs = nullptr;
};

/// Rows a StreamingBatcher can train from, in one of two forms:
///   * on disk — a shard directory opened through its manifest. Holds no row
///     data; every access decodes from disk.
///   * resident — in-RAM rows plus a shard plan, read in place.
/// ReadShard is const and thread-safe (one prefetch thread + the consumer
/// may both call it).
class StreamingDataset {
 public:
  /// Opens `dir`, validating the manifest and the existence of every listed
  /// shard file up-front, so a missing middle shard fails here — not
  /// mid-epoch. On failure returns false with `*error` set.
  static bool Open(const std::string& dir, const StreamingConfig& config,
                   StreamingDataset* out, std::string* error);

  /// Wraps in-RAM rows as a resident source. Nothing is copied: `rows` must
  /// outlive the result and every batcher over it. `shard_plan` gives
  /// per-shard row counts summing to rows->size(), as a shard directory with
  /// those rows would have; empty means one shard of all rows, whose epochs
  /// reshuffle the previous order in place (see StreamingBatcher).
  static StreamingDataset Resident(const Dataset* rows,
                                   std::vector<std::int64_t> shard_plan = {});

  /// The shard directory, or the resident dataset's name.
  const std::string& dir() const { return dir_; }
  const FeatureSchema& schema() const {
    return rows_ != nullptr ? rows_->schema() : manifest_.schema;
  }
  /// The on-disk manifest (empty for a resident source).
  const ShardManifest& manifest() const { return manifest_; }
  std::int64_t size() const { return offsets_.back(); }
  int num_shards() const { return static_cast<int>(offsets_.size()) - 1; }
  /// Per-shard row counts in shard order.
  std::vector<std::int64_t> ShardRowCounts() const;
  /// Prefix sums of ShardRowCounts(); size() == num_shards() + 1.
  const std::vector<std::int64_t>& ShardRowOffsets() const { return offsets_; }

  /// The rows of a resident source, read in place; null on disk.
  const std::vector<Example>* resident_rows() const {
    return rows_ != nullptr ? &rows_->examples() : nullptr;
  }
  /// True for unplanned resident rows: the one input whose epochs reshuffle
  /// the previous order in place instead of taking ShardedEpochOrder.
  bool reshuffles_in_place() const { return reshuffle_in_place_; }

  /// Decodes and validates one on-disk shard (a resident source has none and
  /// fails). Fail-closed; thread-safe.
  bool ReadShard(int shard_index, std::vector<Example>* rows,
                 std::string* error) const;

  /// Decodes every on-disk shard into one in-RAM Dataset (equivalence
  /// tests, small data). The result's examples are in global row order —
  /// shard 0's rows first — so global indices agree between the two
  /// representations.
  bool Materialize(Dataset* out, std::string* error) const;

 private:
  std::string dir_;
  core::FileSystem* fs_ = nullptr;
  ShardManifest manifest_;
  const Dataset* rows_ = nullptr;
  bool reshuffle_in_place_ = false;
  std::vector<std::int64_t> offsets_ = {0};
};

/// Complete serializable position of a StreamingBatcher inside its epoch
/// stream: the current epoch's shuffled order plus the cursor. Together with
/// the state of the shuffle Rng this resumes batching bit-exactly mid-epoch.
struct BatcherState {
  std::vector<std::int64_t> order;
  std::int64_t cursor = 0;
  bool fresh_epoch = true;
};

/// Builds one epoch's visiting order over sharded rows: a seeded permutation
/// of the shards, then a seeded permutation of the rows inside each shard,
/// concatenated as flat global row indices. The result is shard-sequential —
/// rows of one shard are contiguous in the order — which is exactly what
/// lets a streaming reader serve it while holding a single decoded shard.
/// With rng == nullptr the order is the identity.
std::vector<std::int64_t> ShardedEpochOrder(
    const std::vector<std::int64_t>& shard_rows, Rng* rng);

/// Iterates a StreamingDataset in minibatches, reshuffling per epoch when a
/// rng is provided; the final short batch of an epoch is emitted, not
/// dropped. Next() returns false exactly once per epoch boundary, Rewind()
/// replays the current order, SaveState()/RestoreState() resume bit-exactly.
///
/// The epoch order depends only on the input: unplanned resident rows
/// reshuffle the previous epoch's order in place (the first epoch shuffles
/// the identity), which keeps the order in-RAM training has always used;
/// on-disk and planned resident rows take ShardedEpochOrder(shard rows,
/// rng), restarting from the identity each epoch, so a shard directory and
/// its materialized rows with the same plan emit bit-identical batches and
/// share BatcherState. For one shard the two rules agree on the first epoch
/// only.
///
/// On disk, `prefetch_depth` > 0 runs one background thread decoding up to
/// that many shards ahead; 0 decodes synchronously on the consumer thread
/// (no concurrency at all — required when fs is fault-injecting). Resident
/// rows ignore it: nothing is decoded.
class StreamingBatcher {
 public:
  /// `rng` may be null for sequential order. Non-owning; `dataset` and `rng`
  /// must outlive the batcher.
  StreamingBatcher(const StreamingDataset* dataset, int batch_size, Rng* rng,
                   int prefetch_depth = 2);
  ~StreamingBatcher();

  StreamingBatcher(const StreamingBatcher&) = delete;
  StreamingBatcher& operator=(const StreamingBatcher&) = delete;

  /// Fills `*batch` with the next minibatch; returns false at epoch end
  /// (after which the next call starts a fresh, reshuffled epoch) or on a
  /// read failure (then ok() is false).
  bool Next(Batch* batch);
  /// Restarts the current epoch from the beginning (no reshuffle): the next
  /// Next() replays the order as-is, even right after an epoch boundary.
  void Rewind();
  std::int64_t batches_per_epoch() const;
  /// Total rows per epoch; manifest-driven on disk, so sizing never
  /// requires the rows to be resident.
  std::int64_t size() const { return dataset_->size(); }
  const FeatureSchema& schema() const { return dataset_->schema(); }

  /// Captures the epoch order and cursor for checkpointing. (The shuffle
  /// Rng is owned by the caller and checkpointed separately.)
  BatcherState SaveState() const;
  /// Restores a state captured by SaveState(). All-or-nothing: rejects a
  /// state whose cursor does not fit, whose order is not a permutation of
  /// [0, size()), or whose order is not shard-sequential, returning false
  /// with the batcher unchanged.
  bool RestoreState(const BatcherState& state);

  /// An on-disk source latches !ok() on I/O or validation failure (fail
  /// closed); a resident source never fails.
  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

  /// Number of shard decodes performed so far (both paths), for tests that
  /// assert prefetch actually streams rather than re-decoding per batch.
  /// Always 0 for a resident source.
  std::int64_t shards_decoded() const { return shards_decoded_; }

 private:
  struct DecodedShard {
    int shard_index = -1;
    bool ok = false;
    std::string error;
    std::vector<Example> rows;
  };

  void ShuffleIfNeeded();
  /// Derives visits_/visit_starts_ from order_; false if order_ is not
  /// shard-sequential.
  bool DeriveVisits();
  void StopPipeline();
  /// The row at order position `pos`; null after a read failure.
  const Example* RowAt(std::int64_t pos);
  /// Makes current_ the decoded shard for visit `v` (consumer thread only).
  bool EnsureVisit(std::size_t v);
  void Fail(const std::string& message);

  const StreamingDataset* dataset_;
  int batch_size_;
  Rng* rng_;
  int prefetch_depth_;

  // Epoch state.
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  /// True while order_ is the epoch the caller should (re)play from cursor 0
  /// without a reshuffle. Cleared in exactly one place — the epoch-end branch
  /// of Next() — and set again by the lazy reshuffle, the constructor,
  /// Rewind(), and RestoreState(). Keeping a single clear site is what makes
  /// "each epoch is shuffled exactly once" auditable.
  bool fresh_epoch_ = true;

  // The epoch order's shard structure: visits_[v] is the v-th distinct
  // shard, visit_starts_[v] the order_ position where its run begins
  // (visit_starts_ has visits_.size() + 1 entries; back() == size()).
  std::vector<int> visits_;
  std::vector<std::int64_t> visit_starts_;

  // Consumer-side decode state (on disk only).
  DecodedShard current_;
  std::size_t current_visit_ = 0;  // valid iff current_.shard_index >= 0

  // Prefetch pipeline. The worker owns a value snapshot of the visit list;
  // the channel is the only shared object, and StopPipeline (Cancel + join)
  // runs before the channel is destroyed.
  std::unique_ptr<core::BoundedChannel<DecodedShard>> channel_;
  core::WorkerThread worker_;
  std::size_t next_pipeline_visit_ = 0;  // first visit NOT yet claimed by a pipeline

  bool failed_ = false;
  std::string error_;
  std::int64_t shards_decoded_ = 0;
};

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_STREAM_H_
