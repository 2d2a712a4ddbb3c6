#ifndef DCMT_DATA_BATCH_H_
#define DCMT_DATA_BATCH_H_

#include <vector>

#include "data/dataset.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace data {

/// A minibatch in the layout models consume: field-major id lists plus
/// constant label tensors. Label tensors never require grad.
struct Batch {
  /// deep_ids[f][b]: id of deep field f for example b.
  std::vector<std::vector<int>> deep_ids;
  /// wide_ids[f][b]: id of wide field f for example b (empty if schema has none).
  std::vector<std::vector<int>> wide_ids;
  /// Click labels o as a [B x 1] tensor.
  Tensor click;
  /// Observed conversion labels r as a [B x 1] tensor (0 outside O).
  Tensor conversion;
  /// CTCVR labels t = o AND r. In a well-formed log t == r, but keep a
  /// separate tensor so malformed inputs cannot silently corrupt CTCVR.
  Tensor ctcvr;
  /// Raw click bytes for fast host-side masking (IPW weights, SNIPS sums).
  std::vector<std::uint8_t> click_raw;
  /// Raw conversion bytes.
  std::vector<std::uint8_t> conversion_raw;
  /// Generator ground-truth propensities (simulation oracle; models must
  /// never read these — only evaluation utilities like the oracle ranker do).
  std::vector<float> true_ctr;
  std::vector<float> true_cvr;
  int size = 0;
};

/// Row-incremental batch assembly. MakeContiguousBatch and the
/// StreamingBatcher both build batches through this one class, so every
/// batch the trainer, the evaluator and the serving path see is assembled the
/// same way: the same Add() sequence produces the same column buffers and the
/// same ColumnVector tensors.
class BatchBuilder {
 public:
  BatchBuilder(const FeatureSchema& schema, int capacity);

  void Add(const Example& example);
  /// Finalizes the label tensors and returns the batch. The builder is
  /// consumed; construct a fresh one per batch.
  Batch Finish();

  int size() const { return size_; }

 private:
  const FeatureSchema& schema_;
  Batch batch_;
  std::vector<float> click_;
  std::vector<float> conversion_;
  std::vector<float> ctcvr_;
  int size_ = 0;
};

/// Assembles one batch from the contiguous rows [first, first + count).
/// Aborts on an empty or out-of-range row range.
Batch MakeContiguousBatch(const std::vector<Example>& rows, std::int64_t first,
                          int count, const FeatureSchema& schema);

/// Same, over a dataset's rows (evaluation streams a test set in order).
inline Batch MakeContiguousBatch(const Dataset& dataset, std::int64_t first,
                                 int count) {
  return MakeContiguousBatch(dataset.examples(), first, count, dataset.schema());
}

}  // namespace data
}  // namespace dcmt

#endif  // DCMT_DATA_BATCH_H_
