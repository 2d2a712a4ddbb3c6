#ifndef DCMT_MODELS_COMMON_H_
#define DCMT_MODELS_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "data/batch.h"
#include "data/schema.h"
#include "models/multi_task_model.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace models {

/// The shared Embedding Layer of Fig. 3: one deep bag and (if the schema has
/// wide fields) one wide bag, shared by CTR Task and CVR Task.
class SharedEmbeddings : public nn::Module {
 public:
  SharedEmbeddings(const data::FeatureSchema& schema, int dim, Rng* rng);

  /// Concatenated deep embeddings [B x deep_fields*dim].
  Tensor DeepInput(const data::Batch& batch) const;

  /// Concatenated wide embeddings, or an undefined Tensor when the schema
  /// has no wide fields (the paper's degeneration to a pure deep structure).
  Tensor WideInput(const data::Batch& batch) const;

  int deep_width() const { return deep_bag_->out_features(); }
  int wide_width() const { return wide_bag_ ? wide_bag_->out_features() : 0; }
  bool has_wide() const { return wide_bag_ != nullptr; }

 private:
  std::unique_ptr<nn::EmbeddingBag> deep_bag_;
  std::unique_ptr<nn::EmbeddingBag> wide_bag_;
};

/// A deep prediction tower: MLP trunk + linear head producing a [B x 1] logit.
class Tower : public nn::Module {
 public:
  Tower(std::string name, int in_features, const std::vector<int>& hidden_dims,
        Rng* rng);

  /// Returns the pre-sigmoid logit.
  Tensor ForwardLogit(const Tensor& x) const;

  /// Returns sigmoid(logit).
  Tensor ForwardProb(const Tensor& x) const;

  /// Returns sigmoid(logit) and stores the logit in `*logit` so callers can
  /// hand it to the fused SigmoidBce losses (Predictions::*_logit fields).
  Tensor ForwardProb(const Tensor& x, Tensor* logit) const;

 private:
  std::unique_ptr<nn::Mlp> trunk_;
  std::unique_ptr<nn::Linear> head_;
};

// --- Loss helpers shared across the zoo -------------------------------------

/// Mean BCE of pCTR against click labels over D (Eq. 15, first line).
Tensor CtrLoss(const Tensor& pctr, const data::Batch& batch);

/// Mean BCE of pCTCVR against click&conversion labels over D (Eq. 15).
Tensor CtcvrLoss(const Tensor& pctcvr, const data::Batch& batch);

/// Naive CVR loss over the click space O: sum of per-sample BCE over clicked
/// examples divided by the number of clicked examples (Eq. 2). Returns a
/// zero scalar if the batch has no clicks.
Tensor CvrLossClickedOnly(const Tensor& pcvr, const data::Batch& batch);

/// IPW CVR loss (Eq. 5): (1/B) Σ_O e_i / clip(p̂_i). Propensities are
/// detached (gradients do not flow into the CTR tower through the weights)
/// and clamped to [clip, 1-clip].
Tensor IpwCvrLoss(const Tensor& pcvr, const Tensor& pctr_detached,
                  const data::Batch& batch, float clip);

// Predictions-aware overloads: identical semantics, but when the matching
// logit field is defined the per-example BCE is built with the fused
// ops::SigmoidBce(logit, label) — one node, clamp-free — instead of
// ops::BceLoss(prob, label). With undefined logits they are exact synonyms
// of the probability-space versions above.

/// Per-example CTR BCE [B x 1] (logit-fused when preds.ctr_logit is set).
Tensor CtrExampleLoss(const Predictions& preds, const data::Batch& batch);

/// Per-example CVR BCE [B x 1] against conversion labels (logit-fused when
/// preds.cvr_logit is set). The building block of every CVR-space loss.
Tensor CvrExampleLoss(const Predictions& preds, const data::Batch& batch);

/// CtrLoss via preds.ctr_logit / preds.ctr.
Tensor CtrLoss(const Predictions& preds, const data::Batch& batch);

/// CvrLossClickedOnly via preds.cvr_logit / preds.cvr.
Tensor CvrLossClickedOnly(const Predictions& preds, const data::Batch& batch);

/// IpwCvrLoss via preds.cvr_logit / preds.cvr.
Tensor IpwCvrLoss(const Predictions& preds, const Tensor& pctr_detached,
                  const data::Batch& batch, float clip);

/// Host-side helper: extracts column-0 floats of a [B x 1] tensor.
std::vector<float> ColumnToVector(const Tensor& t);

}  // namespace models
}  // namespace dcmt

#endif  // DCMT_MODELS_COMMON_H_
