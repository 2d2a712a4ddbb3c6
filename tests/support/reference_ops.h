#ifndef DCMT_TESTS_SUPPORT_REFERENCE_OPS_H_
#define DCMT_TESTS_SUPPORT_REFERENCE_OPS_H_

// Unfused composite implementations of the fused ops, kept as the ground
// truth that kernel_test checks the fused ops against (values AND
// gradients) and that bench_kernels times them against. Built entirely from
// the public ops in tensor/ops.h; test and bench support only, never linked
// into the production libraries.

#include <vector>

#include "tensor/ops.h"

namespace dcmt {
namespace ops {
namespace reference {

/// Mean as Scale(Sum(a), 1/size) — what ops::Mean fuses.
Tensor Mean(const Tensor& a);
/// WeightedSum as Sum(Mul(a, w)) — what ops::WeightedSum fuses.
Tensor WeightedSum(const Tensor& a, const Tensor& weights);
/// SquaredNorm as Sum(Square(a)) — what ops::SquaredNorm fuses.
Tensor SquaredNorm(const Tensor& a);
/// SigmoidBce as BceLoss(Sigmoid(z), y) — what ops::SigmoidBce fuses (equal
/// within tolerance only: the composite clamps probabilities, the fused op
/// computes in logit space).
Tensor SigmoidBce(const Tensor& logits, const Tensor& target);
/// EmbeddingConcat as per-field EmbeddingLookup + ConcatCols.
Tensor EmbeddingConcat(const std::vector<Tensor>& tables,
                       const std::vector<std::vector<int>>& field_ids);

}  // namespace reference
}  // namespace ops
}  // namespace dcmt

#endif  // DCMT_TESTS_SUPPORT_REFERENCE_OPS_H_
