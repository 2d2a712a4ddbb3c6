#include "support/reference_ops.h"

#include <cstdio>
#include <cstdlib>

namespace dcmt {
namespace ops {
namespace reference {
namespace {

[[noreturn]] void Fatal(const char* msg) {
  std::fprintf(stderr, "dcmt reference ops fatal: %s\n", msg);
  std::abort();
}

}  // namespace

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.size()));
}

Tensor WeightedSum(const Tensor& a, const Tensor& weights) {
  if (a.rows() != weights.rows() || a.cols() != weights.cols()) {
    Fatal("WeightedSum shape mismatch");
  }
  return Sum(Mul(a, weights));
}

Tensor SquaredNorm(const Tensor& a) { return Sum(Square(a)); }

Tensor SigmoidBce(const Tensor& logits, const Tensor& target) {
  return BceLoss(Sigmoid(logits), target);
}

Tensor EmbeddingConcat(const std::vector<Tensor>& tables,
                       const std::vector<std::vector<int>>& field_ids) {
  if (tables.empty() || field_ids.size() != tables.size()) {
    Fatal("EmbeddingConcat field count mismatch");
  }
  std::vector<Tensor> parts;
  parts.reserve(tables.size());
  for (std::size_t f = 0; f < tables.size(); ++f) {
    parts.push_back(EmbeddingLookup(tables[f], field_ids[f]));
  }
  return parts.size() == 1 ? parts[0] : ConcatCols(parts);
}

}  // namespace reference
}  // namespace ops
}  // namespace dcmt
