#ifndef DCMT_OPTIM_ADAM_H_
#define DCMT_OPTIM_ADAM_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dcmt {
namespace optim {

/// Complete serializable Adam state. `lr` is included because per-epoch decay
/// mutates it; restoring the state resumes the exact update sequence.
struct AdamState {
  std::int64_t step = 0;
  float lr = 0.0f;
  /// First/second moments, one vector per parameter in registration order.
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
};

/// Adam (Kingma & Ba, 2015) — the optimizer the paper trains every model
/// with (lr 1e-3). Weight decay here is coupled L2 (added to the gradient),
/// matching the λ2‖θ‖² term of the paper's Eq. (14); the trainer passes the
/// paper's λ2 directly as `weight_decay`. The optimizer holds shared handles
/// to the parameters it updates; Step() consumes the gradients accumulated
/// since the last ZeroGrad().
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using current gradients.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (Tensor& p : params_) p.ZeroGrad();
  }

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  const std::vector<Tensor>& params() const { return params_; }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  std::int64_t step_count() const { return step_; }

  /// Copies out the full optimizer state for checkpointing.
  AdamState ExportState() const;

  /// True iff ImportState(state) would succeed: a non-negative step and
  /// moment shapes that match this optimizer's parameters exactly.
  bool CanImport(const AdamState& state) const;

  /// Restores a state captured by ExportState(). All-or-nothing: unless
  /// CanImport(state), the call returns false and the optimizer is left
  /// unchanged.
  bool ImportState(const AdamState& state);

 private:
  std::vector<Tensor> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace optim
}  // namespace dcmt

#endif  // DCMT_OPTIM_ADAM_H_
