#include "optim/adam.h"

#include <cmath>

namespace dcmt {
namespace optim {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor& p : params_) {
    m_.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.size()), 0.0f);
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.step = step_;
  state.lr = lr_;
  state.m = m_;
  state.v = v_;
  return state;
}

bool Adam::CanImport(const AdamState& state) const {
  if (state.step < 0) return false;
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) return false;
  for (std::size_t k = 0; k < m_.size(); ++k) {
    if (state.m[k].size() != m_[k].size() || state.v[k].size() != v_[k].size()) {
      return false;
    }
  }
  return true;
}

bool Adam::ImportState(const AdamState& state) {
  if (!CanImport(state)) return false;
  step_ = state.step;
  lr_ = state.lr;
  m_ = state.m;
  v_ = state.v;
  return true;
}

float Adam::ClipGradNorm(float max_norm) {
  double sq = 0.0;
  for (Tensor& p : params_) {
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    for (std::int64_t i = 0; i < p.size(); ++i) sq += static_cast<double>(g[i]) * g[i];
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Tensor& p : params_) {
      if (!p.has_grad()) continue;
      float* g = p.grad();
      for (std::int64_t i = 0; i < p.size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

void Adam::Step() {
  ++step_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad();
    float* m = m_[k].data();
    float* v = v_[k].data();
    for (std::int64_t i = 0; i < p.size(); ++i) {
      const float grad = g[i] + weight_decay_ * w[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad * grad;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      w[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace optim
}  // namespace dcmt
