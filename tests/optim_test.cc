// Unit tests for the Adam optimizer: analytic one-step updates, convergence
// on convex problems, and gradient clipping.

#include <cmath>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "optim/adam.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

TEST(AdamTest, FirstStepSizeIsLr) {
  // With bias correction, |step 1| == lr regardless of gradient scale.
  Tensor w = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, /*lr=*/0.01f);
  w.grad()[0] = 123.0f;
  adam.Step();
  EXPECT_NEAR(w.item(), 1.0f - 0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::Scalar(-4.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    ops::Square(ops::AddScalar(w, -1.0f)).Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.item(), 1.0f, 1e-2f);
}

TEST(AdamTest, StepCountAdvances) {
  Tensor w = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  optim::Adam adam({w});
  EXPECT_EQ(adam.step_count(), 0);
  w.grad()[0] = 1.0f;
  adam.Step();
  adam.Step();
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Tensor w = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  optim::Adam adam({w}, 0.1f);
  adam.Step();  // no grad allocated: parameter must not move
  EXPECT_FLOAT_EQ(w.item(), 3.0f);
}

TEST(AdamTest, FitsLogisticRegression) {
  // y = 1[x0 > x1] is linearly separable; Adam should drive BCE far down.
  Rng rng(3);
  constexpr int kN = 128;
  std::vector<float> xs(kN * 2), ys(kN);
  for (int i = 0; i < kN; ++i) {
    xs[static_cast<std::size_t>(i) * 2] = rng.Uniform(-1.0f, 1.0f);
    xs[static_cast<std::size_t>(i) * 2 + 1] = rng.Uniform(-1.0f, 1.0f);
    ys[static_cast<std::size_t>(i)] =
        xs[static_cast<std::size_t>(i) * 2] > xs[static_cast<std::size_t>(i) * 2 + 1]
            ? 1.0f
            : 0.0f;
  }
  Tensor x = Tensor::FromData(kN, 2, xs);
  Tensor y = Tensor::FromData(kN, 1, ys);
  nn::Linear layer("lr", 2, 1, &rng);
  optim::Adam adam(layer.parameters(), 0.05f);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Tensor loss = ops::Mean(ops::BceLoss(ops::Sigmoid(layer.Forward(x)), y));
    loss.Backward();
    adam.Step();
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 0.25f * first_loss);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  optim::Adam adam({w}, 1.0f);
  w.grad()[0] = 3.0f;
  w.grad()[1] = 4.0f;  // norm 5
  const float pre = adam.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(w.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.grad()[1], 0.8f, 1e-5f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, /*requires_grad=*/true);
  optim::Adam adam({w}, 1.0f);
  w.grad()[0] = 0.3f;
  w.grad()[1] = 0.4f;
  adam.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.4f);
}

}  // namespace
}  // namespace dcmt
