// Tests for the DCMT core: the twin tower's parameter partition and hard
// constraint, the entire-space counterfactual loss (Eq. 8/9), the SNIPS
// self-normalization (Eq. 13), the counterfactual regularizer, variant
// behaviour (PD / CF / full), and an empirical check of the unbiasedness
// construction in Theorem III.1.

#include <cmath>

#include <gtest/gtest.h>

#include "core/dcmt.h"
#include "core/twin_tower.h"
#include "data/batch.h"
#include "data/generator.h"
#include "models/common.h"
#include "optim/adam.h"
#include "tensor/ops.h"

namespace dcmt {
namespace {

data::DatasetProfile TinyProfile() {
  data::DatasetProfile p;
  p.name = "tiny";
  p.num_users = 60;
  p.num_items = 90;
  p.train_exposures = 800;
  p.test_exposures = 200;
  p.target_click_rate = 0.3;
  p.target_cvr_given_click = 0.3;
  p.seed = 21;
  return p;
}

models::ModelConfig TinyConfig() {
  models::ModelConfig c;
  c.embedding_dim = 4;
  c.hidden_dims = {8, 4};
  c.seed = 9;
  // Pin the clip: the hand-computed expectations below assume 0.05.
  c.propensity_clip = 0.05f;
  return c;
}

// --- TwinTower -----------------------------------------------------------------

TEST(TwinTowerTest, OutputsAreIndependentHeadsBySharedTrunk) {
  Rng rng(1);
  core::TwinTower tower("twin", 6, 0, {8, 4}, &rng);
  Tensor deep = Tensor::Uniform(10, 6, -1.0f, 1.0f, &rng);
  const core::TwinTowerOut out = tower.Forward(deep, Tensor());
  const Tensor& factual = out.factual;
  const Tensor& counter = out.counterfactual;
  EXPECT_EQ(factual.rows(), 10);
  EXPECT_EQ(counter.rows(), 10);
  // Both heads expose their pre-sigmoid logits for the fused losses.
  EXPECT_TRUE(out.factual_logit.defined());
  EXPECT_TRUE(out.counter_logit.defined());
  // Heads differ (different θ_f vs θ_cf) even with the shared trunk.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (std::fabs(factual.at(i, 0) - counter.at(i, 0)) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TwinTowerTest, HardConstraintForcesComplement) {
  Rng rng(2);
  core::TwinTower tower("twin", 6, 0, {8}, &rng, /*hard_constraint=*/true);
  Tensor deep = Tensor::Uniform(10, 6, -1.0f, 1.0f, &rng);
  const core::TwinTowerOut out = tower.Forward(deep, Tensor());
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(out.factual.at(i, 0) + out.counterfactual.at(i, 0), 1.0f, 1e-6f);
  }
  // r̂* = 1 − r̂ is derived from the probability; there is no counter logit.
  EXPECT_FALSE(out.counter_logit.defined());
}

TEST(TwinTowerTest, WideFeaturesContributeToLogits) {
  Rng rng(3);
  core::TwinTower tower("twin", 4, 3, {6}, &rng);
  Tensor deep = Tensor::Uniform(5, 4, -1.0f, 1.0f, &rng);
  Tensor wide_a = Tensor::Full(5, 3, 0.0f);
  Tensor wide_b = Tensor::Full(5, 3, 1.0f);
  const core::TwinTowerOut a = tower.Forward(deep, wide_a);
  const core::TwinTowerOut b = tower.Forward(deep, wide_b);
  bool changed = false;
  for (int i = 0; i < 5; ++i) {
    if (std::fabs(a.factual.at(i, 0) - b.factual.at(i, 0)) > 1e-6f) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(TwinTowerTest, SharedTrunkReceivesGradientFromBothHeads) {
  Rng rng(4);
  core::TwinTower tower("twin", 4, 0, {6}, &rng);
  Tensor deep = Tensor::Uniform(8, 4, -1.0f, 1.0f, &rng);
  tower.ZeroGrad();
  const core::TwinTowerOut out = tower.Forward(deep, Tensor());
  // Loss touching only the counterfactual head must still move the trunk.
  ops::Sum(out.counterfactual).Backward();
  int trunk_params_with_grad = 0;
  for (const Tensor& p : tower.parameters()) {
    if (p.name().find("trunk") == std::string::npos) continue;
    float norm = 0.0f;
    if (p.has_grad()) {
      for (std::int64_t i = 0; i < p.size(); ++i) norm += std::fabs(p.grad()[i]);
    }
    if (norm > 0.0f) ++trunk_params_with_grad;
  }
  EXPECT_GT(trunk_params_with_grad, 0);
  // The factual head θ_f must be untouched by a counterfactual-only loss.
  for (const Tensor& p : tower.parameters()) {
    if (p.name().find("head.f") == std::string::npos) continue;
    if (!p.has_grad()) continue;
    for (std::int64_t i = 0; i < p.size(); ++i) EXPECT_EQ(p.grad()[i], 0.0f);
  }
}

// --- Dcmt model ------------------------------------------------------------------

class DcmtVariantTest : public ::testing::TestWithParam<core::Dcmt::Variant> {};

TEST_P(DcmtVariantTest, ForwardLossTrainStep) {
  data::SyntheticLogGenerator gen(TinyProfile());
  const data::Dataset train = gen.GenerateTrain();
  core::Dcmt model(train.schema(), TinyConfig(), GetParam());
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 128);

  const models::Predictions preds = model.Forward(batch);
  ASSERT_TRUE(preds.cvr_counterfactual.defined());
  const Tensor loss = model.Loss(batch, preds);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);

  optim::Adam adam(model.parameters(), 0.01f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 10; ++step) {
    adam.ZeroGrad();
    const models::Predictions p = model.Forward(batch);
    Tensor l = model.Loss(batch, p);
    l.Backward();
    adam.Step();
    if (step == 0) first = l.item();
    last = l.item();
  }
  EXPECT_LT(last, first);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DcmtVariantTest,
    ::testing::Values(core::Dcmt::Variant::kFull, core::Dcmt::Variant::kPd,
                      core::Dcmt::Variant::kCf),
    [](const ::testing::TestParamInfo<core::Dcmt::Variant>& param_info) {
      switch (param_info.param) {
        case core::Dcmt::Variant::kFull:
          return "full";
        case core::Dcmt::Variant::kPd:
          return "pd";
        case core::Dcmt::Variant::kCf:
          return "cf";
      }
      return "unknown";
    });

TEST(DcmtTest, VariantNames) {
  data::SyntheticLogGenerator gen(TinyProfile());
  const auto schema = gen.Schema();
  EXPECT_EQ(core::Dcmt(schema, TinyConfig(), core::Dcmt::Variant::kFull).name(),
            "dcmt");
  EXPECT_EQ(core::Dcmt(schema, TinyConfig(), core::Dcmt::Variant::kPd).name(),
            "dcmt-pd");
  EXPECT_EQ(core::Dcmt(schema, TinyConfig(), core::Dcmt::Variant::kCf).name(),
            "dcmt-cf");
}

/// Builds a hand-crafted batch: n_clicked clicked rows (first `n_conv` of
/// them converted) followed by n_nonclicked non-clicked rows.
data::Batch HandBatch(int n_clicked, int n_conv, int n_nonclicked) {
  data::Batch batch;
  batch.size = n_clicked + n_nonclicked;
  std::vector<float> click, conv;
  for (int i = 0; i < n_clicked; ++i) {
    batch.click_raw.push_back(1);
    const bool converted = i < n_conv;
    batch.conversion_raw.push_back(converted ? 1 : 0);
    click.push_back(1.0f);
    conv.push_back(converted ? 1.0f : 0.0f);
  }
  for (int i = 0; i < n_nonclicked; ++i) {
    batch.click_raw.push_back(0);
    batch.conversion_raw.push_back(0);
    click.push_back(0.0f);
    conv.push_back(0.0f);
  }
  batch.click = Tensor::ColumnVector(click);
  batch.conversion = Tensor::ColumnVector(conv);
  batch.ctcvr = Tensor::ColumnVector(conv);
  return batch;
}

/// CVR-task loss of a full DCMT with *fixed* (injected) predictions so the
/// expected value can be hand-computed. Uses the public CvrTaskLoss hook.
double ManualDcmtCvrLoss(const data::Batch& batch, float pctr, float pcvr,
                         float pcvr_cf, float lambda1, bool self_normalize) {
  // SNIPS weights, Eq. (13), with clip 0.05.
  const float clip = 0.05f;
  const float prop = std::clamp(pctr, clip, 1.0f - clip);
  double factual = 0.0, counter = 0.0;
  double f_norm = 0.0, c_norm = 0.0;
  int n = batch.size;
  for (int i = 0; i < n; ++i) {
    if (batch.click_raw[static_cast<std::size_t>(i)]) {
      f_norm += 1.0 / prop;
    } else {
      c_norm += 1.0 / (1.0 - prop);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (batch.click_raw[static_cast<std::size_t>(i)]) {
      const double y = batch.conversion_raw[static_cast<std::size_t>(i)];
      const double e = -y * std::log(pcvr) - (1.0 - y) * std::log(1.0 - pcvr);
      factual += (1.0 / prop) * e / (self_normalize ? f_norm : n);
    } else {
      // r* = 1 in N*.
      const double e = -std::log(pcvr_cf);
      counter += (1.0 / (1.0 - prop)) * e / (self_normalize ? c_norm : n);
    }
  }
  const double reg = lambda1 * std::fabs(1.0 - (pcvr + pcvr_cf));
  return factual + counter + reg;
}

TEST(DcmtLossTest, MatchesHandComputedValue) {
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 0.01f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);

  const data::Batch batch = HandBatch(4, 2, 12);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.4f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.6f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  const Tensor loss = model.CvrTaskLoss(batch, preds);
  const double expected =
      ManualDcmtCvrLoss(batch, 0.4f, 0.3f, 0.6f, 0.01f, /*self_normalize=*/true);
  EXPECT_NEAR(loss.item(), expected, 1e-5);
}

TEST(DcmtLossTest, PdVariantDropsRegularizer) {
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 10.0f;  // would dominate if present
  core::Dcmt pd(gen.Schema(), config, core::Dcmt::Variant::kPd);
  core::Dcmt full(gen.Schema(), config, core::Dcmt::Variant::kFull);

  const data::Batch batch = HandBatch(4, 2, 12);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.4f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.6f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  const float pd_loss = pd.CvrTaskLoss(batch, preds).item();
  const float full_loss = full.CvrTaskLoss(batch, preds).item();
  // |1 - (0.3+0.6)| = 0.1 weighted by λ1=10 -> difference of exactly 1.0.
  EXPECT_NEAR(full_loss - pd_loss, 10.0f * 0.1f, 1e-4f);
}

TEST(DcmtLossTest, CfVariantIgnoresPropensity) {
  // With uniform weights, changing pCTR must not change the CF-variant loss.
  data::SyntheticLogGenerator gen(TinyProfile());
  core::Dcmt cf(gen.Schema(), TinyConfig(), core::Dcmt::Variant::kCf);
  const data::Batch batch = HandBatch(4, 2, 12);
  models::Predictions preds;
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.6f, /*requires_grad=*/true);

  preds.ctr = Tensor::Full(batch.size, 1, 0.2f);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  const float loss_a = cf.CvrTaskLoss(batch, preds).item();
  preds.ctr = Tensor::Full(batch.size, 1, 0.8f);
  const float loss_b = cf.CvrTaskLoss(batch, preds).item();
  EXPECT_NEAR(loss_a, loss_b, 1e-6f);
}

TEST(DcmtLossTest, SnipsWeightsSumToOnePerSpace) {
  // With self-normalization, scaling all propensities leaves the factual
  // term invariant when propensities are uniform.
  data::SyntheticLogGenerator gen(TinyProfile());
  core::Dcmt model(gen.Schema(), TinyConfig(), core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(6, 3, 10);
  models::Predictions preds;
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.7f, /*requires_grad=*/true);

  preds.ctr = Tensor::Full(batch.size, 1, 0.2f);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  const float loss_a = model.CvrTaskLoss(batch, preds).item();
  preds.ctr = Tensor::Full(batch.size, 1, 0.6f);
  const float loss_b = model.CvrTaskLoss(batch, preds).item();
  // Uniform propensities cancel in SNIPS: identical losses.
  EXPECT_NEAR(loss_a, loss_b, 1e-5f);
}

TEST(DcmtLossTest, CounterfactualLabelsAreMirrored) {
  // In N* the counterfactual label is 1, so a counterfactual head near 1
  // must yield a smaller loss than one near 0.
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 0.0f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(2, 1, 14);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.3f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.9f, /*requires_grad=*/true);
  const float loss_high = model.CvrTaskLoss(batch, preds).item();
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.1f, /*requires_grad=*/true);
  const float loss_low = model.CvrTaskLoss(batch, preds).item();
  EXPECT_LT(loss_high, loss_low);
}

TEST(DcmtLossTest, UnbiasednessConstructionTheorem31) {
  // Theorem III.1: with o == ô (accurate propensity) and r̂ + r̂* == 1, the
  // un-normalized entire-space loss (Eq. 8 with 1/|D| scaling) equals the
  // ground-truth loss (1/|D|) Σ_D e(r, r̂) computed with oracle labels.
  //
  // We verify on a synthetic batch where the oracle conversion labels are
  // known: labels in O are the observed ones; in N the oracle labels are
  // r = 0 (we craft the batch so), and r̂* = 1 − r̂ makes the counterfactual
  // term equal e(r, r̂) exactly.
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 0.0f;
  config.self_normalize = false;  // Eq. (8)'s plain 1/|D| scaling
  config.propensity_clip = 0.0f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);

  const data::Batch batch = HandBatch(5, 2, 11);
  const float pcvr = 0.3f;
  models::Predictions preds;
  preds.cvr = Tensor::Full(batch.size, 1, pcvr, /*requires_grad=*/true);
  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 1.0f - pcvr, /*requires_grad=*/true);
  // Accurate propensity: ô = o exactly. Clipping is disabled above so that
  // 1/ô = 1 in O and 1/(1-ô) = 1 in N.
  std::vector<float> exact(static_cast<std::size_t>(batch.size));
  for (int i = 0; i < batch.size; ++i) {
    exact[static_cast<std::size_t>(i)] =
        batch.click_raw[static_cast<std::size_t>(i)] ? 1.0f : 0.0f;
  }
  preds.ctr = Tensor::ColumnVector(exact);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  const float dcmt_loss = model.CvrTaskLoss(batch, preds).item();
  // Ground truth: (1/|D|) Σ e(r, r̂) with the true labels (r = conversions in
  // O, r = 0 in N for this crafted batch).
  double ground_truth = 0.0;
  for (int i = 0; i < batch.size; ++i) {
    const double y = batch.conversion_raw[static_cast<std::size_t>(i)];
    ground_truth += -y * std::log(pcvr) - (1.0 - y) * std::log(1.0 - pcvr);
  }
  ground_truth /= batch.size;
  EXPECT_NEAR(dcmt_loss, ground_truth, 1e-5);
}

TEST(DcmtTest, HardConstraintModelTrains) {
  data::SyntheticLogGenerator gen(TinyProfile());
  const data::Dataset train = gen.GenerateTrain();
  models::ModelConfig config = TinyConfig();
  config.hard_constraint = true;
  core::Dcmt model(train.schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = data::MakeContiguousBatch(train, 0, 128);
  const models::Predictions preds = model.Forward(batch);
  for (int i = 0; i < batch.size; ++i) {
    EXPECT_NEAR(preds.cvr.at(i, 0) + preds.cvr_counterfactual.at(i, 0), 1.0f,
                1e-6f);
  }
  Tensor loss = model.Loss(batch, preds);
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();  // must not crash
}

TEST(DcmtStrategyTest, LabelSmoothingChangesCounterfactualTarget) {
  // With ε = 0.2 the N* labels become 0.8, so a counterfactual head at 0.8
  // must beat one at 1.0 (which would be ideal under exact mirror labels).
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 0.0f;
  config.counterfactual_label_smoothing = 0.2f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(2, 1, 14);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.3f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 0.8f, /*requires_grad=*/true);
  const float loss_at_smoothed_target = model.CvrTaskLoss(batch, preds).item();
  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 0.99f, /*requires_grad=*/true);
  const float loss_at_one = model.CvrTaskLoss(batch, preds).item();
  EXPECT_LT(loss_at_smoothed_target, loss_at_one);
}

TEST(DcmtStrategyTest, PriorSumShiftsRegularizerTarget) {
  // With prior c = 1.2, predictions summing to 1.2 incur no regularizer
  // penalty while predictions summing to 1.0 do.
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 100.0f;  // make the regularizer dominate
  config.counterfactual_prior_sum = 1.2f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(2, 1, 14);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.3f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.4f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);

  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 0.8f, /*requires_grad=*/true);  // sum 1.2
  const float loss_on_target = model.CvrTaskLoss(batch, preds).item();
  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 0.6f, /*requires_grad=*/true);  // sum 1.0
  const float loss_off_target = model.CvrTaskLoss(batch, preds).item();
  EXPECT_LT(loss_on_target, loss_off_target - 1.0f);
}

TEST(DcmtStrategyTest, DefaultsReproducePaperMechanism) {
  // ε = 0 and c = 1 must give exactly the hand-computed Eq. (9) value (the
  // MatchesHandComputedValue test re-run through the strategy path).
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  config.lambda1 = 0.01f;
  config.counterfactual_label_smoothing = 0.0f;
  config.counterfactual_prior_sum = 1.0f;
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(4, 2, 12);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.4f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.3f, /*requires_grad=*/true);
  preds.cvr_counterfactual =
      Tensor::Full(batch.size, 1, 0.6f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  const double expected =
      ManualDcmtCvrLoss(batch, 0.4f, 0.3f, 0.6f, 0.01f, /*self_normalize=*/true);
  EXPECT_NEAR(model.CvrTaskLoss(batch, preds).item(), expected, 1e-5);
}

TEST(DcmtTest, GradClipKeepsIpwTailsBounded) {
  // Propensity clip: even with extreme pCTR the weights stay finite.
  data::SyntheticLogGenerator gen(TinyProfile());
  models::ModelConfig config = TinyConfig();
  core::Dcmt model(gen.Schema(), config, core::Dcmt::Variant::kFull);
  const data::Batch batch = HandBatch(3, 1, 13);
  models::Predictions preds;
  preds.ctr = Tensor::Full(batch.size, 1, 0.999999f);
  preds.cvr = Tensor::Full(batch.size, 1, 0.5f, /*requires_grad=*/true);
  preds.cvr_counterfactual = Tensor::Full(batch.size, 1, 0.5f, /*requires_grad=*/true);
  preds.ctcvr = ops::Mul(preds.ctr, preds.cvr);
  EXPECT_TRUE(std::isfinite(model.CvrTaskLoss(batch, preds).item()));
}

}  // namespace
}  // namespace dcmt
