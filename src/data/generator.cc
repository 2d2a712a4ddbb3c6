#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dcmt {
namespace data {
namespace {

float SigmoidF(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

/// Deterministic standard-normal-ish draw for a key: sum of 4 uniforms,
/// centered and scaled (Irwin-Hall approximation; adequate for noise terms).
float HashNormal(std::uint64_t key) {
  float acc = 0.0f;
  for (int i = 0; i < 4; ++i) {
    key = Mix64(key);
    acc += static_cast<float>(key >> 40) * (1.0f / 16777216.0f);
  }
  // Sum of 4 U(0,1): mean 2, var 4/12 -> scale to unit variance.
  return (acc - 2.0f) * 1.7320508f;
}

constexpr int kNumPositions = 10;

}  // namespace

int DrawConversionLagDays(const ConversionLagConfig& config, std::uint64_t key) {
  if (config.max_lag_days <= 0) return 0;
  // Component pick and the component's own draw use distinct salts so they
  // are independent of each other (and of every other keyed draw).
  const float pick = HashUniform(key ^ 0x6c61672d7069636bULL);
  if (pick < config.uniform_weight) {
    const float u = HashUniform(key ^ 0x6c61672d756e6966ULL);
    const int lag = static_cast<int>(u * static_cast<float>(config.max_lag_days + 1));
    return std::min(lag, config.max_lag_days);
  }
  const float p = std::clamp(config.geometric_p, 0.01f, 0.99f);
  const float u = HashUniform(key ^ 0x6c61672d67656f6dULL);
  // Failures before the first success: floor(ln(1-u) / ln(1-p)), capped.
  const int lag = static_cast<int>(std::log(1.0f - u) / std::log(1.0f - p));
  return std::min(lag, config.max_lag_days);
}

SyntheticLogGenerator::SyntheticLogGenerator(DatasetProfile profile)
    : profile_(std::move(profile)) {
  if (profile_.num_users <= 0 || profile_.num_items <= 0 ||
      profile_.latent_dim <= 0) {
    std::fprintf(stderr, "DatasetProfile has non-positive sizes\n");
    std::abort();
  }
  BuildPopulation();
  Calibrate();
}

void SyntheticLogGenerator::BuildPopulation() {
  Rng rng(profile_.seed);
  noise_salt_ = rng.NextUint64();
  const int k = profile_.latent_dim;
  const float factor_scale = 1.0f / std::sqrt(static_cast<float>(k));

  auto fill_factors = [&](std::vector<float>* out, int count) {
    out->resize(static_cast<std::size_t>(count) * k);
    for (auto& v : *out) v = rng.Normal(0.0f, factor_scale);
  };
  fill_factors(&user_click_factors_, profile_.num_users);
  fill_factors(&user_conv_factors_, profile_.num_users);
  fill_factors(&item_click_factors_, profile_.num_items);
  fill_factors(&item_conv_factors_, profile_.num_items);

  user_bias_.resize(profile_.num_users);
  for (auto& v : user_bias_) v = rng.Normal(0.0f, 0.3f);
  item_bias_.resize(profile_.num_items);
  for (auto& v : item_bias_) v = rng.Normal(0.0f, 0.3f);

  // Discretized views of the latents: informative but lossy features.
  // Segments/categories come from sign patterns of the click factors (plus a
  // little label noise); tiers/bands from a fixed projection of the
  // conversion factors, squashed and bucketed.
  std::vector<float> projection(static_cast<std::size_t>(k));
  for (auto& v : projection) v = rng.Normal(0.0f, 1.0f);

  auto bucketize = [&](const std::vector<float>& factors, int index, int buckets,
                       bool use_projection) {
    const float* f = factors.data() + static_cast<std::size_t>(index) * k;
    if (use_projection) {
      float proj = 0.0f;
      for (int d = 0; d < k; ++d) proj += f[d] * projection[static_cast<std::size_t>(d)];
      int b = static_cast<int>(SigmoidF(2.0f * proj) * static_cast<float>(buckets));
      return std::clamp(b, 0, buckets - 1);
    }
    // Sign-bit pattern of the first log2(buckets) dims.
    int bits = 0;
    int code = 0;
    while ((1 << (bits + 1)) <= buckets && bits < k) ++bits;
    for (int d = 0; d < bits; ++d) code = (code << 1) | (f[d] > 0.0f ? 1 : 0);
    return code % buckets;
  };

  user_segment_.resize(profile_.num_users);
  user_tier_.resize(profile_.num_users);
  for (int u = 0; u < profile_.num_users; ++u) {
    user_segment_[u] = bucketize(user_click_factors_, u, profile_.num_segments,
                                 /*use_projection=*/false);
    user_tier_[u] =
        bucketize(user_conv_factors_, u, profile_.num_tiers, /*use_projection=*/true);
  }
  item_category_.resize(profile_.num_items);
  item_band_.resize(profile_.num_items);
  for (int i = 0; i < profile_.num_items; ++i) {
    item_category_[i] = bucketize(item_click_factors_, i, profile_.num_categories,
                                  /*use_projection=*/false);
    item_band_[i] =
        bucketize(item_conv_factors_, i, profile_.num_bands, /*use_projection=*/true);
  }

  // Bucket-level affinity tables: the dominant, feature-recoverable part of
  // the utilities (a model that learns these tables from the categorical
  // features approaches the oracle).
  click_affinity_.resize(static_cast<std::size_t>(profile_.num_segments) *
                         profile_.num_categories);
  for (auto& v : click_affinity_) v = rng.Normal(0.0f, 1.0f);
  conv_affinity_.resize(static_cast<std::size_t>(profile_.num_tiers) *
                        profile_.num_bands);
  for (auto& v : conv_affinity_) v = rng.Normal(0.0f, 1.0f);

  // Main effects per bucket: the quickly-learnable (near-linear) signal. An
  // embedding + linear head recovers these within a few hundred steps, which
  // is what makes the scaled benchmark trainable in CI time.
  segment_bias_.resize(static_cast<std::size_t>(profile_.num_segments));
  for (auto& v : segment_bias_) v = rng.Normal(0.0f, 1.0f);
  category_bias_.resize(static_cast<std::size_t>(profile_.num_categories));
  for (auto& v : category_bias_) v = rng.Normal(0.0f, 1.0f);
  tier_bias_.resize(static_cast<std::size_t>(profile_.num_tiers));
  for (auto& v : tier_bias_) v = rng.Normal(0.0f, 1.0f);
  band_bias_.resize(static_cast<std::size_t>(profile_.num_bands));
  for (auto& v : band_bias_) v = rng.Normal(0.0f, 1.0f);
}

float SyntheticLogGenerator::ObservableClickUtility(int user, int item) const {
  const float affinity =
      click_affinity_[static_cast<std::size_t>(user_segment_[user]) *
                          profile_.num_categories +
                      item_category_[item]];
  const float main_effect =
      segment_bias_[static_cast<std::size_t>(user_segment_[user])] +
      category_bias_[static_cast<std::size_t>(item_category_[item])];
  return profile_.main_effect_scale * main_effect +
         profile_.affinity_scale * affinity + user_bias_[user] + item_bias_[item];
}

float SyntheticLogGenerator::HiddenClickUtility(int user, int item) const {
  const int k = profile_.latent_dim;
  const float* u = user_click_factors_.data() + static_cast<std::size_t>(user) * k;
  const float* v = item_click_factors_.data() + static_cast<std::size_t>(item) * k;
  float dot = 0.0f;
  for (int d = 0; d < k; ++d) dot += u[d] * v[d];
  const float noise =
      profile_.utility_noise *
      HashNormal(noise_salt_ ^ (static_cast<std::uint64_t>(user) << 32 |
                                static_cast<std::uint64_t>(item)));
  return profile_.latent_scale * dot + noise;
}

float SyntheticLogGenerator::ClickUtility(int user, int item, int position) const {
  return ObservableClickUtility(user, item) + HiddenClickUtility(user, item) -
         profile_.position_decay * static_cast<float>(position);
}

float SyntheticLogGenerator::ConversionUtility(int user, int item,
                                               int position) const {
  const int k = profile_.latent_dim;
  const float* u = user_conv_factors_.data() + static_cast<std::size_t>(user) * k;
  const float* v = item_conv_factors_.data() + static_cast<std::size_t>(item) * k;
  float dot = 0.0f;
  for (int d = 0; d < k; ++d) dot += u[d] * v[d];
  const float affinity =
      conv_affinity_[static_cast<std::size_t>(user_tier_[user]) *
                         profile_.num_bands +
                     item_band_[item]];
  const float noise =
      profile_.utility_noise *
      HashNormal(~noise_salt_ ^ (static_cast<std::uint64_t>(item) << 32 |
                                 static_cast<std::uint64_t>(user)));
  // Coupling to the click utility excludes its position term: conversion
  // happens on the detail page, after the user has already clicked.
  (void)position;
  const float main_effect =
      tier_bias_[static_cast<std::size_t>(user_tier_[user])] +
      band_bias_[static_cast<std::size_t>(item_band_[item])];
  return profile_.click_conv_coupling * ObservableClickUtility(user, item) +
         profile_.hidden_coupling * HiddenClickUtility(user, item) +
         profile_.main_effect_scale * main_effect +
         profile_.affinity_scale * affinity + profile_.latent_scale * dot + noise;
}

void SyntheticLogGenerator::Calibrate() {
  // Sample a pilot population of exposures and bisection-fit the intercepts.
  constexpr int kPilot = 20000;
  Rng rng(Mix64(profile_.seed ^ 0xca11b7a7e5eedULL));
  std::vector<float> click_utils(kPilot);
  std::vector<float> conv_utils(kPilot);
  for (int s = 0; s < kPilot; ++s) {
    const int user = static_cast<int>(rng.NextBounded(profile_.num_users));
    const float skew = rng.Uniform();
    const int item = std::min(profile_.num_items - 1,
                              static_cast<int>(skew * skew * profile_.num_items));
    const int pos = static_cast<int>(rng.NextBounded(kNumPositions));
    click_utils[s] = ClickUtility(user, item, pos);
    conv_utils[s] = ConversionUtility(user, item, pos);
  }

  auto fit = [](const std::vector<float>& utils, const std::vector<float>& weights,
                double target) {
    float lo = -20.0f, hi = 20.0f;
    for (int iter = 0; iter < 60; ++iter) {
      const float mid = 0.5f * (lo + hi);
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < utils.size(); ++i) {
        const double w = weights.empty() ? 1.0 : weights[i];
        num += w * SigmoidF(utils[i] + mid);
        den += w;
      }
      if (num / den < target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5f * (lo + hi);
  };

  click_intercept_ = fit(click_utils, {}, profile_.target_click_rate);

  // The conversion target is conditional on click, so weight the pilot by the
  // (now-calibrated) click propensity.
  std::vector<float> click_probs(kPilot);
  for (int s = 0; s < kPilot; ++s) {
    click_probs[s] = SigmoidF(click_utils[s] + click_intercept_);
  }
  conv_intercept_ = fit(conv_utils, click_probs, profile_.target_cvr_given_click);
}

float SyntheticLogGenerator::TrueClickProbability(int user, int item,
                                                  int position) const {
  return SigmoidF(ClickUtility(user, item, position) + click_intercept_);
}

float SyntheticLogGenerator::TrueConversionProbability(int user, int item,
                                                       int position) const {
  return SigmoidF(ConversionUtility(user, item, position) + conv_intercept_);
}

FeatureSchema SyntheticLogGenerator::Schema() const {
  FeatureSchema schema;
  schema.deep_fields = {
      {"user_id", profile_.user_hash_vocab},
      {"item_id", profile_.item_hash_vocab},
      {"user_segment", profile_.num_segments},
      {"user_tier", profile_.num_tiers},
      {"item_category", profile_.num_categories},
      {"item_band", profile_.num_bands},
      {"position", kNumPositions},
  };
  if (profile_.with_wide_features) {
    schema.wide_fields = {
        {"segment_x_category", profile_.num_segments * profile_.num_categories},
        {"tier_x_band", profile_.num_tiers * profile_.num_bands},
    };
  }
  return schema;
}

Example SyntheticLogGenerator::MakeExample(int user, int item, int position) const {
  Example e;
  e.user_index = user;
  e.item_index = item;
  e.deep_ids = {
      user % profile_.user_hash_vocab,
      item % profile_.item_hash_vocab,
      user_segment_[user],
      user_tier_[user],
      item_category_[item],
      item_band_[item],
      position,
  };
  if (profile_.with_wide_features) {
    e.wide_ids = {
        user_segment_[user] * profile_.num_categories + item_category_[item],
        user_tier_[user] * profile_.num_bands + item_band_[item],
    };
  }
  e.true_ctr = TrueClickProbability(user, item, position);
  e.true_cvr = TrueConversionProbability(user, item, position);
  return e;
}

Example SyntheticLogGenerator::DrawExposure(Rng* rng) const {
  const int user = static_cast<int>(rng->NextBounded(profile_.num_users));
  // Mild popularity skew in the exposure policy, as in production logs.
  const float skew = rng->Uniform();
  const int item = std::min(profile_.num_items - 1,
                            static_cast<int>(skew * skew * profile_.num_items));
  const int pos = static_cast<int>(rng->NextBounded(kNumPositions));
  Example e = MakeExample(user, item, pos);
  e.click = rng->Bernoulli(e.true_ctr) ? 1 : 0;
  e.oracle_conversion = rng->Bernoulli(e.true_cvr) ? 1 : 0;
  e.conversion = (e.click && e.oracle_conversion) ? 1 : 0;
  if (e.oracle_conversion && profile_.conversion_lag.max_lag_days > 0) {
    // Keyed (not drawn from `rng`) so enabling the lag leaves every other
    // draw of the stream bit-identical; lags are deterministic per
    // (user, item, position) like the SCM's idiosyncratic noise.
    e.convert_lag_days = DrawConversionLagDays(
        profile_.conversion_lag,
        Mix64(noise_salt_ ^ (static_cast<std::uint64_t>(user) << 32 |
                             static_cast<std::uint64_t>(item))) ^
            Mix64(static_cast<std::uint64_t>(pos) + 7919));
  }
  return e;
}

Dataset SyntheticLogGenerator::Generate(std::int64_t count, std::uint64_t stream) {
  Rng rng(Mix64(profile_.seed) ^ Mix64(stream ^ 0x5eedf00dULL));
  std::vector<Example> examples;
  examples.reserve(static_cast<std::size_t>(count));
  for (std::int64_t s = 0; s < count; ++s) {
    examples.push_back(DrawExposure(&rng));
  }
  return Dataset(profile_.name, Schema(), std::move(examples));
}

bool SyntheticLogGenerator::GenerateToShards(const std::string& dir,
                                             std::int64_t count,
                                             std::uint64_t stream,
                                             const ShardWriterConfig& config,
                                             std::string* error) {
  core::FileSystem* fs =
      config.fs != nullptr ? config.fs : core::FileSystem::Default();
  if (!fs->CreateDirectories(dir)) {
    *error = dir + ": cannot create directory";
    return false;
  }
  ShardWriter writer(dir, Schema(), config);
  Rng rng(Mix64(profile_.seed) ^ Mix64(stream ^ 0x5eedf00dULL));
  for (std::int64_t s = 0; s < count; ++s) {
    writer.Append(DrawExposure(&rng));
    if (!writer.ok()) break;  // I/O already failed; stop drawing
  }
  if (!writer.Finish()) {
    *error = writer.error();
    return false;
  }
  return true;
}

Dataset SyntheticLogGenerator::GenerateTrain() {
  return Generate(profile_.train_exposures, /*stream=*/1);
}

Dataset SyntheticLogGenerator::GenerateTest() {
  return Generate(profile_.test_exposures, /*stream=*/2);
}

}  // namespace data
}  // namespace dcmt
