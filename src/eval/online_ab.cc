#include "eval/online_ab.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "core/obs.h"
#include "serve/frozen_model.h"
#include "tensor/random.h"

namespace dcmt {
namespace eval {
namespace {

/// Deterministic approximate N(0,1) (Irwin–Hall over 4 uniforms).
float HashNormal(std::uint64_t key) {
  float acc = 0.0f;
  for (std::uint64_t i = 0; i < 4; ++i) {
    acc += HashUniform(key ^ Mix64(i + 0x5deece66dULL));
  }
  return (acc - 2.0f) * 1.7320508f;
}

/// Per-item preference random walk at day `day`: the cumulative sum of one
/// fresh deterministic N(0,1) step per elapsed day. Day 0 is the undrifted
/// world the buckets' models were (pre)trained on.
float DriftWalk(std::uint64_t seed, int day, int item) {
  const std::uint64_t salt = Mix64(seed ^ 0x64726966742d7377ULL) ^
                             Mix64(static_cast<std::uint64_t>(item) + 104729);
  float walk = 0.0f;
  for (int t = 1; t <= day; ++t) {
    walk += HashNormal(salt ^ Mix64(static_cast<std::uint64_t>(t) * 2654435761ULL));
  }
  return walk;
}

/// Shifts a conversion propensity by `shift` in log-odds.
float ShiftLogOdds(float p, float shift) {
  const float clamped = std::clamp(p, 1e-6f, 1.0f - 1e-6f);
  const float logit = std::log(clamped / (1.0f - clamped)) + shift;
  return 1.0f / (1.0f + std::exp(-logit));
}

}  // namespace

DayTraffic BuildDayTraffic(const data::SyntheticLogGenerator& generator,
                           const AbConfig& config, int day) {
  const auto& profile = generator.profile();
  // The day's traffic, identical for every bucket/policy: the stream depends
  // only on (seed, day), never on any model's choices.
  Rng traffic(Mix64(config.seed) ^ Mix64(static_cast<std::uint64_t>(day) + 17));
  DayTraffic out;
  out.stream.resize(static_cast<std::size_t>(config.page_views_per_day));
  for (auto& pv : out.stream) {
    pv.user = static_cast<int>(traffic.NextBounded(profile.num_users));
    pv.candidates.resize(static_cast<std::size_t>(config.candidates_per_pv));
    for (auto& item : pv.candidates) {
      const float skew = traffic.Uniform();
      item = std::min(profile.num_items - 1,
                      static_cast<int>(skew * skew * profile.num_items));
    }
  }
  return out;
}

ScoringPlan BuildScoringPlan(const data::SyntheticLogGenerator& generator,
                             const DayTraffic& traffic, std::size_t pv_begin,
                             std::size_t pv_end) {
  // The skew-sampled candidate lists repeat (user, item) pairs heavily, and
  // every duplicate used to re-run its embedding lookups and tower forward.
  // Each distinct pair is scored once and broadcast back to its candidate
  // slots — same scores (forward rows are independent), strictly less work.
  ScoringPlan plan;
  std::unordered_map<std::uint64_t, std::size_t> row_index;
  for (std::size_t p = pv_begin; p < pv_end; ++p) {
    const DayTraffic::PageView& pv = traffic.stream[p];
    for (int item : pv.candidates) {
      const std::uint64_t key = static_cast<std::uint64_t>(pv.user) << 32 |
                                static_cast<std::uint32_t>(item);
      auto [it, inserted] = row_index.emplace(key, plan.unique_rows.size());
      if (inserted) {
        plan.unique_rows.push_back(
            generator.MakeExample(pv.user, item, /*position=*/0));
      }
      plan.slot_to_row.push_back(it->second);
    }
  }
  return plan;
}

void RollDayOutcomes(const data::SyntheticLogGenerator& generator,
                     const AbConfig& config, int day, const DayTraffic& traffic,
                     std::size_t pv_begin, std::size_t pv_end,
                     const std::vector<float>& slot_pctcvr,
                     const std::vector<float>& slot_pcvr, DayTally* tally,
                     std::vector<ExposureOutcome>* log) {
  // dcmt-lint: allow(float-eq) — exact "drift disabled" sentinel.
  const bool drifted = config.conversion_drift_scale != 0.0f && day > 0;
  for (std::size_t p = pv_begin; p < pv_end; ++p) {
    const DayTraffic::PageView& pv = traffic.stream[p];
    const std::size_t base =
        (p - pv_begin) * static_cast<std::size_t>(config.candidates_per_pv);
    std::vector<int> order(pv.candidates.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int c) {
      return slot_pctcvr[base + static_cast<std::size_t>(a)] >
             slot_pctcvr[base + static_cast<std::size_t>(c)];
    });
    const int exposed = std::min<int>(
        config.exposed_per_pv, static_cast<int>(pv.candidates.size()));
    for (int slot = 0; slot < exposed; ++slot) {
      const int item = pv.candidates[static_cast<std::size_t>(order[slot])];
      // The event key depends on (day, pv, user, item, slot) only — the
      // same exposure resolves identically under every policy (stateless
      // keyed draws), the variance-pairing trick of the A/B platform.
      const std::uint64_t event_key =
          Mix64(static_cast<std::uint64_t>(day) * 1000003ULL + p) ^
          Mix64(static_cast<std::uint64_t>(pv.user) << 32 |
                static_cast<std::uint64_t>(item)) ^
          Mix64(static_cast<std::uint64_t>(slot) + 31337);
      const float p_click = generator.TrueClickProbability(pv.user, item, slot);
      const bool clicked = HashUniform(event_key) < p_click;
      float p_conv = generator.TrueConversionProbability(pv.user, item, slot);
      if (drifted) {
        p_conv = ShiftLogOdds(p_conv, config.conversion_drift_scale *
                                          DriftWalk(config.seed, day, item));
      }
      // The potential outcome r̃ is drawn for every exposure; the observed
      // conversion is r = o·r̃. Clicked exposures draw the exact uniform the
      // pre-§17 simulator drew, so lag=0 metrics stay bit-identical.
      const bool oracle = HashUniform(event_key ^ 0xc0ffeeULL) < p_conv;
      const bool converted = clicked && oracle;
      int lag_days = 0;
      if (converted && config.lag.max_lag_days > 0) {
        lag_days = data::DrawConversionLagDays(
            config.lag, event_key ^ 0x6c61672d726f6c6cULL);
      }
      const bool matured = converted && day + lag_days < config.days;
      ++tally->exposures;
      tally->clicks += clicked ? 1 : 0;
      tally->matured_conversions += matured ? 1 : 0;
      tally->pending_conversions += (converted && !matured) ? 1 : 0;
      tally->eventual_conversions += converted ? 1 : 0;
      if (matured && slot < config.first_screen) {
        ++tally->first_screen_conversions;
      }
      if (log != nullptr) {
        ExposureOutcome& out = log->emplace_back();
        out.pv = p;
        out.item = item;
        out.slot = slot;
        out.clicked = clicked;
        out.oracle = oracle;
        out.converted = converted;
        out.lag_days = lag_days;
        out.p_click = p_click;
        out.p_conv = p_conv;
        out.pctcvr = slot_pctcvr[base + static_cast<std::size_t>(order[slot])];
        out.pcvr = slot_pcvr[base + static_cast<std::size_t>(order[slot])];
      }
    }
  }
}

DayMetrics FinalizeDayMetrics(const DayTally& tally, std::int64_t page_views) {
  DayMetrics metrics;
  metrics.page_views = page_views;
  metrics.clicks = tally.clicks;
  metrics.conversions = tally.matured_conversions;
  metrics.pending_conversions = tally.pending_conversions;
  if (page_views > 0) {
    metrics.pv_ctr = static_cast<double>(tally.clicks) / page_views;
    metrics.pv_cvr = static_cast<double>(tally.matured_conversions) / page_views;
    metrics.top5_pv_cvr =
        static_cast<double>(tally.first_screen_conversions) / page_views;
  }
  return metrics;
}

OnlineAbSimulator::OnlineAbSimulator(data::SyntheticLogGenerator* generator,
                                     AbConfig config)
    : generator_(generator), config_(config) {}

std::vector<BucketResult> OnlineAbSimulator::Run(
    const std::vector<models::MultiTaskModel*>& bucket_models,
    const std::vector<std::string>& bucket_names) {
  std::vector<BucketResult> results(bucket_models.size());
  for (std::size_t b = 0; b < bucket_models.size(); ++b) {
    results[b].model = bucket_names[b];
  }

  // Serving-side telemetry: scoring latency is tracked per bucket (the
  // labeled sums are what an A/B dashboard would alert on), event volumes
  // globally.
  obs::Registry& obs_registry = obs::Registry::Global();
  obs::Counter obs_page_views = obs_registry.counter("dcmt_ab_page_views_total");
  obs::Counter obs_scored =
      obs_registry.counter("dcmt_ab_candidates_scored_total");
  obs::Counter obs_exposures = obs_registry.counter("dcmt_ab_exposures_total");
  obs::Counter obs_clicks = obs_registry.counter("dcmt_ab_clicks_total");
  obs::Counter obs_conversions =
      obs_registry.counter("dcmt_ab_conversions_total");
  std::vector<obs::Sum> obs_score_seconds;
  obs_score_seconds.reserve(bucket_names.size());
  for (const std::string& name : bucket_names) {
    obs_score_seconds.push_back(obs_registry.sum(
        "dcmt_ab_score_seconds_total{bucket=\"" + name + "\"}"));
  }

  std::int64_t posterior_exposures = 0, posterior_clicks = 0,
               posterior_convs = 0;

  // Each bucket's model behind a frozen view, reused across days. Scores are
  // identical to a taped Forward over the raw candidate list (forward
  // kernels are row-independent at any batch composition; see
  // serve::FrozenModel), but the path is tape-free and — with the dedupe in
  // BuildScoringPlan — embeds each distinct (user, item) pair once instead
  // of once per duplicate slot.
  std::vector<serve::FrozenModel> frozen;
  frozen.reserve(bucket_models.size());
  for (models::MultiTaskModel* model : bucket_models) {
    frozen.push_back(serve::FrozenModel::View(model, generator_->Schema()));
  }
  // Rows per forward: bounds the activation arena however many distinct
  // candidates a day has.
  constexpr std::size_t kScoreChunkRows = 4096;

  for (int day = 0; day < config_.days; ++day) {
    const DayTraffic traffic = BuildDayTraffic(*generator_, config_, day);
    const ScoringPlan plan =
        BuildScoringPlan(*generator_, traffic, 0, traffic.stream.size());
    const std::int64_t day_candidates =
        static_cast<std::int64_t>(plan.slot_to_row.size());

    for (std::size_t b = 0; b < bucket_models.size(); ++b) {
      // Score the unique rows through the bucket's frozen model, then
      // expand to per-candidate-slot columns.
      std::vector<float> score_ctcvr;
      std::vector<float> score_cvr;
      score_ctcvr.reserve(plan.slot_to_row.size());
      score_cvr.reserve(plan.slot_to_row.size());
      {
        obs::TraceSpan score_span("ab/score", "candidates", day_candidates);
        const std::int64_t score_t0 = obs::NowNanos();
        const std::vector<data::Example>& rows = plan.unique_rows;
        std::vector<float> unique_ctcvr;
        std::vector<float> unique_cvr;
        for (std::size_t first = 0; first < rows.size();
             first += kScoreChunkRows) {
          const std::size_t last = std::min(first + kScoreChunkRows, rows.size());
          const serve::ScoreColumns chunk =
              frozen[b].ScoreExamples(std::vector<data::Example>(
                  rows.begin() + static_cast<std::ptrdiff_t>(first),
                  rows.begin() + static_cast<std::ptrdiff_t>(last)));
          unique_ctcvr.insert(unique_ctcvr.end(), chunk.pctcvr.begin(),
                              chunk.pctcvr.end());
          unique_cvr.insert(unique_cvr.end(), chunk.pcvr.begin(),
                            chunk.pcvr.end());
        }
        for (const std::size_t row : plan.slot_to_row) {
          score_ctcvr.push_back(unique_ctcvr[row]);
          score_cvr.push_back(unique_cvr[row]);
        }
        obs_score_seconds[b].Add(
            static_cast<double>(obs::NowNanos() - score_t0) * 1e-9);
        obs_scored.Inc(day_candidates);
      }
      if (day == 0) {
        results[b].day1_cvr_predictions = score_cvr;
      }

      // Rank within each page view, expose top-K, roll user behaviour.
      DayTally tally;
      RollDayOutcomes(*generator_, config_, day, traffic, 0,
                      traffic.stream.size(), score_ctcvr, score_cvr, &tally,
                      /*log=*/nullptr);
      if (day == 0) {
        posterior_exposures += tally.exposures;
        posterior_clicks += tally.clicks;
        posterior_convs += tally.eventual_conversions;
      }
      const DayMetrics metrics =
          FinalizeDayMetrics(tally, config_.page_views_per_day);
      obs_page_views.Inc(metrics.page_views);
      obs_exposures.Inc(tally.exposures);
      obs_clicks.Inc(metrics.clicks);
      obs_conversions.Inc(metrics.conversions);
      results[b].days.push_back(metrics);
    }
  }

  // Overall = traffic-weighted mean over days.
  for (BucketResult& r : results) {
    DayMetrics total;
    double top5_sum = 0.0;
    for (const DayMetrics& d : r.days) {
      total.page_views += d.page_views;
      total.clicks += d.clicks;
      total.conversions += d.conversions;
      total.pending_conversions += d.pending_conversions;
      top5_sum += d.top5_pv_cvr * static_cast<double>(d.page_views);
    }
    if (total.page_views > 0) {
      total.pv_ctr = static_cast<double>(total.clicks) / total.page_views;
      total.pv_cvr = static_cast<double>(total.conversions) / total.page_views;
      total.top5_pv_cvr = top5_sum / static_cast<double>(total.page_views);
    }
    r.overall = total;
  }

  posterior_.over_d =
      posterior_exposures > 0
          ? static_cast<double>(posterior_convs) / posterior_exposures
          : 0.0;
  posterior_.over_o = posterior_clicks > 0
                          ? static_cast<double>(posterior_convs) / posterior_clicks
                          : 0.0;
  posterior_.over_n = 0.0;
  return results;
}

}  // namespace eval
}  // namespace dcmt
