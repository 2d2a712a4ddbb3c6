#include "eval/evaluator.h"

#include <algorithm>

#include "core/obs.h"
#include "data/batch.h"
#include "metrics/metrics.h"
#include "models/common.h"

namespace dcmt {
namespace eval {

PredictionLog Predict(models::MultiTaskModel* model,
                      const data::Dataset& dataset, int batch_size) {
  static obs::Counter obs_rows =
      obs::Registry::Global().counter("dcmt_eval_rows_total");
  static obs::Sum obs_seconds =
      obs::Registry::Global().sum("dcmt_eval_seconds_total");
  obs::TraceSpan span("eval/predict", "rows", dataset.size());
  const std::int64_t t0 = obs::NowNanos();

  PredictionLog log;
  const std::int64_t n = dataset.size();
  log.ctr.reserve(static_cast<std::size_t>(n));
  log.cvr.reserve(static_cast<std::size_t>(n));
  log.ctcvr.reserve(static_cast<std::size_t>(n));
  log.click.reserve(static_cast<std::size_t>(n));
  log.conversion.reserve(static_cast<std::size_t>(n));
  log.oracle_conversion.reserve(static_cast<std::size_t>(n));

  for (std::int64_t first = 0; first < n; first += batch_size) {
    const int count = static_cast<int>(std::min<std::int64_t>(batch_size, n - first));
    const data::Batch batch = data::MakeContiguousBatch(dataset, first, count);
    const models::Predictions preds = model->Forward(batch);
    const std::vector<float> ctr = models::ColumnToVector(preds.ctr);
    const std::vector<float> cvr = models::ColumnToVector(preds.cvr);
    const std::vector<float> ctcvr = models::ColumnToVector(preds.ctcvr);
    log.ctr.insert(log.ctr.end(), ctr.begin(), ctr.end());
    log.cvr.insert(log.cvr.end(), cvr.begin(), cvr.end());
    log.ctcvr.insert(log.ctcvr.end(), ctcvr.begin(), ctcvr.end());
    if (preds.cvr_counterfactual.defined()) {
      const std::vector<float> cf =
          models::ColumnToVector(preds.cvr_counterfactual);
      log.cvr_counterfactual.insert(log.cvr_counterfactual.end(), cf.begin(),
                                    cf.end());
    }
    log.click.insert(log.click.end(), batch.click_raw.begin(),
                     batch.click_raw.end());
    log.conversion.insert(log.conversion.end(), batch.conversion_raw.begin(),
                          batch.conversion_raw.end());
  }
  for (const data::Example& e : dataset.examples()) {
    log.oracle_conversion.push_back(e.oracle_conversion);
    log.user_index.push_back(e.user_index);
  }
  obs_rows.Inc(n);
  obs_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
  return log;
}

EvalResult ComputeMetrics(const PredictionLog& log) {
  EvalResult result;
  const std::size_t n = log.cvr.size();

  // Clicked subset for the paper's CVR protocol.
  std::vector<float> cvr_clicked;
  std::vector<std::uint8_t> conv_clicked;
  std::vector<float> cvr_nonclicked;
  std::vector<std::uint8_t> ctcvr_labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (log.click[i] == 1) {
      cvr_clicked.push_back(log.cvr[i]);
      conv_clicked.push_back(log.conversion[i]);
    } else {
      cvr_nonclicked.push_back(log.cvr[i]);
    }
    ctcvr_labels[i] = (log.click[i] && log.conversion[i]) ? 1 : 0;
  }

  result.cvr_auc_clicked = metrics::Auc(cvr_clicked, conv_clicked);
  result.ctcvr_auc = metrics::Auc(log.ctcvr, ctcvr_labels);
  result.ctr_auc = metrics::Auc(log.ctr, log.click);
  result.cvr_auc_oracle = metrics::Auc(log.cvr, log.oracle_conversion);
  if (log.user_index.size() == n) {
    result.ctcvr_gauc = metrics::GroupAuc(log.ctcvr, ctcvr_labels, log.user_index);
  }
  if (!cvr_clicked.empty()) {
    result.cvr_pr_auc_clicked = metrics::PrAuc(cvr_clicked, conv_clicked);
  }
  if (!cvr_clicked.empty()) {
    result.cvr_logloss_clicked = metrics::LogLoss(cvr_clicked, conv_clicked);
  }
  result.ctr_logloss = metrics::LogLoss(log.ctr, log.click);
  result.mean_cvr_pred = metrics::MeanValue(log.cvr);
  result.mean_cvr_pred_clicked = metrics::MeanValue(cvr_clicked);
  result.mean_cvr_pred_nonclicked = metrics::MeanValue(cvr_nonclicked);
  return result;
}

EvalResult Evaluate(models::MultiTaskModel* model, const data::Dataset& test,
                    int batch_size) {
  return ComputeMetrics(Predict(model, test, batch_size));
}

}  // namespace eval
}  // namespace dcmt
