#include "eval/trainer.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/obs.h"
#include "data/stream.h"
#include "eval/checkpointer.h"
#include "eval/evaluator.h"
#include "nn/graph_check.h"
#include "optim/adam.h"

namespace dcmt {
namespace eval {
namespace {

/// Snapshot of all parameter values (for best-epoch restoration).
std::vector<std::vector<float>> SnapshotParameters(
    const models::MultiTaskModel& model) {
  std::vector<std::vector<float>> snapshot;
  snapshot.reserve(model.parameters().size());
  for (const Tensor& p : model.parameters()) snapshot.push_back(p.ToVector());
  return snapshot;
}

void RestoreParameters(models::MultiTaskModel* model,
                       const std::vector<std::vector<float>>& snapshot) {
  const auto& params = model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor p = params[i];  // shared handle
    std::copy(snapshot[i].begin(), snapshot[i].end(), p.data());
  }
}

/// Shared training core: everything from optimizer construction to the
/// final checkpoint, parameterized over the batch stream. `val_split` may be
/// null (no validation). Train() drives it over resident rows,
/// TrainFromSource() over whatever batcher the caller built.
TrainHistory TrainLoop(models::MultiTaskModel* model,
                       data::StreamingBatcher* batcher, Rng* shuffle_rng,
                       const TrainConfig& config,
                       const data::Dataset* val_split) {
  TrainHistory history;
  const auto start = std::chrono::steady_clock::now();

  // Trainer telemetry (DESIGN.md §12). Handles are acquired once per Train
  // call; recording them is a no-op branch unless obs::SetEnabled(true).
  obs::Registry& obs_registry = obs::Registry::Global();
  obs::Counter obs_steps = obs_registry.counter("dcmt_train_steps_total");
  obs::Counter obs_rows = obs_registry.counter("dcmt_train_rows_total");
  obs::Counter obs_epochs = obs_registry.counter("dcmt_train_epochs_total");
  obs::Gauge obs_loss_last = obs_registry.gauge("dcmt_train_loss_last");
  obs::Gauge obs_grad_norm_last =
      obs_registry.gauge("dcmt_train_grad_norm_last");
  obs::Gauge obs_rows_per_second =
      obs_registry.gauge("dcmt_train_rows_per_second");
  obs::Sum obs_train_seconds = obs_registry.sum("dcmt_train_seconds_total");
  obs::Histogram obs_loss_hist =
      obs_registry.histogram("dcmt_train_loss", 32, 0.0, 8.0);
  obs::Histogram obs_grad_norm_hist =
      obs_registry.histogram("dcmt_train_grad_norm", 32, 0.0, 16.0);
  std::int64_t rows_trained = 0;

  const bool has_validation = val_split != nullptr && !val_split->empty();
  optim::Adam adam(model->parameters(), config.learning_rate, 0.9f, 0.999f,
                   1e-8f, config.weight_decay);

  double eval_seconds = 0.0;
  double best_val_auc = -1.0;
  int best_epoch = -1;
  int epochs_since_best = 0;
  std::vector<std::vector<float>> best_snapshot;

  // --- Crash-safe checkpointing (DESIGN.md §10). ---------------------------
  std::unique_ptr<Checkpointer> checkpointer;
  std::uint64_t fingerprint = 0;
  int start_epoch = 0;
  double resumed_loss_sum = 0.0;
  std::int64_t resumed_batches = 0;
  bool resume_mid_epoch = false;
  if (!config.checkpoint_dir.empty()) {
    fingerprint = FingerprintTrainSetup(*model, config, batcher->size());
    checkpointer = std::make_unique<Checkpointer>(config.checkpoint_dir, config.fs);
    if (config.resume) {
      TrainCheckpointState saved;
      if (checkpointer->Restore(fingerprint, model, &adam, batcher,
                                shuffle_rng, &saved) &&
          saved.epoch <= config.epochs) {
        start_epoch = saved.epoch;
        resumed_loss_sum = saved.loss_sum;
        resumed_batches = saved.batches;
        resume_mid_epoch = true;
        history.steps = saved.steps;
        history.final_epoch = saved.final_epoch;
        history.epoch_loss = saved.epoch_loss;
        history.validation_cvr_auc = saved.validation_cvr_auc;
        best_val_auc = saved.best_val_auc;
        best_epoch = saved.best_epoch;
        epochs_since_best = saved.epochs_since_best;
        best_snapshot = std::move(saved.best_snapshot);
        if (config.verbose) {
          std::fprintf(stderr,
                       "[train %s] resumed from %s at epoch %d, step %lld\n",
                       model->name().c_str(), checkpointer->path().c_str(),
                       start_epoch, static_cast<long long>(history.steps));
        }
      } else if (config.verbose) {
        std::fprintf(stderr,
                     "[train %s] no usable checkpoint in %s; training from "
                     "scratch\n",
                     model->name().c_str(), config.checkpoint_dir.c_str());
      }
    }
  }
  const std::uint64_t variant_fingerprint =
      FingerprintModelVariant(*model, model->name());
  if (!resume_mid_epoch && !config.warm_start_dir.empty()) {
    // Warm start from the previous refresh's weights + moments. A variant or
    // shape mismatch is a configuration bug, never recoverable mid-run:
    // fail closed rather than silently cold-starting.
    const Checkpointer warm(config.warm_start_dir, config.fs);
    std::string warm_error;
    if (!warm.WarmStart(variant_fingerprint, model, &adam, &warm_error)) {
      std::fprintf(stderr, "[train %s] warm start from %s failed: %s\n",
                   model->name().c_str(), warm.path().c_str(),
                   warm_error.c_str());
      std::abort();
    }
    // The imported Adam state carries the donor run's (possibly decayed)
    // learning rate; this run's schedule starts from its own configured lr.
    adam.set_lr(config.learning_rate);
    if (config.verbose) {
      std::fprintf(stderr, "[train %s] warm-started from %s\n",
                   model->name().c_str(), warm.path().c_str());
    }
  }

  // Persists the complete training state; `epoch`/`loss_sum`/`batches`
  // describe the epoch in progress at the save point. A failed save is
  // reported but does not stop training — the previous checkpoint is intact.
  const auto save_checkpoint = [&](int epoch, double loss_sum,
                                   std::int64_t batches) {
    TrainCheckpointState state;
    state.fingerprint = fingerprint;
    state.variant_fingerprint = variant_fingerprint;
    state.epoch = epoch;
    state.loss_sum = loss_sum;
    state.batches = batches;
    state.steps = history.steps;
    state.final_epoch = history.final_epoch;
    state.epoch_loss = history.epoch_loss;
    state.validation_cvr_auc = history.validation_cvr_auc;
    state.best_val_auc = best_val_auc;
    state.best_epoch = best_epoch;
    state.epochs_since_best = epochs_since_best;
    state.best_snapshot = best_snapshot;
    state.adam = adam.ExportState();
    state.shuffle_rng = shuffle_rng->state();
    state.batcher = batcher->SaveState();
    if (!checkpointer->Save(*model, state) && config.verbose) {
      std::fprintf(stderr, "[train %s] checkpoint save to %s failed\n",
                   model->name().c_str(), checkpointer->path().c_str());
    }
  };

  const auto elapsed_training_seconds = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() -
           eval_seconds;
  };

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    obs::TraceSpan epoch_span("train/epoch", "epoch", epoch);
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    if (resume_mid_epoch) {
      // Continue the interrupted epoch exactly where the checkpoint left it
      // (the batcher cursor and shuffle RNG were restored alongside).
      loss_sum = resumed_loss_sum;
      batches = resumed_batches;
      resume_mid_epoch = false;
    }
    data::Batch batch;
    while (batcher->Next(&batch)) {
      adam.ZeroGrad();
      models::Predictions preds = model->Forward(batch);
      Tensor loss = model->Loss(batch, preds);
#ifndef NDEBUG
      // Debug builds statically validate the very first tape of the run —
      // shape rules, backward registration, parameter reachability, stale
      // reuse — before any gradient is spent on a malformed graph. One batch
      // suffices: the graph's structure is batch-independent.
      if (history.steps == 0) {
        const nn::GraphCheckResult check =
            nn::CheckGraph(loss, model->parameters());
        if (!check.ok()) {
          std::fprintf(stderr, "[train %s] autograd tape is malformed:\n%s",
                       model->name().c_str(), check.Report().c_str());
          std::abort();
        }
      }
#endif
      loss.Backward();
      if (config.grad_clip > 0.0f) {
        const float grad_norm = adam.ClipGradNorm(config.grad_clip);
        obs_grad_norm_last.Set(grad_norm);
        obs_grad_norm_hist.Observe(grad_norm);
      }
      adam.Step();
      const double step_loss = static_cast<double>(loss.item());
      loss_sum += step_loss;
      ++batches;
      ++history.steps;
      if (config.record_step_loss) history.step_loss.push_back(step_loss);
      obs_steps.Inc();
      obs_rows.Inc(batch.size);
      rows_trained += batch.size;
      obs_loss_last.Set(step_loss);
      obs_loss_hist.Observe(step_loss);
      if (checkpointer != nullptr && config.checkpoint_every > 0 &&
          history.steps % config.checkpoint_every == 0) {
        save_checkpoint(epoch, loss_sum, batches);
      }
      if (config.halt_after_steps > 0 &&
          history.steps >= config.halt_after_steps) {
        // Simulated crash (or exhausted step budget): return immediately —
        // no final checkpoint, history reflects only the completed epochs.
        history.seconds = elapsed_training_seconds();
        return history;
      }
    }
    if (!batcher->ok()) {
      // An on-disk source that fails mid-epoch (shard corruption, I/O
      // error) must not let the run finish on silently truncated data:
      // fail closed, loudly.
      std::fprintf(stderr, "[train %s] batch source failed: %s\n",
                   model->name().c_str(), batcher->error().c_str());
      std::abort();
    }
    const double epoch_loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    history.epoch_loss.push_back(epoch_loss);
    history.final_epoch = epoch;
    obs_epochs.Inc();

    // 1.0f is the exact "decay disabled" sentinel, not a computed quantity.
    // dcmt-lint: allow(float-eq) — exact sentinel comparison.
    if (config.lr_decay != 1.0f) {
      adam.set_lr(adam.lr() * config.lr_decay);
    }

    bool stop_early = false;
    if (has_validation) {
      obs::TraceSpan val_span("train/validate", "epoch", epoch);
      const auto eval_start = std::chrono::steady_clock::now();
      const EvalResult val = Evaluate(model, *val_split);
      eval_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - eval_start)
                          .count();
      history.validation_cvr_auc.push_back(val.cvr_auc_clicked);
      if (config.verbose) {
        std::fprintf(stderr, "[train %s] epoch %d/%d loss %.5f val cvr auc %.4f\n",
                     model->name().c_str(), epoch + 1, config.epochs, epoch_loss,
                     val.cvr_auc_clicked);
      }
      if (config.early_stopping_patience > 0) {
        if (val.cvr_auc_clicked > best_val_auc) {
          best_val_auc = val.cvr_auc_clicked;
          best_epoch = epoch;
          best_snapshot = SnapshotParameters(*model);
          epochs_since_best = 0;
        } else if (++epochs_since_best >= config.early_stopping_patience) {
          // best_snapshot can be empty if no epoch ever improved on the
          // initial best (e.g. a NaN validation AUC on epoch 0); keep the
          // current parameters rather than restoring from nothing.
          if (!best_snapshot.empty()) {
            RestoreParameters(model, best_snapshot);
            history.final_epoch = best_epoch;
          }
          stop_early = true;
        }
      }
    } else if (config.verbose) {
      std::fprintf(stderr, "[train %s] epoch %d/%d loss %.5f\n",
                   model->name().c_str(), epoch + 1, config.epochs, epoch_loss);
    }

    if (stop_early) break;
    if (checkpointer != nullptr) {
      // Epoch-end save: records the next epoch as "in progress, 0 batches".
      // This also persists any best-epoch improvement made just above.
      save_checkpoint(epoch + 1, 0.0, 0);
    }
  }

  // If training ended normally but an earlier epoch was strictly better on
  // validation, keep the best parameters (standard model selection).
  if (config.early_stopping_patience > 0 && best_epoch >= 0 &&
      best_epoch != history.final_epoch && !best_snapshot.empty()) {
    RestoreParameters(model, best_snapshot);
    history.final_epoch = best_epoch;
  }

  // Final checkpoint: a completed run resumes as a no-op with the selected
  // parameters in place.
  if (checkpointer != nullptr) {
    save_checkpoint(config.epochs, 0.0, 0);
  }

  // Report pure training time: validation Evaluate passes are bookkeeping,
  // and counting them would misstate train throughput.
  history.seconds = elapsed_training_seconds();
  obs_train_seconds.Add(history.seconds);
  if (history.seconds > 0.0 && rows_trained > 0) {
    obs_rows_per_second.Set(static_cast<double>(rows_trained) /
                            history.seconds);
  }
  return history;
}

}  // namespace

TrainHistory Train(models::MultiTaskModel* model, const data::Dataset& train,
                   const TrainConfig& config) {
  // Optional validation split from the tail (chronological-style holdout).
  data::Dataset fit_split = train;
  data::Dataset val_split;
  if (config.validation_fraction > 0.0 && config.validation_fraction < 1.0) {
    const std::int64_t head =
        train.size() -
        static_cast<std::int64_t>(static_cast<double>(train.size()) *
                                  config.validation_fraction);
    auto [fit, val] = train.SplitAt(head);
    fit_split = std::move(fit);
    val_split = std::move(val);
  }

  Rng shuffle_rng(config.seed);
  const data::StreamingDataset rows = data::StreamingDataset::Resident(&fit_split);
  data::StreamingBatcher batcher(&rows, config.batch_size, &shuffle_rng);
  return TrainLoop(model, &batcher, &shuffle_rng, config,
                   val_split.empty() ? nullptr : &val_split);
}

TrainHistory TrainFromSource(models::MultiTaskModel* model,
                             data::StreamingBatcher* source, Rng* shuffle_rng,
                             const TrainConfig& config) {
  if (config.validation_fraction > 0.0) {
    std::fprintf(stderr,
                 "[train %s] TrainFromSource does not support a validation "
                 "split (validation_fraction must be 0)\n",
                 model->name().c_str());
    std::abort();
  }
  return TrainLoop(model, source, shuffle_rng, config, nullptr);
}

}  // namespace eval
}  // namespace dcmt
