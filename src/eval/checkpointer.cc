#include "eval/checkpointer.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/obs.h"
#include "nn/serialize.h"

namespace dcmt {
namespace eval {
namespace {

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string EncodeTrainerMeta(const TrainCheckpointState& state) {
  nn::PayloadWriter w;
  w.U64(state.fingerprint);
  w.U64(state.variant_fingerprint);
  w.I32(state.epoch);
  w.F64(state.loss_sum);
  w.I64(state.batches);
  w.I64(state.steps);
  w.I32(state.final_epoch);
  w.F64Vec(state.epoch_loss);
  w.F64Vec(state.validation_cvr_auc);
  w.F64(state.best_val_auc);
  w.I32(state.best_epoch);
  w.I32(state.epochs_since_best);
  return w.data();
}

bool DecodeTrainerMeta(std::string_view payload, TrainCheckpointState* state) {
  nn::PayloadReader r(payload);
  if (!r.U64(&state->fingerprint) || !r.U64(&state->variant_fingerprint) ||
      !r.I32(&state->epoch) ||
      !r.F64(&state->loss_sum) || !r.I64(&state->batches) ||
      !r.I64(&state->steps) || !r.I32(&state->final_epoch) ||
      !r.F64Vec(&state->epoch_loss) || !r.F64Vec(&state->validation_cvr_auc) ||
      !r.F64(&state->best_val_auc) || !r.I32(&state->best_epoch) ||
      !r.I32(&state->epochs_since_best)) {
    return false;
  }
  if (state->epoch < 0 || state->batches < 0 || state->steps < 0) return false;
  return r.AtEnd();
}

std::string EncodeAdamState(const optim::AdamState& adam) {
  nn::PayloadWriter w;
  w.I64(adam.step);
  w.F32(adam.lr);
  w.U32(static_cast<std::uint32_t>(adam.m.size()));
  for (std::size_t k = 0; k < adam.m.size(); ++k) {
    w.F32Vec(adam.m[k]);
    w.F32Vec(adam.v[k]);
  }
  return w.data();
}

bool DecodeAdamState(std::string_view payload, optim::AdamState* adam) {
  nn::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.I64(&adam->step) || !r.F32(&adam->lr) || !r.U32(&count)) return false;
  adam->m.resize(count);
  adam->v.resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    if (!r.F32Vec(&adam->m[k]) || !r.F32Vec(&adam->v[k])) return false;
  }
  return adam->step >= 0 && r.AtEnd();
}

std::string EncodeRngState(const RngState& rng) {
  nn::PayloadWriter w;
  for (int i = 0; i < 4; ++i) w.U64(rng.s[i]);
  w.U8(rng.has_spare_normal ? 1 : 0);
  w.F32(rng.spare_normal);
  return w.data();
}

bool DecodeRngState(std::string_view payload, RngState* rng) {
  nn::PayloadReader r(payload);
  for (int i = 0; i < 4; ++i) {
    if (!r.U64(&rng->s[i])) return false;
  }
  std::uint8_t has_spare = 0;
  if (!r.U8(&has_spare) || has_spare > 1 || !r.F32(&rng->spare_normal)) {
    return false;
  }
  rng->has_spare_normal = has_spare != 0;
  return r.AtEnd();
}

std::string EncodeBatcherState(const data::BatcherState& batcher) {
  nn::PayloadWriter w;
  w.I64(batcher.cursor);
  w.U8(batcher.fresh_epoch ? 1 : 0);
  w.I64Vec(batcher.order);
  return w.data();
}

bool DecodeBatcherState(std::string_view payload, data::BatcherState* batcher) {
  nn::PayloadReader r(payload);
  std::uint8_t fresh = 0;
  if (!r.I64(&batcher->cursor) || !r.U8(&fresh) || fresh > 1 ||
      !r.I64Vec(&batcher->order)) {
    return false;
  }
  batcher->fresh_epoch = fresh != 0;
  return r.AtEnd();
}

std::string EncodeSnapshot(const std::vector<std::vector<float>>& snapshot) {
  nn::PayloadWriter w;
  w.U32(static_cast<std::uint32_t>(snapshot.size()));
  for (const std::vector<float>& p : snapshot) w.F32Vec(p);
  return w.data();
}

bool DecodeSnapshot(std::string_view payload,
                    std::vector<std::vector<float>>* snapshot) {
  nn::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.U32(&count)) return false;
  snapshot->resize(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    if (!r.F32Vec(&(*snapshot)[k])) return false;
  }
  return r.AtEnd();
}

/// The bit a record type sets in ReadValidated's `records` mask.
constexpr std::uint32_t RecordBit(nn::RecordType type) { return 1u << type; }

/// True iff `snapshot` has exactly the module's parameter count and sizes.
bool SnapshotMatchesModule(const std::vector<std::vector<float>>& snapshot,
                           const nn::Module& module) {
  const auto& params = module.parameters();
  if (snapshot.size() != params.size()) return false;
  for (std::size_t k = 0; k < params.size(); ++k) {
    if (snapshot[k].size() != static_cast<std::size_t>(params[k].size())) {
      return false;
    }
  }
  return true;
}

/// A checkpoint read and validated against the live objects but not yet
/// applied. `params_payload` views `image`.
struct LoadedCheckpoint {
  std::string image;
  std::string_view params_payload;
  TrainCheckpointState state;
};

/// The one read-decode-validate path behind Checkpointer::Restore and
/// WarmStart. Reads `path` and verifies framing and CRCs. Decodes the record
/// types in `records` (a RecordBit mask: the ones the caller consumes),
/// rejecting duplicate or malformed ones, and skips the other known types
/// undecoded; an unknown type is rejected. Every type in `records` must be
/// present except kBestSnapshot, which exists only once an epoch improved.
/// Then checks `state.*fingerprint_field` against `expected_fingerprint` and
/// validates the parameters, Adam moments and best snapshot against
/// `module` and `adam`. Mutates nothing; on failure returns false and, if
/// `error` is non-null, says why in `*error`.
bool ReadValidated(core::FileSystem* fs, const std::string& path,
                   std::uint32_t records,
                   std::uint64_t TrainCheckpointState::*fingerprint_field,
                   std::uint64_t expected_fingerprint, const nn::Module& module,
                   const optim::Adam& adam, LoadedCheckpoint* out,
                   std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::unique_ptr<core::FileReader> reader = fs->OpenForRead(path);
  if (reader == nullptr) return fail("cannot open " + path);
  if (!reader->ReadAll(&out->image)) return fail("cannot read " + path);

  // Phase 1 — parse and verify the whole file (framing + CRCs), then decode
  // the records the caller consumes.
  std::vector<nn::RecordView> views;
  if (!nn::ParseCheckpointImage(out->image, &views)) {
    return fail("corrupt checkpoint image: " + path);
  }
  TrainCheckpointState& decoded = out->state;
  std::uint32_t seen = 0;
  for (const nn::RecordView& record : views) {
    if (record.type < nn::kParameters || record.type > nn::kBestSnapshot) {
      return fail("unknown record type in " + path);  // not written by this build
    }
    const std::uint32_t bit = RecordBit(static_cast<nn::RecordType>(record.type));
    if ((records & bit) == 0) continue;  // a record this caller does not consume
    if ((seen & bit) != 0) return fail("duplicate record in " + path);
    seen |= bit;
    bool ok = false;
    switch (record.type) {
      case nn::kTrainerMeta:
        ok = DecodeTrainerMeta(record.payload, &decoded);
        break;
      case nn::kParameters:
        out->params_payload = record.payload;
        ok = true;
        break;
      case nn::kAdamState:
        ok = DecodeAdamState(record.payload, &decoded.adam);
        break;
      case nn::kRngState:
        ok = DecodeRngState(record.payload, &decoded.shuffle_rng);
        break;
      case nn::kBatcherState:
        ok = DecodeBatcherState(record.payload, &decoded.batcher);
        break;
      case nn::kBestSnapshot:
        ok = DecodeSnapshot(record.payload, &decoded.best_snapshot);
        break;
    }
    if (!ok) return fail("malformed record in " + path);
  }
  const std::uint32_t required = records & ~RecordBit(nn::kBestSnapshot);
  if ((seen & required) != required) {
    return fail("incomplete checkpoint in " + path);
  }

  // Phase 2 — validate every payload against the live objects, still
  // without mutating anything. The fingerprint goes first: it turns a
  // restore into the wrong setup or variant into a clear error.
  if (decoded.*fingerprint_field != expected_fingerprint) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s fingerprint mismatch: checkpoint %016llx vs expected "
                  "%016llx (%s)",
                  fingerprint_field == &TrainCheckpointState::variant_fingerprint
                      ? "model-variant"
                      : "training-setup",
                  static_cast<unsigned long long>(decoded.*fingerprint_field),
                  static_cast<unsigned long long>(expected_fingerprint),
                  path.c_str());
    return fail(buf);
  }
  if (!nn::ValidateParametersPayload(out->params_payload, module)) {
    return fail("parameter payload does not match module in " + path);
  }
  if (!adam.CanImport(decoded.adam)) {
    return fail("adam state does not match optimizer in " + path);
  }
  if (!decoded.best_snapshot.empty() &&
      !SnapshotMatchesModule(decoded.best_snapshot, module)) {
    return fail("best snapshot does not match module in " + path);
  }
  return true;
}

}  // namespace

std::uint64_t FingerprintTrainSetup(const nn::Module& module,
                                    const TrainConfig& config,
                                    std::int64_t dataset_size) {
  nn::PayloadWriter w;
  w.I32(config.epochs);
  w.I32(config.batch_size);
  w.F32(config.learning_rate);
  w.F32(config.weight_decay);
  w.F32(config.grad_clip);
  w.U64(config.seed);
  w.F64(config.validation_fraction);
  w.I32(config.early_stopping_patience);
  w.F32(config.lr_decay);
  w.I64(dataset_size);
  w.U32(static_cast<std::uint32_t>(module.parameters().size()));
  for (const Tensor& p : module.parameters()) {
    w.Str(p.name());
    w.I32(p.rows());
    w.I32(p.cols());
  }
  return Fnv1a64(w.data());
}

std::uint64_t FingerprintModelVariant(const nn::Module& module,
                                      const std::string& variant) {
  nn::PayloadWriter w;
  w.Str(variant);
  w.U32(static_cast<std::uint32_t>(module.parameters().size()));
  for (const Tensor& p : module.parameters()) {
    w.Str(p.name());
    w.I32(p.rows());
    w.I32(p.cols());
  }
  return Fnv1a64(w.data());
}

Checkpointer::Checkpointer(std::string dir, core::FileSystem* fs)
    : dir_(std::move(dir)),
      path_(dir_ + "/train_state.ckpt"),
      fs_(fs != nullptr ? fs : core::FileSystem::Default()) {
  fs_->CreateDirectories(dir_);
}

bool Checkpointer::Save(const nn::Module& module,
                        const TrainCheckpointState& state) {
  static obs::Counter obs_saves =
      obs::Registry::Global().counter("dcmt_checkpoint_saves_total");
  static obs::Counter obs_save_failures =
      obs::Registry::Global().counter("dcmt_checkpoint_save_failures_total");
  static obs::Counter obs_bytes_written =
      obs::Registry::Global().counter("dcmt_checkpoint_bytes_written_total");
  static obs::Sum obs_save_seconds =
      obs::Registry::Global().sum("dcmt_checkpoint_save_seconds_total");
  obs::TraceSpan span("checkpoint/save");
  const std::int64_t t0 = obs::NowNanos();

  std::string image(nn::kCheckpointMagicV2, sizeof(nn::kCheckpointMagicV2));
  const std::uint32_t version = nn::kCheckpointVersion;
  image.append(reinterpret_cast<const char*>(&version), sizeof(version));
  nn::AppendRecord(&image, nn::kTrainerMeta, EncodeTrainerMeta(state));
  nn::AppendRecord(&image, nn::kParameters, nn::EncodeParametersPayload(module));
  nn::AppendRecord(&image, nn::kAdamState, EncodeAdamState(state.adam));
  nn::AppendRecord(&image, nn::kRngState, EncodeRngState(state.shuffle_rng));
  nn::AppendRecord(&image, nn::kBatcherState, EncodeBatcherState(state.batcher));
  if (!state.best_snapshot.empty()) {
    nn::AppendRecord(&image, nn::kBestSnapshot, EncodeSnapshot(state.best_snapshot));
  }
  nn::AppendRecord(&image, nn::kEnd, {});
  span.SetArg("bytes", static_cast<std::int64_t>(image.size()));
  const bool ok = core::AtomicWriteFile(fs_, path_, image);
  if (ok) {
    obs_saves.Inc();
    obs_bytes_written.Inc(static_cast<std::int64_t>(image.size()));
  } else {
    obs_save_failures.Inc();
  }
  obs_save_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
  return ok;
}

bool Checkpointer::Restore(std::uint64_t expected_fingerprint,
                           nn::Module* module, optim::Adam* adam,
                           data::StreamingBatcher* batcher, Rng* rng,
                           TrainCheckpointState* state) const {
  // Successful restores are counted below; failures are derivable as
  // attempts − restores (there are too many distinct early-outs here for
  // one failure counter to say anything useful).
  static obs::Counter obs_attempts =
      obs::Registry::Global().counter("dcmt_checkpoint_restore_attempts_total");
  static obs::Counter obs_restores =
      obs::Registry::Global().counter("dcmt_checkpoint_restores_total");
  static obs::Counter obs_bytes_read =
      obs::Registry::Global().counter("dcmt_checkpoint_bytes_read_total");
  static obs::Sum obs_restore_seconds =
      obs::Registry::Global().sum("dcmt_checkpoint_restore_seconds_total");
  obs_attempts.Inc();
  obs::TraceSpan span("checkpoint/restore");
  const std::int64_t t0 = obs::NowNanos();

  LoadedCheckpoint loaded;
  if (!ReadValidated(fs_, path_,
                     RecordBit(nn::kTrainerMeta) | RecordBit(nn::kParameters) |
                         RecordBit(nn::kAdamState) | RecordBit(nn::kRngState) |
                         RecordBit(nn::kBatcherState) |
                         RecordBit(nn::kBestSnapshot),
                     &TrainCheckpointState::fingerprint, expected_fingerprint,
                     *module, *adam, &loaded, nullptr)) {
    return false;
  }

  // Phase 3 — apply. RestoreState re-checks the batcher invariants and is
  // the first mutation; everything after it has been pre-validated above
  // and cannot fail.
  if (!batcher->RestoreState(loaded.state.batcher)) return false;
  if (!adam->ImportState(loaded.state.adam)) return false;
  if (!nn::ApplyParametersPayload(loaded.params_payload, module)) return false;
  rng->set_state(loaded.state.shuffle_rng);
  *state = std::move(loaded.state);
  obs_restores.Inc();
  obs_bytes_read.Inc(static_cast<std::int64_t>(loaded.image.size()));
  obs_restore_seconds.Add(static_cast<double>(obs::NowNanos() - t0) * 1e-9);
  span.SetArg("bytes", static_cast<std::int64_t>(loaded.image.size()));
  return true;
}

bool Checkpointer::WarmStart(std::uint64_t expected_variant_fingerprint,
                             nn::Module* module, optim::Adam* adam,
                             std::string* error) const {
  static obs::Counter obs_warm_starts =
      obs::Registry::Global().counter("dcmt_checkpoint_warm_starts_total");
  obs::TraceSpan span("checkpoint/warm_start");

  // The run-position records (RNG, batcher, best snapshot) are CRC-checked
  // but neither decoded nor applied: a warm start begins a new run.
  LoadedCheckpoint loaded;
  if (!ReadValidated(fs_, path_,
                     RecordBit(nn::kTrainerMeta) | RecordBit(nn::kParameters) |
                         RecordBit(nn::kAdamState),
                     &TrainCheckpointState::variant_fingerprint,
                     expected_variant_fingerprint, *module, *adam, &loaded,
                     error)) {
    return false;
  }

  // Phase 3 — apply parameters + moments only; pre-validated, cannot fail.
  if (!adam->ImportState(loaded.state.adam) ||
      !nn::ApplyParametersPayload(loaded.params_payload, module)) {
    if (error != nullptr) *error = "warm start could not apply " + path_;
    return false;
  }
  obs_warm_starts.Inc();
  span.SetArg("bytes", static_cast<std::int64_t>(loaded.image.size()));
  return true;
}

bool Checkpointer::Exists() const { return fs_->Exists(path_); }

}  // namespace eval
}  // namespace dcmt
