#include "data/stream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace dcmt {
namespace data {
namespace {

std::string JoinPath(const std::string& dir, const std::string& file) {
  if (dir.empty()) return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

// --- StreamingDataset ------------------------------------------------------

bool StreamingDataset::Open(const std::string& dir,
                            const StreamingConfig& config,
                            StreamingDataset* out, std::string* error) {
  *out = StreamingDataset();
  out->dir_ = dir;
  out->fs_ = config.fs != nullptr ? config.fs : core::FileSystem::Default();
  if (!ReadManifest(out->fs_, dir, &out->manifest_, error)) return false;
  // A missing middle shard must fail here, at open time, not after half an
  // epoch has already been consumed.
  for (const ShardInfo& info : out->manifest_.shards) {
    const std::string path = JoinPath(dir, info.file);
    if (info.file.empty() || !out->fs_->Exists(path)) {
      *error = path + ": shard file listed in manifest is missing";
      return false;
    }
  }
  out->offsets_ = out->manifest_.ShardRowOffsets();
  return true;
}

StreamingDataset StreamingDataset::Resident(const Dataset* rows,
                                            std::vector<std::int64_t> shard_plan) {
  StreamingDataset out;
  out.dir_ = rows->name();
  out.rows_ = rows;
  out.reshuffle_in_place_ = shard_plan.empty();
  if (shard_plan.empty()) shard_plan.push_back(rows->size());
  for (const std::int64_t count : shard_plan) {
    if (count < 0) {
      std::fprintf(stderr, "StreamingDataset: negative shard row count\n");
      std::abort();
    }
    out.offsets_.push_back(out.offsets_.back() + count);
  }
  if (out.size() != rows->size()) {
    std::fprintf(stderr, "StreamingDataset: shard plan does not cover the rows\n");
    std::abort();
  }
  return out;
}

std::vector<std::int64_t> StreamingDataset::ShardRowCounts() const {
  std::vector<std::int64_t> counts(offsets_.size() - 1);
  for (std::size_t s = 0; s < counts.size(); ++s) {
    counts[s] = offsets_[s + 1] - offsets_[s];
  }
  return counts;
}

bool StreamingDataset::ReadShard(int shard_index, std::vector<Example>* rows,
                                 std::string* error) const {
  if (shard_index < 0 || shard_index >= num_shards()) {
    *error = dir_ + ": shard index out of range";
    return false;
  }
  if (rows_ != nullptr) {
    *error = dir_ + ": a resident source has no shard files to decode";
    return false;
  }
  const std::string path =
      JoinPath(dir_, manifest_.shards[static_cast<std::size_t>(shard_index)].file);
  return ReadShardFile(fs_, path, manifest_, shard_index, rows, error);
}

bool StreamingDataset::Materialize(Dataset* out, std::string* error) const {
  std::vector<Example> examples;
  examples.reserve(static_cast<std::size_t>(size()));
  std::vector<Example> rows;
  for (int s = 0; s < num_shards(); ++s) {
    if (!ReadShard(s, &rows, error)) return false;
    for (Example& e : rows) examples.push_back(std::move(e));
  }
  *out = Dataset(dir_, manifest_.schema, std::move(examples));
  return true;
}

// --- StreamingBatcher ------------------------------------------------------

std::vector<std::int64_t> ShardedEpochOrder(
    const std::vector<std::int64_t>& shard_rows, Rng* rng) {
  std::vector<std::int64_t> offsets(shard_rows.size() + 1, 0);
  for (std::size_t s = 0; s < shard_rows.size(); ++s) {
    if (shard_rows[s] < 0) {
      std::fprintf(stderr, "ShardedEpochOrder: negative shard row count\n");
      std::abort();
    }
    offsets[s + 1] = offsets[s] + shard_rows[s];
  }
  std::vector<std::int64_t> shard_perm(shard_rows.size());
  std::iota(shard_perm.begin(), shard_perm.end(), 0);
  if (rng != nullptr) rng->Shuffle(&shard_perm);

  std::vector<std::int64_t> order;
  order.reserve(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> local;
  for (const std::int64_t s : shard_perm) {
    local.resize(static_cast<std::size_t>(shard_rows[static_cast<std::size_t>(s)]));
    std::iota(local.begin(), local.end(), 0);
    if (rng != nullptr) rng->Shuffle(&local);
    const std::int64_t base = offsets[static_cast<std::size_t>(s)];
    for (const std::int64_t r : local) order.push_back(base + r);
  }
  return order;
}

StreamingBatcher::StreamingBatcher(const StreamingDataset* dataset,
                                   int batch_size, Rng* rng, int prefetch_depth)
    : dataset_(dataset),
      batch_size_(batch_size),
      rng_(rng),
      prefetch_depth_(prefetch_depth) {
  if (batch_size_ <= 0) {
    std::fprintf(stderr, "StreamingBatcher: batch_size must be positive\n");
    std::abort();
  }
  // Identity order, then the first epoch's one and only shuffle.
  // fresh_epoch_ is true, so the first Next() cannot reshuffle again:
  // SaveState() taken right after construction captures exactly the order
  // the first epoch trains on.
  order_.resize(static_cast<std::size_t>(dataset_->size()));
  std::iota(order_.begin(), order_.end(), 0);
  ShuffleIfNeeded();
  if (rng_ == nullptr && !DeriveVisits()) {
    std::fprintf(stderr, "StreamingBatcher: identity order not shard-sequential\n");
    std::abort();
  }
}

StreamingBatcher::~StreamingBatcher() { StopPipeline(); }

void StreamingBatcher::ShuffleIfNeeded() {
  if (rng_ == nullptr) return;
  if (dataset_->reshuffles_in_place()) {
    // Unplanned resident rows keep the order in-RAM training has always
    // used: each epoch is a Fisher-Yates pass over the previous one.
    rng_->Shuffle(&order_);
  } else {
    order_ = ShardedEpochOrder(dataset_->ShardRowCounts(), rng_);
  }
  if (!DeriveVisits()) {
    // Both orders are shard-sequential by construction (the in-place one
    // has a single shard).
    std::fprintf(stderr, "StreamingBatcher: internal order derivation failed\n");
    std::abort();
  }
}

bool StreamingBatcher::DeriveVisits() {
  visits_.clear();
  visit_starts_.clear();
  const std::vector<std::int64_t>& offsets = dataset_->ShardRowOffsets();
  const std::vector<std::int64_t> shard_rows = dataset_->ShardRowCounts();
  std::vector<char> seen(shard_rows.size(), 0);
  int run_shard = -1;
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    const std::int64_t global = order_[pos];
    const int s = static_cast<int>(
        std::upper_bound(offsets.begin(), offsets.end(), global) -
        offsets.begin() - 1);
    if (s != run_shard) {
      // A shard may occupy exactly one contiguous run of the epoch order;
      // a second run would force the stream to decode it twice per epoch.
      if (seen[static_cast<std::size_t>(s)]) return false;
      seen[static_cast<std::size_t>(s)] = 1;
      run_shard = s;
      visits_.push_back(s);
      visit_starts_.push_back(static_cast<std::int64_t>(pos));
    }
  }
  visit_starts_.push_back(static_cast<std::int64_t>(order_.size()));
  // Each run must cover its whole shard, so mid-epoch resumption can map any
  // cursor to exactly one (shard, offset) pair.
  for (std::size_t v = 0; v < visits_.size(); ++v) {
    const std::int64_t run_len = visit_starts_[v + 1] - visit_starts_[v];
    if (run_len != shard_rows[static_cast<std::size_t>(visits_[v])]) return false;
  }
  return true;
}

void StreamingBatcher::StopPipeline() {
  if (channel_ != nullptr) {
    channel_->Cancel();
    worker_.Join();
    channel_.reset();
  }
  next_pipeline_visit_ = 0;
  current_ = DecodedShard{};
  current_visit_ = 0;
}

void StreamingBatcher::Fail(const std::string& message) {
  failed_ = true;
  error_ = message;
  StopPipeline();
}

bool StreamingBatcher::EnsureVisit(std::size_t v) {
  if (current_.shard_index >= 0 && current_visit_ == v) return true;

  if (prefetch_depth_ <= 0) {
    // Synchronous mode: decode on the consumer thread; zero concurrency
    // (required when the file system is a FaultInjectingFileSystem, whose
    // open counter is not thread-safe).
    DecodedShard d;
    d.shard_index = visits_[v];
    d.ok = dataset_->ReadShard(d.shard_index, &d.rows, &d.error);
    if (!d.ok) {
      Fail(d.error);
      return false;
    }
    current_ = std::move(d);
    current_visit_ = v;
    ++shards_decoded_;
    return true;
  }

  if (channel_ == nullptr || next_pipeline_visit_ != v) {
    // (Re)start the pipeline at visit v. The worker reads only value
    // snapshots (its slice of the visit list) and the immutable dataset;
    // the channel is the sole shared object.
    StopPipeline();
    channel_ = std::make_unique<core::BoundedChannel<DecodedShard>>(
        static_cast<std::size_t>(prefetch_depth_));
    core::BoundedChannel<DecodedShard>* chan = channel_.get();
    const StreamingDataset* dataset = dataset_;
    std::vector<int> visits(visits_.begin() + static_cast<std::ptrdiff_t>(v),
                            visits_.end());
    worker_ = core::WorkerThread([chan, dataset, visits = std::move(visits)] {
      for (const int shard : visits) {
        DecodedShard d;
        d.shard_index = shard;
        d.ok = dataset->ReadShard(shard, &d.rows, &d.error);
        const bool decoded_ok = d.ok;
        if (!chan->Push(std::move(d))) return;  // consumer cancelled
        if (!decoded_ok) return;  // failure delivered; stop producing
      }
      chan->Close();
    });
    next_pipeline_visit_ = v;
  }

  DecodedShard d;
  if (!channel_->Pop(&d)) {
    Fail(dataset_->dir() + ": prefetch pipeline ended unexpectedly");
    return false;
  }
  ++next_pipeline_visit_;
  if (!d.ok) {
    Fail(d.error);
    return false;
  }
  if (d.shard_index != visits_[v]) {
    Fail(dataset_->dir() + ": prefetch delivered out-of-order shard");
    return false;
  }
  current_ = std::move(d);
  current_visit_ = v;
  ++shards_decoded_;
  return true;
}

const Example* StreamingBatcher::RowAt(std::int64_t pos) {
  const std::int64_t global = order_[static_cast<std::size_t>(pos)];
  const std::vector<Example>* resident = dataset_->resident_rows();
  if (resident != nullptr) return &(*resident)[static_cast<std::size_t>(global)];
  std::size_t v;
  if (current_.shard_index >= 0) {
    v = current_visit_;
  } else {
    // No shard decoded (epoch start or post-restore): locate the visit
    // containing this order position.
    v = static_cast<std::size_t>(
        std::upper_bound(visit_starts_.begin(), visit_starts_.end(), pos) -
        visit_starts_.begin() - 1);
  }
  while (pos >= visit_starts_[v + 1]) ++v;
  if (!EnsureVisit(v)) return nullptr;
  const std::int64_t base =
      dataset_->ShardRowOffsets()[static_cast<std::size_t>(visits_[v])];
  return &current_.rows[static_cast<std::size_t>(global - base)];
}

bool StreamingBatcher::Next(Batch* batch) {
  if (failed_) return false;
  if (cursor_ >= size()) {
    // Epoch finished: report end once, then lazily start the next epoch.
    // This is the single site that clears fresh_epoch_.
    cursor_ = 0;
    fresh_epoch_ = false;
    return false;
  }
  if (!fresh_epoch_ && cursor_ == 0) {
    // Lazy epoch start: drop the previous epoch's decode state, reshuffle.
    StopPipeline();
    ShuffleIfNeeded();
    fresh_epoch_ = true;
  }
  const int count = static_cast<int>(
      std::min<std::int64_t>(batch_size_, size() - cursor_));
  BatchBuilder builder(schema(), count);
  for (int i = 0; i < count; ++i) {
    const Example* row = RowAt(cursor_ + i);
    if (row == nullptr) return false;
    builder.Add(*row);
  }
  *batch = builder.Finish();
  cursor_ += count;
  return true;
}

void StreamingBatcher::Rewind() {
  cursor_ = 0;
  fresh_epoch_ = true;
  // Replay the same order from the top; the decoded shard (if any) belongs
  // to an arbitrary mid-epoch visit, so restart decoding from visit 0.
  StopPipeline();
}

std::int64_t StreamingBatcher::batches_per_epoch() const {
  return (size() + batch_size_ - 1) / batch_size_;
}

BatcherState StreamingBatcher::SaveState() const {
  BatcherState state;
  state.order = order_;
  state.cursor = cursor_;
  state.fresh_epoch = fresh_epoch_;
  return state;
}

bool StreamingBatcher::RestoreState(const BatcherState& state) {
  if (static_cast<std::int64_t>(state.order.size()) != size()) return false;
  if (state.cursor < 0 || state.cursor > size()) return false;
  // The order must be a permutation of [0, size()): a repeated index would
  // train some rows twice and others never in the resumed epoch.
  std::vector<char> seen(static_cast<std::size_t>(size()), 0);
  for (const std::int64_t idx : state.order) {
    if (idx < 0 || idx >= size() || seen[static_cast<std::size_t>(idx)]) {
      return false;
    }
    seen[static_cast<std::size_t>(idx)] = 1;
  }
  // All-or-nothing: derive the visit structure on the candidate order and
  // roll back wholesale if it is not shard-sequential.
  std::vector<std::int64_t> saved_order = std::move(order_);
  std::vector<int> saved_visits = std::move(visits_);
  std::vector<std::int64_t> saved_starts = std::move(visit_starts_);
  order_ = state.order;
  if (!DeriveVisits()) {
    order_ = std::move(saved_order);
    visits_ = std::move(saved_visits);
    visit_starts_ = std::move(saved_starts);
    return false;
  }
  cursor_ = state.cursor;
  fresh_epoch_ = state.fresh_epoch;
  failed_ = false;
  error_.clear();
  StopPipeline();
  return true;
}

}  // namespace data
}  // namespace dcmt
