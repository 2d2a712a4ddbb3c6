#include "data/batch.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dcmt {
namespace data {

BatchBuilder::BatchBuilder(const FeatureSchema& schema, int capacity)
    : schema_(schema) {
  if (capacity <= 0) {
    std::fprintf(stderr, "BatchBuilder: non-positive capacity\n");
    std::abort();
  }
  const std::size_t cap = static_cast<std::size_t>(capacity);
  batch_.deep_ids.assign(schema_.deep_fields.size(), {});
  batch_.wide_ids.assign(schema_.wide_fields.size(), {});
  for (auto& v : batch_.deep_ids) v.reserve(cap);
  for (auto& v : batch_.wide_ids) v.reserve(cap);
  click_.reserve(cap);
  conversion_.reserve(cap);
  ctcvr_.reserve(cap);
  batch_.click_raw.reserve(cap);
  batch_.conversion_raw.reserve(cap);
  batch_.true_ctr.reserve(cap);
  batch_.true_cvr.reserve(cap);
}

void BatchBuilder::Add(const Example& e) {
  const std::size_t n_deep = schema_.deep_fields.size();
  const std::size_t n_wide = schema_.wide_fields.size();
  for (std::size_t f = 0; f < n_deep; ++f) batch_.deep_ids[f].push_back(e.deep_ids[f]);
  for (std::size_t f = 0; f < n_wide; ++f) batch_.wide_ids[f].push_back(e.wide_ids[f]);
  click_.push_back(static_cast<float>(e.click));
  conversion_.push_back(static_cast<float>(e.conversion));
  ctcvr_.push_back(static_cast<float>(e.click && e.conversion ? 1 : 0));
  batch_.click_raw.push_back(e.click);
  batch_.conversion_raw.push_back(e.conversion);
  batch_.true_ctr.push_back(e.true_ctr);
  batch_.true_cvr.push_back(e.true_cvr);
  ++size_;
}

Batch BatchBuilder::Finish() {
  if (size_ <= 0) {
    std::fprintf(stderr, "BatchBuilder: empty batch\n");
    std::abort();
  }
  batch_.size = size_;
  batch_.click = Tensor::ColumnVector(click_);
  batch_.conversion = Tensor::ColumnVector(conversion_);
  batch_.ctcvr = Tensor::ColumnVector(ctcvr_);
  return std::move(batch_);
}

Batch MakeContiguousBatch(const std::vector<Example>& rows, std::int64_t first,
                          int count, const FeatureSchema& schema) {
  if (count <= 0 || first < 0 ||
      first + count > static_cast<std::int64_t>(rows.size())) {
    std::fprintf(stderr, "MakeContiguousBatch: row range out of bounds\n");
    std::abort();
  }
  BatchBuilder builder(schema, count);
  for (int b = 0; b < count; ++b) {
    builder.Add(rows[static_cast<std::size_t>(first + b)]);
  }
  return builder.Finish();
}

}  // namespace data
}  // namespace dcmt
