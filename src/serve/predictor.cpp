#include "serve/predictor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/parallel.h"

namespace lumos::serve {

Expected<Predictor> Predictor::compile(const core::Lumos5G& model) {
  if (!model.trained()) {
    return Error{ErrorCode::kNotTrained,
                 "Predictor::compile: facade has no trained tier"};
  }
  Predictor p;
  p.features_ = model.config().features;
  p.fallback_ = model.config().fallback;
  p.specs_ = model.tier_specs();
  const std::size_t n_tiers = p.specs_.size();
  p.tiers_.resize(n_tiers);
  p.tier_names_.reserve(n_tiers);
  p.tier_widths_.reserve(n_tiers);
  for (std::size_t i = 0; i < n_tiers; ++i) {
    p.tier_names_.push_back(p.specs_[i].name());
    p.tier_widths_.push_back(data::feature_width(p.specs_[i], p.features_));
    p.max_width_ = std::max(p.max_width_, p.tier_widths_.back());
    p.tiers_[i].compiled = model.tier_trained(i);
  }
  // Every tier's classifier and regressor flattens as an independent task
  // into its own slot, so the snapshot is identical at any pool size.
  // Tasks [0, n) are the classifiers — a K-class classifier holds K times
  // the regressor's trees — so the heaviest are handed out first.
  parallel_for(0, 2 * n_tiers, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const std::size_t i = k % n_tiers;
      if (!p.tiers_[i].compiled) continue;
      if (k < n_tiers) {
        p.tiers_[i].classifier =
            FlatClassifier::flatten(model.tier_classifier(i));
      } else {
        p.tiers_[i].regressor = FlatForest::flatten(model.tier_regressor(i));
      }
    }
  });
  return p;
}

Expected<core::Prediction> Predictor::predict(
    std::span<const data::SampleRecord> recent, std::size_t min_tier) const {
  // Mirrors Lumos5G::predict tier by tier so a compiled predictor answers
  // bit-identically to the facade it came from. min_tier skips the front
  // of the chain (overload degradation); the walk below it is unchanged,
  // so min_tier = 0 stays bit-identical to the facade.
  // Per-thread row arena: sized once to the widest tier, then reused by
  // every call on this thread. The resize is amortized cold (a no-op after
  // the first call at this width), and the contents are fully overwritten
  // by feature_row_into before use, so reuse cannot leak state between
  // calls or threads.
  thread_local std::vector<double> row_arena;
  if (row_arena.size() < max_width_) {
    row_arena.resize(max_width_);  // lumos-lint: allow(hot-path-alloc) amortized thread-local arena growth
  }
  for (std::size_t i = min_tier; i < tiers_.size(); ++i) {
    const FlatTier& tier = tiers_[i];
    if (!tier.compiled) continue;
    const std::span<double> row{row_arena.data(), tier_widths_[i]};
    if (!data::feature_row_into(recent, specs_[i], features_, row)) continue;
    core::Prediction p;
    p.throughput_mbps = tier.regressor.predict(row);
    p.throughput_class = tier.classifier.predict(row);
    p.tier = static_cast<int>(i);
    p.feature_group = tier_names_[i];  // SSO copy: tier names are short
    return p;
  }
  return core::harmonic_tail(recent, fallback_, features_, specs_.size());
}

void Predictor::predict_spans_columnar(
    std::span<const std::span<const data::SampleRecord>> windows,
    std::span<Expected<core::Prediction>> out, PredictScratch& scratch,
    std::size_t min_tier) const {
  LUMOS_EXPECTS(out.size() >= windows.size(),
                "Predictor::predict_spans_columnar: one output slot per window");
  LUMOS_EXPECTS(scratch.max_windows() >= windows.size(),
                "Predictor::predict_spans_columnar: scratch too small for batch");
  LUMOS_EXPECTS(scratch.max_width() >= max_width_,
                "Predictor::predict_spans_columnar: scratch narrower than widest tier");

  // Start with every window pending, in submission order. The tier loop
  // answers windows tier-by-tier; pending_ is compacted in place each pass
  // (write index trails read index, so compaction is safe and preserves
  // order — which keeps feature extraction deterministic and the walk
  // per-window identical to predict()).
  std::size_t n_pending = windows.size();
  for (std::size_t i = 0; i < n_pending; ++i) {
    scratch.pending_[i] = static_cast<std::uint32_t>(i);
  }

  for (std::size_t t = min_tier; t < tiers_.size() && n_pending > 0; ++t) {
    const FlatTier& tier = tiers_[t];
    if (!tier.compiled) continue;
    const std::span<double> row{scratch.row_.data(), tier_widths_[t]};
    // Pack: extract this tier's feature row for every still-pending
    // window; successes scatter into the column arena, failures stay
    // pending for the next tier. A window either packs here or compacts
    // forward — exactly the per-row "first tier whose features the window
    // can produce" rule of predict().
    std::size_t n_packed = 0;
    std::size_t n_next = 0;
    for (std::size_t k = 0; k < n_pending; ++k) {
      const std::uint32_t idx = scratch.pending_[k];
      if (data::feature_row_into(windows[idx], specs_[t], features_, row)) {
        scratch.cols_.put_row(n_packed, row);
        scratch.packed_[n_packed++] = idx;
      } else {
        scratch.pending_[n_next++] = idx;
      }
    }
    n_pending = n_next;
    if (n_packed == 0) continue;

    // Evaluate the packed rows in one columnar pass per model: every row
    // advances together through each tree level over contiguous feature
    // columns. Per row this is bit-identical to tier.regressor.predict /
    // tier.classifier.predict on the same extracted features.
    const data::ColumnBlock block = scratch.cols_.block(0, n_packed);
    tier.regressor.predict_columnar(
        block, std::span<double>{scratch.reg_.data(), n_packed});
    tier.classifier.predict_columnar(
        block, std::span<int>{scratch.cls_.data(), n_packed});
    for (std::size_t j = 0; j < n_packed; ++j) {
      core::Prediction p;
      p.throughput_mbps = scratch.reg_[j];
      p.throughput_class = scratch.cls_[j];
      p.tier = static_cast<int>(t);
      p.feature_group = tier_names_[t];  // SSO copy: tier names are short
      out[scratch.packed_[j]] = std::move(p);
    }
  }

  // Whatever no tier could serve falls to the same tail as predict().
  for (std::size_t k = 0; k < n_pending; ++k) {
    const std::uint32_t idx = scratch.pending_[k];
    out[idx] = core::harmonic_tail(windows[idx], fallback_, features_,
                                   specs_.size());
  }
}

std::vector<Expected<core::Prediction>> Predictor::predict_batch(
    std::span<const Session> sessions, std::size_t min_tier) const {
  std::vector<std::span<const data::SampleRecord>> spans;
  spans.reserve(sessions.size());
  for (const Session& s : sessions) spans.push_back(s.window());
  std::vector<Expected<core::Prediction>> out(
      sessions.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  PredictScratch scratch;
  scratch.reserve(sessions.size(), max_width_);
  predict_spans_columnar(spans, out, scratch, min_tier);
  return out;
}

std::size_t Predictor::n_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tiers_) {
    n += t.regressor.n_nodes() + t.classifier.n_nodes();
  }
  return n;
}

}  // namespace lumos::serve
