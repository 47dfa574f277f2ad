// Histogram-based CART decision tree fit on gradient/hessian pairs.
// A single building block serves all tree ensembles in this library:
//   * plain regression tree: grad = y, hess = 1  (leaf = mean y)
//   * GDBT regression stage: grad = residual, hess = 1
//   * GDBT multiclass stage: grad/hess from the softmax loss (Newton leaf)
// Split gain is the standard XGBoost-style score
//   gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/types.h"

namespace lumos::ml {

class BinnedMatrix;

/// Quantile-based feature binning shared by all trees of an ensemble.
/// NaN feature values are first-class citizens: fit() learns quantiles
/// from the finite values only, and bin() maps NaN to a dedicated
/// missing-value code (missing_code()) that trees route along a learned
/// default branch direction.
class BinMapper {
 public:
  BinMapper() = default;

  /// Learns up to `n_bins` bins per feature from quantiles of the
  /// non-NaN values of `x`.
  void fit(const FeatureMatrix& x, int n_bins);

  /// Bin code of a raw value for feature `f`; NaN maps to missing_code().
  std::uint16_t bin(std::size_t f, double v) const noexcept;

  /// The reserved code for missing (NaN) values: one past the last real
  /// bin, so histogram buffers need max_bins() + 1 slots.
  std::uint16_t missing_code() const noexcept {
    return static_cast<std::uint16_t>(max_bins_);
  }

  /// Upper boundary value of bin `b` for feature `f`: the split threshold
  /// "x <= threshold goes left" for a split after bin b.
  double upper_edge(std::size_t f, std::uint16_t b) const noexcept;

  std::size_t n_features() const noexcept { return edges_.size(); }
  int max_bins() const noexcept { return max_bins_; }

  /// Per-feature cut points, exposed for serialization (serve/model_io).
  const std::vector<std::vector<double>>& edges() const noexcept {
    return edges_;
  }

  /// Reinstates a fitted mapper from its serialized parts (serve/model_io).
  void restore(std::vector<std::vector<double>> edges, int max_bins) {
    edges_ = std::move(edges);
    max_bins_ = max_bins;
  }

 private:
  std::vector<std::vector<double>> edges_;  ///< per-feature cut points
  int max_bins_ = 0;
};

struct TreeConfig {
  int max_depth = 6;
  std::size_t min_samples_leaf = 5;
  double lambda = 1.0;          ///< L2 regularization on leaf values
  double min_gain = 1e-12;      ///< minimum gain to accept a split
  std::size_t feature_subsample = 0;  ///< features tried per node; 0 = all
};

/// One fitted tree. Nodes are stored in a flat array; leaves have
/// feature == -1.
class GradientTree {
 public:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int bin = -1;  ///< split bin code; codes <= bin go left (mirrors threshold)
    int left = -1;
    int right = -1;
    double value = 0.0;  ///< leaf output
    /// Which branch a missing (NaN) value takes. Learned during fit():
    /// when the node's training rows contain missing values, both
    /// directions are scored and the better one wins (ties keep right,
    /// matching the historical NaN-comparison fallthrough); when they
    /// don't, the direction stays right.
    bool default_left = false;
  };

  /// Fits on a pre-binned columnar code store (ml::BinnedMatrix built
  /// through `mapper`). `grad` and `hess` have length n; `indices` selects
  /// the rows to train on (bootstrap sample for forests, all rows for
  /// boosting). `rng` is used for per-node feature subsampling when
  /// cfg.feature_subsample > 0.
  ///
  /// The histogram build is a tight loop over one contiguous (often uint8)
  /// code column per candidate feature. Large nodes spread that loop
  /// across the global thread pool; per-feature work is independent and
  /// the best split is reduced in fixed feature order, so the fitted tree
  /// is bit-identical for any LUMOS_THREADS setting.
  void fit(const BinnedMatrix& binned, const BinMapper& mapper,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> indices, const TreeConfig& cfg,
           Rng* rng = nullptr);

  /// Predicts from a raw feature row. A NaN value takes the split's
  /// learned default branch (Node::default_left) instead of the
  /// comparison fallthrough.
  [[nodiscard]] double predict(std::span<const double> row) const noexcept;

  /// Predicts from row `row` of a columnar code store. Reaches exactly the
  /// same leaf as predict() on the raw row: a raw value satisfies
  /// `v <= upper_edge(f, bin)` iff its code satisfies `code <= bin`, and
  /// the missing code routes along the same default branch as a raw NaN.
  /// The boosting loops use it so the margin update never re-bins a row.
  [[nodiscard]] double predict_binned(const BinnedMatrix& binned,
                                      std::size_t row) const noexcept;

  /// Adds each split's gain to `gain_by_feature` (size = n_features).
  void accumulate_gain(std::span<double> gain_by_feature) const noexcept;

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  bool empty() const noexcept { return nodes_.empty(); }

  /// Per-node split gains, aligned with nodes() (0 at leaves). Exposed for
  /// serialization (serve/model_io) so a reloaded tree keeps reporting the
  /// same feature importances.
  const std::vector<double>& gains() const noexcept { return gains_; }

  /// The missing-value bin code this tree was fit against (needed by
  /// predict_binned and by the flattened serving layout).
  std::uint16_t missing_code() const noexcept { return missing_code_; }

  /// Reinstates a fitted tree from its serialized parts (serve/model_io).
  /// `gains` must be the same length as `nodes`.
  void restore(std::vector<Node> nodes, std::vector<double> gains,
               std::uint16_t missing_code) {
    nodes_ = std::move(nodes);
    gains_ = std::move(gains);
    missing_code_ = missing_code;
  }

 private:
  struct Split {
    int feature = -1;
    int bin = -1;
    double gain = 0.0;
    bool default_left = false;  ///< where the missing bin goes
  };

  std::vector<Node> nodes_;
  std::vector<double> gains_;  ///< gain of the split at each internal node
  /// Code that marks a missing value in pre-binned rows (the fitting
  /// mapper's missing_code()); kept so predict_binned can route it.
  std::uint16_t missing_code_ = std::numeric_limits<std::uint16_t>::max();
};

}  // namespace lumos::ml
