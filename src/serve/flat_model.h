// Flattened serving-time tree layout. Training-time GradientTree nodes are
// 48+ bytes and scattered across one vector per tree; for serving, every
// tree of an ensemble is re-packed into ONE contiguous array of 16-byte
// nodes laid out so that the two children of a split are always adjacent
// (right child = left child + 1). Traversal is a tight iterative loop: one
// compare, one add, one indexed load per level, with the whole ensemble
// walking a single cache-resident buffer instead of chasing per-tree heap
// allocations.
//
// Flattening is exact, not approximate: thresholds and leaf values keep
// their IEEE-754 bit patterns and the per-tree accumulation order matches
// the training-time predict() loops, so a FlatForest/FlatClassifier is
// bit-identical to the GBDT it was built from (enforced by
// tests/test_serve.cpp). The serving runtime compiles GBDT tiers only, so
// GBDT is the only model family that flattens.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/column_store.h"
#include "ml/gbdt.h"
#include "ml/tree.h"

namespace lumos::serve {

/// Rows evaluated together by the columnar batch kernels: a block's
/// cursors and accumulators live in fixed stack arrays, and trees are
/// walked level-synchronously across the whole block (the traversals are
/// independent, so the per-level gathers overlap instead of serializing
/// on one row's dependency chain). It is also the kernels' cursor budget:
/// a narrower block spends the spare cursors on further trees per pass.
inline constexpr std::size_t kColumnarRowBlock = 64;

/// One node, 16 bytes. Internal nodes: `value` is the split threshold,
/// `feature` >= 0, `left` encodes the left-child index in its low 31 bits
/// and the split's default-missing-direction in its top bit; the right
/// child is always at left-child index + 1. Leaves: `feature` == -1 and
/// `value` is the leaf output.
struct FlatNode {
  double value = 0.0;
  std::int32_t feature = -1;
  std::uint32_t left = 0;

  static constexpr std::uint32_t kDefaultLeftBit = 0x80000000U;
  static constexpr std::uint32_t kChildMask = 0x7FFFFFFFU;
};

static_assert(sizeof(FlatNode) == 16, "FlatNode must stay 16 bytes");

/// A contiguous, iteratively-traversed GBDT margin:
/// base + scale * tree_0 + scale * tree_1 + ...
class FlatForest {
 public:
  FlatForest() = default;

  /// The full prediction path of a fitted regressor.
  static FlatForest flatten(const ml::GbdtRegressor& model);

  /// The single-row reference walk, bit-identical to the source
  /// ensemble's predict() on the same row.
  [[nodiscard]] double predict(std::span<const double> row) const noexcept;

  /// Columnar batch predict: out[r] receives row r's prediction,
  /// bit-identical to predict() on the equivalent contiguous row (same
  /// per-tree accumulation order, same NaN default routing). Rows are
  /// evaluated in blocks of kColumnarRowBlock — per block, trees are
  /// walked one level at a time across all rows (several trees per pass
  /// when the block is narrow), reading feature values from the block's
  /// contiguous columns. Allocation-free (stack cursors only); blocks are
  /// chunked over the global thread pool and each out slot is written
  /// once, so the result is identical at any LUMOS_THREADS. Requires
  /// out.size() >= block.n_rows. A root in the lint hot-path reachability
  /// proof.
  void predict_columnar(const data::ColumnBlock& block,
                        std::span<double> out) const;

  std::size_t n_trees() const noexcept { return roots_.size(); }
  std::size_t n_nodes() const noexcept { return nodes_.size(); }

 private:
  friend class FlatClassifier;

  /// Flattens every `stride`-th tree of `trees` starting at `first` (the
  /// interleaved [stage * n_classes + c] classifier layout selects one
  /// class with first = c, stride = n_classes; the regressor uses
  /// first = 0, stride = 1). Tree order — and therefore floating-point
  /// accumulation order — is preserved.
  static FlatForest flatten(std::span<const ml::GradientTree> trees,
                            std::size_t first, std::size_t stride,
                            double base, double scale);

  /// Evaluates rows [row0, row0 + m) of `block` into acc[0..m);
  /// m <= kColumnarRowBlock. The per-row result is bit-identical to
  /// predict() on that row. Dispatches between the scalar walk and the
  /// SIMD-width walk (common/simd.h) — both produce the same bits, so the
  /// choice is pure throughput (simd::enabled(), plus 32-bit gather-index
  /// range guards).
  void eval_block(const data::ColumnBlock& block, std::size_t row0,
                  std::size_t m, double* acc) const noexcept;

  /// The reference level-synchronous scalar walk (always compiled; the
  /// LUMOS_SIMD=off fallback and the short-tail path). Its
  /// kColumnarRowBlock row cursors walk kColumnarRowBlock / m trees per
  /// pass, and each pass's leaves are folded in tree order.
  void eval_block_scalar(const data::ColumnBlock& block, std::size_t row0,
                         std::size_t m, double* acc) const noexcept;

  /// Branch-free SIMD-width walk: per level one feature gather, one
  /// column-value masked gather, one ordered compare + NaN default-route
  /// blend per lane group. It has kColumnarRowBlock / width lane-group
  /// cursors, so it walks (kColumnarRowBlock / width) / n_groups trees
  /// per pass, folded in tree order; the m % width tail rows go through
  /// eval_block_scalar. Defined only when a vector ISA is compiled in.
  void eval_block_simd(const data::ColumnBlock& block, std::size_t row0,
                       std::size_t m, double* acc) const noexcept;

  std::vector<FlatNode> nodes_;
  std::vector<std::uint32_t> roots_;  ///< root node index per tree
  double base_ = 0.0;
  double scale_ = 1.0;
};

/// Argmax over per-class FlatForests; mirrors GbdtClassifier prediction
/// (first class wins ties, matching the training-time argmax scan).
class FlatClassifier {
 public:
  FlatClassifier() = default;

  static FlatClassifier flatten(const ml::GbdtClassifier& model);

  /// The single-row reference walk, bit-identical to the source
  /// classifier's predict().
  [[nodiscard]] int predict(std::span<const double> row) const noexcept;

  /// Columnar batch predict: out[r] is row r's class, bit-identical to
  /// predict() (per-class scores via the same block kernel, first-max-wins
  /// argmax). Allocation-free; requires out.size() >= block.n_rows. A
  /// root in the lint hot-path reachability proof.
  void predict_columnar(const data::ColumnBlock& block,
                        std::span<int> out) const;

  int n_classes() const noexcept { return static_cast<int>(per_class_.size()); }
  std::size_t n_nodes() const noexcept;

 private:
  std::vector<FlatForest> per_class_;
};

}  // namespace lumos::serve
