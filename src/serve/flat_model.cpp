#include "serve/flat_model.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/parallel.h"
#include "common/simd.h"

#if defined(LUMOS_SIMD_AVX2) || defined(LUMOS_SIMD_SSE2) || \
    defined(LUMOS_SIMD_NEON)
#define LUMOS_HAS_VECTOR_WALK 1
#endif

namespace lumos::serve {
namespace {

/// Appends one tree to `out` in adjacent-children order and returns its
/// root index. Works for any source node ordering (freshly fit or
/// deserialized): an explicit worklist rewrites parent→child links as the
/// pair slots are allocated.
std::uint32_t flatten_tree(const ml::GradientTree& tree,
                           std::vector<FlatNode>& out) {
  const auto& src = tree.nodes();
  const auto root = static_cast<std::uint32_t>(out.size());
  if (src.empty()) {
    // An unfit tree predicts 0.0; emit the equivalent single leaf.
    out.push_back(FlatNode{0.0, -1, 0});
    return root;
  }

  struct Pending {
    std::size_t src_index;
    std::uint32_t dst_index;
  };
  out.push_back(FlatNode{});
  std::vector<Pending> stack{{0, root}};
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    const auto& n = src[p.src_index];
    FlatNode flat;
    if (n.feature < 0) {
      flat.value = n.value;
      flat.feature = -1;
      flat.left = 0;
    } else {
      const auto left_dst = static_cast<std::uint32_t>(out.size());
      LUMOS_ASSERT(left_dst < FlatNode::kChildMask - 1,
                   "flattened ensemble exceeds 2^31 nodes");
      flat.value = n.threshold;
      flat.feature = n.feature;
      flat.left = left_dst |
                  (n.default_left ? FlatNode::kDefaultLeftBit : 0U);
      out.push_back(FlatNode{});
      out.push_back(FlatNode{});
      stack.push_back({static_cast<std::size_t>(n.left), left_dst});
      stack.push_back({static_cast<std::size_t>(n.right), left_dst + 1});
    }
    out[p.dst_index] = flat;
  }
  return root;
}

double traverse(const FlatNode* nodes, std::uint32_t root,
                std::span<const double> row) noexcept {
  const FlatNode* n = &nodes[root];
  while (n->feature >= 0) {
    const double v = row[static_cast<std::size_t>(n->feature)];
    const std::uint32_t left = n->left & FlatNode::kChildMask;
    // NaN routes along the learned default branch, exactly like
    // GradientTree::predict; finite values take the threshold compare.
    const bool go_left = std::isnan(v)
                             ? (n->left & FlatNode::kDefaultLeftBit) != 0U
                             : v <= n->value;
    n = &nodes[left + (go_left ? 0U : 1U)];
  }
  return n->value;
}

}  // namespace

FlatForest FlatForest::flatten(std::span<const ml::GradientTree> trees,
                               std::size_t first, std::size_t stride,
                               double base, double scale) {
  LUMOS_EXPECTS(stride >= 1, "FlatForest::flatten: stride must be >= 1");
  FlatForest f;
  f.base_ = base;
  f.scale_ = scale;
  std::size_t total_nodes = 0;
  for (std::size_t t = first; t < trees.size(); t += stride) {
    total_nodes += trees[t].nodes().empty() ? 1 : trees[t].nodes().size();
  }
  f.nodes_.reserve(total_nodes);
  for (std::size_t t = first; t < trees.size(); t += stride) {
    f.roots_.push_back(flatten_tree(trees[t], f.nodes_));
  }
  return f;
}

FlatForest FlatForest::flatten(const ml::GbdtRegressor& model) {
  return flatten(model.trees(), 0, 1, model.base(),
                 model.config().learning_rate);
}

double FlatForest::predict(std::span<const double> row) const noexcept {
  double s = base_;
  for (const std::uint32_t root : roots_) {
    s += scale_ * traverse(nodes_.data(), root, row);
  }
  return s;
}

void FlatForest::eval_block(const data::ColumnBlock& block, std::size_t row0,
                            std::size_t m, double* acc) const noexcept {
#if defined(LUMOS_HAS_VECTOR_WALK)
  // The vector kernel addresses nodes and column values through 32-bit
  // gather indices (node index * 4 int32 slots; feature * stride + row).
  // Both are far inside range for every real model, but guard anyway and
  // fall back to the scalar walk — same bits either way.
  if (simd::enabled() && nodes_.size() < (1U << 28) &&
      block.n_cols * block.stride < (1U << 31)) {
    eval_block_simd(block, row0, m, acc);
    return;
  }
#endif
  eval_block_scalar(block, row0, m, acc);
}

void FlatForest::eval_block_scalar(const data::ColumnBlock& block,
                                   std::size_t row0, std::size_t m,
                                   double* acc) const noexcept {
  for (std::size_t j = 0; j < m; ++j) acc[j] = base_;
  if (m == 0) return;

  const FlatNode* nodes = nodes_.data();
  // kColumnarRowBlock cursor slots: a narrow block fills the spare ones
  // with the next trees, so one pass walks `per_pass` trees at once and
  // slot k * m + j is tree t0 + k's cursor for row j.
  const std::size_t per_pass = kColumnarRowBlock / m;
  const std::size_t n_trees = roots_.size();
  std::uint32_t cur[kColumnarRowBlock];
  std::uint8_t row_of[kColumnarRowBlock];
  std::uint8_t live[kColumnarRowBlock];
  for (std::size_t t0 = 0; t0 < n_trees; t0 += per_pass) {
    const std::size_t p = std::min(per_pass, n_trees - t0);
    const std::size_t n_slots = p * m;
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t s = k * m + j;
        cur[s] = roots_[t0 + k];
        row_of[s] = static_cast<std::uint8_t>(j);
        live[s] = static_cast<std::uint8_t>(s);
      }
    }
    // Level-synchronous walk: one pass moves every still-internal cursor
    // one level down. Cursors are independent, so the feature gathers of
    // a pass overlap. `live` lists the slots still walking; a cursor that
    // reached a leaf (feature < 0) parks there and leaves the list, so
    // later passes skip it without a load or a branch.
    std::size_t n_live = n_slots;
    while (n_live > 0) {
      std::size_t n_kept = 0;
      for (std::size_t i = 0; i < n_live; ++i) {
        const std::size_t s = live[i];
        const FlatNode& n = nodes[cur[s]];
        if (n.feature < 0) continue;
        const double v = block.col(static_cast<std::size_t>(n.feature))
                             [row0 + row_of[s]];
        const std::uint32_t left = n.left & FlatNode::kChildMask;
        const bool go_left = std::isnan(v)
                                 ? (n.left & FlatNode::kDefaultLeftBit) != 0U
                                 : v <= n.value;
        cur[s] = left + (go_left ? 0U : 1U);
        live[n_kept++] = static_cast<std::uint8_t>(s);
      }
      n_live = n_kept;
    }
    // Fold the pass's leaves tree by tree: per row, the accumulation
    // order of predict(), so the block result is bit-identical per row.
    for (std::size_t s = 0; s < n_slots; ++s) {
      acc[row_of[s]] += scale_ * nodes[cur[s]].value;
    }
  }
}

#if defined(LUMOS_HAS_VECTOR_WALK)
void FlatForest::eval_block_simd(const data::ColumnBlock& block,
                                 std::size_t row0, std::size_t m,
                                 double* acc) const noexcept {
  namespace vs = simd;
  constexpr std::size_t kW = vs::kDoubleWidth;
  const std::size_t m_vec = m - m % kW;
  if (roots_.empty() || m_vec == 0) {
    eval_block_scalar(block, row0, m, acc);
    return;
  }

  // FlatNode is 16 bytes: viewed as doubles, node i's value/threshold is
  // slot 2*i; viewed as int32s, its feature is slot 4*i + 2 and its
  // packed left/default word is slot 4*i + 3. The gathers below read the
  // exact addresses the scalar walk dereferences.
  const auto* node_f64 = reinterpret_cast<const double*>(nodes_.data());
  const auto* node_i32 = reinterpret_cast<const std::int32_t*>(nodes_.data());

  const auto scale_v = vs::broadcast_f64(scale_);
  const auto init_v = vs::broadcast_f64(base_);
  const auto stride_v =
      vs::broadcast_i32(static_cast<std::int32_t>(block.stride));
  const auto zero_i = vs::broadcast_i32(0);
  const auto one_i = vs::broadcast_i32(1);
  const auto two_i = vs::broadcast_i32(2);
  const auto three_i = vs::broadcast_i32(3);
  const auto four_i = vs::broadcast_i32(4);
  const auto minus1_i = vs::broadcast_i32(-1);
  const auto child_mask_i =
      vs::broadcast_i32(static_cast<std::int32_t>(FlatNode::kChildMask));
  const auto zero_f = vs::broadcast_f64(0.0);
  const auto all_lanes = vs::cmp_le(zero_f, zero_f);  // all-ones mask

  alignas(16) static constexpr std::int32_t kLaneOff[4] = {0, 1, 2, 3};
  const auto lane_off = vs::load_i32(kLaneOff);

  // Level-synchronous across the WHOLE block, mirroring the scalar walk:
  // one pass advances every still-active lane group one level before any
  // group takes its next step. A single group's four gathers form a
  // serial dependency chain (cur -> feat -> value -> next cur), so
  // walking one group to completion is latency-bound; interleaving the
  // groups keeps independent chains in flight per pass, exactly the ILP
  // the scalar per-row loop gets from its independent rows. A narrow
  // block fills the spare group slots with the next trees, so every
  // block keeps up to kMaxGroups chains in flight: slot k * n_groups + g
  // is tree t0 + k's cursor for group g.
  constexpr std::size_t kMaxGroups = kColumnarRowBlock / kW;
  const std::size_t n_groups = m_vec / kW;
  const std::size_t per_pass = kMaxGroups / n_groups;
  const std::size_t n_trees = roots_.size();
  vs::VInt32 row_v[kMaxGroups];
  vs::VInt32 cur[kMaxGroups];
  vs::VDouble acc_v[kMaxGroups];
  bool done[kMaxGroups];
  for (std::size_t g = 0; g < n_groups; ++g) {
    row_v[g] = vs::add_i32(
        vs::broadcast_i32(static_cast<std::int32_t>(row0 + g * kW)),
        lane_off);
    acc_v[g] = init_v;
  }

  for (std::size_t t0 = 0; t0 < n_trees; t0 += per_pass) {
    const std::size_t p = std::min(per_pass, n_trees - t0);
    for (std::size_t k = 0; k < p; ++k) {
      const auto root_v =
          vs::broadcast_i32(static_cast<std::int32_t>(roots_[t0 + k]));
      for (std::size_t g = 0; g < n_groups; ++g) {
        cur[k * n_groups + g] = root_v;
        done[k * n_groups + g] = false;
      }
    }
    std::size_t n_active = p * n_groups;
    while (n_active > 0) {
      for (std::size_t k = 0; k < p; ++k) {
        for (std::size_t g = 0; g < n_groups; ++g) {
          const std::size_t s = k * n_groups + g;
          if (done[s]) continue;
          const auto nidx4 = vs::mul_i32(cur[s], four_i);
          const auto feat =
              vs::gather_i32(node_i32, vs::add_i32(nidx4, two_i));
          // A lane parks once it reaches a leaf (feature == -1); the slot
          // drops out of the passes when every lane is parked.
          const auto active32 = vs::cmp_gt_i32(feat, minus1_i);
          if (vs::movemask_i32(active32) == 0) {
            done[s] = true;
            --n_active;
            continue;
          }
          const auto active = vs::mask_widen(active32);
          const auto left_raw =
              vs::gather_i32(node_i32, vs::add_i32(nidx4, three_i));
          const auto thresh =
              vs::gather_f64(node_f64, vs::mul_i32(cur[s], two_i), active);
          // Column gather: parked lanes have feature == -1, so their index
          // is garbage — the mask guarantees no memory access happens for
          // them (gather_f64 contract).
          const auto col_idx =
              vs::add_i32(vs::mul_i32(feat, stride_v), row_v[g]);
          const auto v = vs::gather_f64(block.base, col_idx, active);
          // go_left = NaN ? default-left-bit : v <= threshold. cmp_le is
          // an ordered compare, so a NaN lane reads false there, and the
          // default bit is the sign bit of the packed left word.
          const auto le = vs::cmp_le(v, thresh);
          const auto nan = vs::is_nan(v);
          const auto dfl = vs::mask_widen(vs::topbit_mask_i32(left_raw));
          const auto go_left =
              vs::bit_or(vs::bit_andnot(nan, le), vs::bit_and(nan, dfl));
          const auto left = vs::and_i32(left_raw, child_mask_i);
          const auto child =
              vs::add_i32(left, vs::blend_i32(go_left, zero_i, one_i));
          cur[s] = vs::blend_i32(active, child, cur[s]);
        }
      }
    }
    // Fold the pass's leaves tree by tree: per lane one mul + one add per
    // tree in tree order, the same IEEE op sequence as
    // predict()/eval_block_scalar.
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t g = 0; g < n_groups; ++g) {
        const auto leaf = vs::gather_f64(
            node_f64, vs::mul_i32(cur[k * n_groups + g], two_i), all_lanes);
        acc_v[g] = vs::add(acc_v[g], vs::mul(scale_v, leaf));
      }
    }
  }
  for (std::size_t g = 0; g < n_groups; ++g) {
    vs::store_f64(acc + g * kW, acc_v[g]);
  }

  if (m_vec < m) {
    eval_block_scalar(block, row0 + m_vec, m - m_vec, acc + m_vec);
  }
}
#endif  // LUMOS_HAS_VECTOR_WALK

void FlatForest::predict_columnar(const data::ColumnBlock& block,
                                  std::span<double> out) const {
  LUMOS_EXPECTS(out.size() >= block.n_rows,
                "FlatForest::predict_columnar: one output slot per row");
  parallel_for(0, block.n_rows, kColumnarRowBlock,
               [&](std::size_t b, std::size_t e) {
    for (std::size_t j0 = b; j0 < e; j0 += kColumnarRowBlock) {
      const std::size_t m = std::min(kColumnarRowBlock, e - j0);
      double acc[kColumnarRowBlock];
      eval_block(block, j0, m, acc);
      for (std::size_t j = 0; j < m; ++j) out[j0 + j] = acc[j];
    }
  });
}

FlatClassifier FlatClassifier::flatten(const ml::GbdtClassifier& model) {
  FlatClassifier c;
  const int kc = model.n_classes();
  if (kc <= 0) return c;
  // GbdtClassifier::decision_function folds stages per class as
  //   score[c] = base[c] + lr_scale * tree(stage 0, c) + ... ,
  // which is exactly one flat margin per class over the interleaved
  // [stage * kc + c] tree layout.
  const double lr_scale = model.config().learning_rate *
                          static_cast<double>(kc - 1) /
                          static_cast<double>(kc);
  c.per_class_.reserve(static_cast<std::size_t>(kc));
  for (int cls = 0; cls < kc; ++cls) {
    c.per_class_.push_back(FlatForest::flatten(
        model.trees(), static_cast<std::size_t>(cls),
        static_cast<std::size_t>(kc),
        model.base()[static_cast<std::size_t>(cls)], lr_scale));
  }
  return c;
}

int FlatClassifier::predict(std::span<const double> row) const noexcept {
  if (per_class_.empty()) return 0;
  // First-max-wins argmax, matching GbdtClassifier::predict.
  int best = 0;
  double best_score = per_class_[0].predict(row);
  for (std::size_t c = 1; c < per_class_.size(); ++c) {
    const double s = per_class_[c].predict(row);
    if (s > best_score) {
      best_score = s;
      best = static_cast<int>(c);
    }
  }
  return best;
}

void FlatClassifier::predict_columnar(const data::ColumnBlock& block,
                                      std::span<int> out) const {
  LUMOS_EXPECTS(out.size() >= block.n_rows,
                "FlatClassifier::predict_columnar: one output slot per row");
  if (per_class_.empty()) {
    for (std::size_t r = 0; r < block.n_rows; ++r) out[r] = 0;
    return;
  }
  parallel_for(0, block.n_rows, kColumnarRowBlock,
               [&](std::size_t b, std::size_t e) {
    for (std::size_t j0 = b; j0 < e; j0 += kColumnarRowBlock) {
      const std::size_t m = std::min(kColumnarRowBlock, e - j0);
      double best[kColumnarRowBlock];
      double score[kColumnarRowBlock];
      int best_class[kColumnarRowBlock];
      per_class_[0].eval_block(block, j0, m, best);
      for (std::size_t j = 0; j < m; ++j) best_class[j] = 0;
      // First-max-wins argmax across classes, matching predict().
      for (std::size_t c = 1; c < per_class_.size(); ++c) {
        per_class_[c].eval_block(block, j0, m, score);
        for (std::size_t j = 0; j < m; ++j) {
          if (score[j] > best[j]) {
            best[j] = score[j];
            best_class[j] = static_cast<int>(c);
          }
        }
      }
      for (std::size_t j = 0; j < m; ++j) out[j0 + j] = best_class[j];
    }
  });
}

std::size_t FlatClassifier::n_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& f : per_class_) n += f.n_nodes();
  return n;
}

}  // namespace lumos::serve
