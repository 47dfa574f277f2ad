// Golden digests: end-to-end fingerprints of training and serving, pinned
// as constants. Each digest is XXH64 (serve::envelope_hash) over a byte
// stream that covers every bit a refactor could disturb:
//
//   * the saved artifact bytes of GBDT and Random-Forest fixtures and of a
//     trained three-tier Lumos5G facade — which between them fit on the
//     identity-permutation fast path, on bootstrap indices, and with a
//     multiclass softmax loss;
//   * every node field and split gain of one tree fit on a NaN-holed
//     matrix (learned default directions included);
//   * every answer (throughput bits, class, tier, error code) of the
//     columnar batched serving walk at every min_tier, with the vector
//     kernel on and forced off.
//
// Any change to the fit, the flat layout, the tier walk or the harmonic
// tail that moves even one bit fails here. The constants were recorded
// before the row-major training layout and the row batch walks were
// removed; they must only ever change together with an intended change of
// results (and the reason recorded alongside).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/tree.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "sim/areas.h"

namespace lumos {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Append-only byte stream hashed with the artifact envelope hash.
class Digest {
 public:
  template <class T>
  void add(T v) {
    const auto raw = std::bit_cast<std::array<char, sizeof(T)>>(v);
    bytes_.append(raw.data(), raw.size());
  }
  std::uint64_t value() const noexcept { return serve::envelope_hash(bytes_); }

 private:
  std::string bytes_;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_DIGEST(actual, pinned) \
  EXPECT_EQ(hex(actual), hex(pinned)) << #actual

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

const data::BuiltFeatures& lmc() {
  static const data::BuiltFeatures bf =
      data::build_features(airport_ds(), data::FeatureSetSpec::parse("L+M+C"));
  return bf;
}

ml::GbdtConfig small_gbdt() {
  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.max_depth = 5;
  return cfg;
}

ml::ForestConfig small_forest() {
  ml::ForestConfig cfg;
  cfg.n_trees = 16;
  cfg.max_depth = 8;
  return cfg;
}

const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt = small_gbdt();
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

// ---- artifact bytes -------------------------------------------------------

TEST(Golden, GbdtRegressorArtifact) {
  ml::GbdtRegressor m(small_gbdt());
  m.fit(lmc().x, lmc().y_reg);
  EXPECT_DIGEST(serve::envelope_hash(serve::save_bytes(m)),
                0x8b85bc281caed476ULL);
}

TEST(Golden, GbdtClassifierArtifact) {
  ml::GbdtClassifier m(small_gbdt());
  m.fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
  EXPECT_DIGEST(serve::envelope_hash(serve::save_bytes(m)),
                0x3d99e28560fcd3cdULL);
}

TEST(Golden, ForestRegressorArtifact) {
  ml::RandomForestRegressor m(small_forest());
  m.fit(lmc().x, lmc().y_reg);
  EXPECT_DIGEST(serve::envelope_hash(serve::save_bytes(m)),
                0xd6b3fe0d089c4f1cULL);
}

TEST(Golden, ForestClassifierArtifact) {
  ml::RandomForestClassifier m(small_forest());
  m.fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
  EXPECT_DIGEST(serve::envelope_hash(serve::save_bytes(m)),
                0x7d564287a5e1a63dULL);
}

TEST(Golden, Lumos5GArtifact) {
  EXPECT_DIGEST(serve::envelope_hash(serve::save_bytes(facade())),
                0xbf90fbefe41edbb3ULL);
}

// ---- one tree on a NaN-holed matrix ---------------------------------------

TEST(Golden, NaNHoledTreeNodesAndGains) {
  // The ColumnarTreeFit.NaNDefaultDirectionPreserved inputs: a constant
  // column, a column with every 7th value missing, and Gaussian noise.
  ml::FeatureMatrix x(1200, 5);
  Rng xrng(53);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      if (f == 0) {
        x.at(r, f) = 3.25;
      } else if (f == 1 && r % 7 == 3) {
        x.at(r, f) = kNaN;
      } else {
        x.at(r, f) = xrng.normal(0.0, 1.0);
      }
    }
  }
  ml::BinMapper mapper;
  mapper.fit(x, 64);
  const auto binned = ml::BinnedMatrix::build(mapper, x);
  std::vector<double> grad(x.rows()), hess(x.rows(), 1.0);
  Rng grng(59);
  for (auto& g : grad) g = grng.normal(0.0, 1.0);
  std::vector<std::size_t> idx(x.rows());
  std::iota(idx.begin(), idx.end(), std::size_t{0});

  ml::GradientTree tree;
  tree.fit(binned, mapper, grad, hess, idx, ml::TreeConfig{});

  Digest d;
  for (const auto& n : tree.nodes()) {
    d.add(n.feature);
    d.add(n.bin);
    d.add(n.threshold);
    d.add(n.left);
    d.add(n.right);
    d.add(n.value);
    d.add(n.default_left);
  }
  for (const double g : tree.gains()) d.add(g);
  EXPECT_GT(tree.nodes().size(), 1u);
  EXPECT_DIGEST(d.value(), 0x2b166f85551bcad4ULL);
}

// ---- every answer of the columnar serving walk ----------------------------

/// The PredictorColumnar.MatchesPredictSpansAtEveryMinTier window set:
/// windows of 1..9 samples from every run (forcing tier fallback on the
/// short ones) plus one empty window (the error path).
std::vector<std::vector<data::SampleRecord>> golden_windows() {
  const auto& ds = airport_ds();
  std::vector<std::vector<data::SampleRecord>> storage;
  for (const auto& run : ds.runs()) {
    for (std::size_t start = 0; start + 2 < run.size() && storage.size() < 120;
         start += 11) {
      std::vector<data::SampleRecord> w;
      const std::size_t len = 1 + (storage.size() % 9);
      for (std::size_t i = start; i < std::min(start + len, run.size()); ++i) {
        w.push_back(ds[run[i]]);
      }
      storage.push_back(std::move(w));
    }
  }
  storage.emplace_back();
  return storage;
}

std::uint64_t serving_digest(bool use_simd) {
  const bool was_enabled = simd::enabled();
  simd::set_enabled(use_simd);
  const auto compiled = serve::Predictor::compile(facade());
  EXPECT_TRUE(compiled.has_value());
  const serve::Predictor& p = *compiled;

  const auto storage = golden_windows();
  std::vector<std::span<const data::SampleRecord>> windows;
  for (const auto& w : storage) windows.emplace_back(w);
  serve::PredictScratch scratch;
  scratch.reserve(windows.size(), p.max_width());

  Digest d;
  std::size_t n_tier0 = 0, n_tail = 0, n_error = 0;
  for (std::size_t min_tier = 0; min_tier <= p.tier_specs().size() + 1;
       ++min_tier) {
    std::vector<Expected<core::Prediction>> out(
        windows.size(),
        Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
    p.predict_spans_columnar(windows, out, scratch, min_tier);
    for (const auto& r : out) {
      d.add(r.has_value());
      if (r.has_value()) {
        d.add(r->throughput_mbps);
        d.add(r->throughput_class);
        d.add(r->tier);
        n_tier0 += r->tier == 0 ? 1 : 0;
        n_tail += r->feature_group == "harmonic" ? 1 : 0;
      } else {
        d.add(static_cast<int>(r.error().code));
        ++n_error;
      }
    }
  }
  // The window set must reach the top tier, the harmonic tail and the
  // error path, or the digest pins less than it claims.
  EXPECT_GT(n_tier0, 0u);
  EXPECT_GT(n_tail, 0u);
  EXPECT_GT(n_error, 0u);
  simd::set_enabled(was_enabled);
  return d.value();
}

constexpr std::uint64_t kServingDigest = 0xd791bffdec5618cfULL;

TEST(Golden, ColumnarServingAnswersSimdOn) {
  EXPECT_DIGEST(serving_digest(true), kServingDigest);
}

TEST(Golden, ColumnarServingAnswersSimdOff) {
  EXPECT_DIGEST(serving_digest(false), kServingDigest);
}

}  // namespace
}  // namespace lumos
