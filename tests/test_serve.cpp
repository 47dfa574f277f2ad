// Tests for lumos::serve — the versioned binary artifact format
// (deterministic saves, bit-exact round-trips, typed failure on truncated /
// bit-flipped / wrong-version files), the flattened inference layout
// (bit-identical to the pointer-layout models), and the batched serving
// Predictor (bit-identical to the Lumos5G facade, batch == individual).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "nn/seq2seq.h"
#include "serve/flat_model.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

/// Bit-pattern comparison: "bit-identical" is the contract, not "close".
std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

/// L+M+C supervised matrix shared by the plain-model tests.
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

const ml::GbdtRegressor& gbdt_reg() {
  static const ml::GbdtRegressor* m = [] {
    auto* r = new ml::GbdtRegressor(small_gbdt());
    r->fit(lmc().x, lmc().y_reg);
    return r;
  }();
  return *m;
}

const ml::GbdtClassifier& gbdt_cls() {
  static const ml::GbdtClassifier* m = [] {
    auto* c = new ml::GbdtClassifier(small_gbdt());
    c->fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
    return c;
  }();
  return *m;
}

const ml::RandomForestRegressor& rf_reg() {
  static const ml::RandomForestRegressor* m = [] {
    ml::ForestConfig cfg;
    cfg.n_trees = 16;
    cfg.max_depth = 8;
    auto* r = new ml::RandomForestRegressor(cfg);
    r->fit(lmc().x, lmc().y_reg);
    return r;
  }();
  return *m;
}

const ml::RandomForestClassifier& rf_cls() {
  static const ml::RandomForestClassifier* m = [] {
    ml::ForestConfig cfg;
    cfg.n_trees = 16;
    cfg.max_depth = 8;
    auto* c = new ml::RandomForestClassifier(cfg);
    c->fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
    return c;
  }();
  return *m;
}

core::Lumos5GConfig facade_config() {
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt = small_gbdt();
  return cfg;
}

/// A trained T+M+C facade (three-tier fallback chain), shared.
const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    auto* f = new core::Lumos5G(facade_config());
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

/// Query windows exercising every tier outcome: full context (tier 0),
/// missing panel geometry (tier 1+), and short histories.
std::vector<std::vector<data::SampleRecord>> query_windows() {
  std::vector<std::vector<data::SampleRecord>> windows;
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  for (std::size_t r = 0; r < runs.size() && windows.size() < 24; ++r) {
    const auto& run = runs[r];
    for (std::size_t start = 10; start + 8 < run.size() && windows.size() < 24;
         start += 37) {
      std::vector<data::SampleRecord> w;
      for (std::size_t i = start; i < start + 8; ++i) w.push_back(ds[run[i]]);
      windows.push_back(w);

      // Same window with panel geometry knocked out: T can't fire.
      auto degraded = w;
      for (auto& s : degraded) {
        s.ue_panel_distance_m = data::SampleRecord::nan_value();
        s.theta_p_deg = data::SampleRecord::nan_value();
        s.theta_m_deg = data::SampleRecord::nan_value();
      }
      windows.push_back(degraded);

      // Short history: lag features (group C) unavailable.
      windows.emplace_back(w.begin(), w.begin() + 2);
    }
  }
  return windows;
}

/// A per-process temp path: the same suite runs concurrently under several
/// ctest entries (plain, LUMOS_THREADS pins, one per discovered test), so
/// shared fixed names would race.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

// ---------- artifact format ----------

TEST(ModelIo, SaveIsDeterministic) {
  const std::string a = save_bytes(gbdt_reg());
  const std::string b = save_bytes(gbdt_reg());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 25u);  // header + payload + hash

  const std::string fa = save_bytes(facade());
  const std::string fb = save_bytes(facade());
  EXPECT_EQ(fa, fb);

  const auto kind = peek_kind(a);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ModelKind::kGbdtRegressor);
  const auto fkind = peek_kind(fa);
  ASSERT_TRUE(fkind.has_value());
  EXPECT_EQ(*fkind, ModelKind::kLumos5G);
}

TEST(ModelIo, GbdtRegressorRoundTripBitIdentical) {
  const auto loaded = load_gbdt_regressor(save_bytes(gbdt_reg()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->n_features(), gbdt_reg().n_features());
  EXPECT_EQ(loaded->trees().size(), gbdt_reg().trees().size());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(bits(loaded->predict(lmc().x.row(r))),
              bits(gbdt_reg().predict(lmc().x.row(r))))
        << "row " << r;
  }
}

TEST(ModelIo, GbdtClassifierRoundTripBitIdentical) {
  const auto loaded = load_gbdt_classifier(save_bytes(gbdt_cls()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->n_classes(), gbdt_cls().n_classes());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    const auto row = lmc().x.row(r);
    ASSERT_EQ(loaded->predict(row), gbdt_cls().predict(row)) << "row " << r;
    const auto da = loaded->decision_function(row);
    const auto db = gbdt_cls().decision_function(row);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t c = 0; c < da.size(); ++c) {
      ASSERT_EQ(bits(da[c]), bits(db[c])) << "row " << r << " class " << c;
    }
  }
}

TEST(ModelIo, ForestRegressorRoundTripBitIdentical) {
  const auto loaded = load_forest_regressor(save_bytes(rf_reg()));
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(bits(loaded->predict(lmc().x.row(r))),
              bits(rf_reg().predict(lmc().x.row(r))))
        << "row " << r;
  }
}

TEST(ModelIo, ForestClassifierRoundTripBitIdentical) {
  const auto loaded = load_forest_classifier(save_bytes(rf_cls()));
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(loaded->predict(lmc().x.row(r)), rf_cls().predict(lmc().x.row(r)))
        << "row " << r;
  }
}

TEST(ModelIo, Lumos5GRoundTripThroughFileBitIdentical) {
  const auto path = temp_path("lumos_test_serve_facade.l5gm");
  ASSERT_TRUE(save_model(facade(), path).has_value());
  const auto bytes = read_artifact(path);
  ASSERT_TRUE(bytes.has_value());
  const auto loaded = load_lumos5g(*bytes);
  ASSERT_TRUE(loaded.has_value());
  std::filesystem::remove(path);

  EXPECT_TRUE(loaded->trained());
  ASSERT_EQ(loaded->tier_specs().size(), facade().tier_specs().size());
  for (std::size_t t = 0; t < facade().tier_specs().size(); ++t) {
    EXPECT_EQ(loaded->tier_trained(t), facade().tier_trained(t)) << "tier " << t;
  }

  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = loaded->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) {
      EXPECT_EQ(a.error().code, b.error().code);
      continue;
    }
    EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
    EXPECT_EQ(a->throughput_class, b->throughput_class);
    EXPECT_EQ(a->tier, b->tier);
    EXPECT_EQ(a->feature_group, b->feature_group);
  }
}

TEST(ModelIo, EveryTruncationIsTypedTruncated) {
  const std::string full = save_bytes(gbdt_reg());
  // Every strict prefix must fail as kTruncated — sample lengths densely
  // near the header and stride through the payload.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 32 && n < full.size(); ++n) lengths.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 64);
  for (std::size_t n = 32; n < full.size(); n += stride) lengths.push_back(n);
  lengths.push_back(full.size() - 1);
  for (const std::size_t n : lengths) {
    const auto r = load_gbdt_regressor(full.substr(0, n));
    ASSERT_FALSE(r.has_value()) << "prefix length " << n;
    EXPECT_EQ(r.error().code, ErrorCode::kTruncated) << "prefix length " << n;
  }
}

TEST(ModelIo, BitFlipsAreTypedNeverUb) {
  const std::string full = save_bytes(gbdt_reg());
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 96);
  for (std::size_t pos = 0; pos < full.size(); pos += stride) {
    for (const int bit : {0, 7}) {
      std::string damaged = full;
      damaged[pos] = static_cast<char>(
          static_cast<unsigned char>(damaged[pos]) ^ (1u << bit));
      const auto r = load_gbdt_regressor(damaged);
      ASSERT_FALSE(r.has_value()) << "byte " << pos << " bit " << bit;
      const auto code = r.error().code;
      EXPECT_TRUE(code == ErrorCode::kBadMagic ||
                  code == ErrorCode::kVersionMismatch ||
                  code == ErrorCode::kTruncated ||
                  code == ErrorCode::kCorrupt || code == ErrorCode::kParseError)
          << "byte " << pos << " bit " << bit << " -> " << to_string(code);
    }
  }
}

TEST(ModelIo, WrongMagicRejected) {
  std::string bytes = save_bytes(gbdt_reg());
  bytes[0] = 'X';
  const auto r = load_gbdt_regressor(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kBadMagic);
}

TEST(ModelIo, FutureVersionRejectedBeforeHashCheck) {
  std::string bytes = save_bytes(gbdt_reg());
  // Patch the u32 version field at offset 4 to kFormatVersion + 1. The
  // hash no longer matches either, but version must win: the reader can't
  // trust its own layout knowledge on a future format.
  bytes[4] = static_cast<char>(kFormatVersion + 1);
  const auto r = load_gbdt_regressor(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kVersionMismatch);
}

TEST(ModelIo, WrongKindRejected) {
  const std::string bytes = save_bytes(gbdt_reg());
  const auto r = load_forest_regressor(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kParseError);
  const auto f = load_lumos5g(bytes);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error().code, ErrorCode::kParseError);
}

TEST(ModelIo, TrailingBytesRejected) {
  std::string bytes = save_bytes(gbdt_reg());
  bytes.push_back('\0');
  const auto r = load_gbdt_regressor(bytes);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorrupt);
}

TEST(ModelIo, EmptyAndTinyBuffersTruncated) {
  for (const std::string_view bytes : {std::string_view{}, std::string_view{"L"},
                                       std::string_view{"L5G"}}) {
    const auto r = load_gbdt_regressor(bytes);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, ErrorCode::kTruncated);
  }
}

TEST(ModelIo, MissingFileIsIoError) {
  const auto r = read_artifact("/nonexistent/lumos/model.l5gm");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
}

TEST(ModelIo, ReadArtifactRoundTripsWrittenBytes) {
  const auto path = temp_path("lumos_test_serve_read.l5gm");
  const std::string bytes = save_bytes(facade());
  ASSERT_TRUE(write_artifact(path, bytes).has_value());
  const auto got = read_artifact(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);

  // An empty file reads as zero bytes; the loader then types it.
  ASSERT_TRUE(write_artifact(path, "").has_value());
  const auto empty = read_artifact(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ModelIo, ReadArtifactOfDirectoryIsIoError) {
  const auto r = read_artifact(std::filesystem::temp_directory_path());
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
}

// ---------- envelope hash and format version ----------

TEST(ModelIo, EnvelopeHashIsXxh64KnownAnswers) {
  // Published XXH64 (seed 0) values: the empty input, a short tail-only
  // input, and one full 32-byte stripe plus a 4-byte and 3-byte tail.
  EXPECT_EQ(envelope_hash(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(envelope_hash("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(envelope_hash("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  // 31 stripes plus one 8-byte tail word. Its low 32 bits are the content
  // checksum a zstd frame of these bytes carries (zstd stores XXH64's low
  // half), which cross-checks the value against an independent encoder.
  std::string ramp(1000, '\0');
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<char>((i * 7 + 3) & 0xFFU);
  }
  EXPECT_EQ(envelope_hash(ramp), 0x5F235FA033F1A3FBULL);
}

/// Little-endian field access for tests that edit artifacts in place.
template <typename T>
T get_le(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(b[at + i])} << (8 * i);
  }
  return static_cast<T>(v);
}

template <typename T>
void put_le(std::string& b, std::size_t at, T value) {
  const auto v = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
  }
}

/// Rewrites the trailing 8-byte hash with `hash(everything before it)`.
template <typename HashFn>
void reseal(std::string& bytes, HashFn hash) {
  const std::size_t at = bytes.size() - 8;
  put_le<std::uint64_t>(bytes, at, hash(std::string_view(bytes).substr(0, at)));
}

/// The v1 envelope hash: byte-serial FNV-1a 64.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ModelIo, V1ArtifactRejectedNamingBothVersions) {
  // A v1-shaped artifact: same layout, version field 1, FNV-1a tail.
  ASSERT_EQ(kFormatVersion, 2u);
  std::string v1 = save_bytes(gbdt_reg());
  put_le<std::uint32_t>(v1, 4, 1);
  reseal(v1, fnv1a);
  const auto r = load_gbdt_regressor(v1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kVersionMismatch);
  EXPECT_NE(r.error().message.find("v1"), std::string::npos)
      << r.error().message;
  EXPECT_NE(r.error().message.find("v2"), std::string::npos)
      << r.error().message;
  const auto kind = peek_kind(v1);
  ASSERT_FALSE(kind.has_value());
  EXPECT_EQ(kind.error().code, ErrorCode::kVersionMismatch);
}

/// A deliberately tiny fitted regressor (two features, few bins, three
/// shallow trees) so per-bit damage tests can afford every bit.
const ml::GbdtRegressor& tiny_gbdt_reg() {
  static const ml::GbdtRegressor* m = [] {
    ml::GbdtConfig cfg;
    cfg.n_estimators = 3;
    cfg.max_depth = 2;
    cfg.n_bins = 8;
    ml::FeatureMatrix x(64, 2);
    std::vector<double> y(64);
    for (std::size_t r = 0; r < 64; ++r) {
      x.at(r, 0) = static_cast<double>(r % 8);
      x.at(r, 1) = static_cast<double>((r * 5) % 7);
      y[r] = 2.0 * x.at(r, 0) + x.at(r, 1);
    }
    auto* g = new ml::GbdtRegressor(cfg);
    g->fit(x, y);
    return g;
  }();
  return *m;
}

TEST(ModelIo, EverySingleBitFlipIsTyped) {
  const std::string full = save_bytes(tiny_gbdt_reg());
  ASSERT_TRUE(load_gbdt_regressor(full).has_value());
  ASSERT_LT(full.size(), 4096u) << "keep the exhaustive sweep small";
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = full;
      damaged[pos] = static_cast<char>(
          static_cast<unsigned char>(damaged[pos]) ^ (1u << bit));
      const auto r = load_gbdt_regressor(damaged);
      ASSERT_FALSE(r.has_value()) << "byte " << pos << " bit " << bit;
      // Which check fires is fixed by where the flip lands: the magic and
      // version are checked first, the size field next, and everything
      // else — the kind byte included — is covered by the hash.
      const auto code = r.error().code;
      if (pos < 4) {
        EXPECT_EQ(code, ErrorCode::kBadMagic) << "byte " << pos;
      } else if (pos < 8) {
        EXPECT_EQ(code, ErrorCode::kVersionMismatch) << "byte " << pos;
      } else if (pos >= 9 && pos < 17) {
        EXPECT_TRUE(code == ErrorCode::kTruncated ||
                    code == ErrorCode::kCorrupt)
            << "byte " << pos << " bit " << bit << " -> " << to_string(code);
      } else {
        EXPECT_EQ(code, ErrorCode::kCorrupt)
            << "byte " << pos << " bit " << bit << " -> " << to_string(code);
      }
    }
  }
}

// ---------- hash-valid crafted artifacts ----------

/// Offsets of the structural fields of a Lumos5G artifact, found by walking
/// the payload layout the writers in serve/model_io.cpp produce.
struct FieldSites {
  std::vector<std::size_t> counts;      ///< u64 element counts, n_features
  std::vector<std::size_t> widths;      ///< u64 model n_features
  std::vector<std::size_t> features;    ///< i32 node split feature
  std::vector<std::size_t> links;       ///< i32 node left / right child
  std::vector<std::size_t> thresholds;  ///< f64 node split threshold
};

class SiteWalker {
 public:
  explicit SiteWalker(const std::string& bytes) : b_(bytes) {}

  FieldSites lumos5g() {
    pos_ = 17;                     // magic, version, kind, size
    pos_ += 4;                     // feature spec
    pos_ += 4 + 4 + 8 + 8 + 8;     // feature config
    pos_ += kGbdtConfigBytes;      // facade GBDT config
    pos_ += 1;                     // fallback enabled
    pos_ += 4 * count();           // fallback tier specs
    pos_ += 1 + 8;                 // harmonic tail + window
    const std::uint64_t n_tiers = count();
    for (std::uint64_t t = 0; t < n_tiers; ++t) {
      if (b_[pos_++] == 0) continue;  // untrained tier
      gbdt(/*classifier=*/false);
      gbdt(/*classifier=*/true);
    }
    EXPECT_EQ(pos_ + 8, b_.size()) << "walker out of step with the format";
    return std::move(s_);
  }

 private:
  static constexpr std::size_t kGbdtConfigBytes = 8 + 4 + 8 + 8 + 8 + 4 + 8 + 8;

  std::uint64_t count() {
    s_.counts.push_back(pos_);
    const auto c = get_le<std::uint64_t>(b_, pos_);
    pos_ += 8;
    return c;
  }

  void gbdt(bool classifier) {
    pos_ += kGbdtConfigBytes;
    s_.widths.push_back(pos_);
    count();  // n_features
    if (classifier) {
      const auto k = get_le<std::int32_t>(b_, pos_);
      pos_ += 4 + 8 * static_cast<std::size_t>(k);  // n_classes + bases
    } else {
      pos_ += 8;  // base
    }
    pos_ += 4;  // mapper max_bins
    const std::uint64_t d = count();
    for (std::uint64_t f = 0; f < d; ++f) pos_ += 8 * count();
    const std::uint64_t n_trees = count();
    for (std::uint64_t t = 0; t < n_trees; ++t) {
      const std::uint64_t n = count();
      for (std::uint64_t i = 0; i < n; ++i) {
        s_.features.push_back(pos_);
        s_.thresholds.push_back(pos_ + 4);
        s_.links.push_back(pos_ + 16);
        s_.links.push_back(pos_ + 20);
        pos_ += 33;
      }
      pos_ += 8 * n + 2;  // gains + missing code
    }
  }

  const std::string& b_;
  std::size_t pos_ = 0;
  FieldSites s_;
};

/// A small trained facade for the crafted-artifact sweep.
const core::Lumos5G& small_facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg = facade_config();
    cfg.gbdt.n_estimators = 6;
    cfg.gbdt.max_depth = 3;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

TEST(ModelIo, TierModelWiderThanItsSpecRejected) {
  // Two coordinated edits no single-field mutation makes: a tier model
  // claims more features than its tier spec derives, and its root splits
  // on one of the extra ones. Tree validation alone would accept that
  // split; serving would then read past the tier's feature row.
  std::string crafted = save_bytes(small_facade());
  const FieldSites sites = SiteWalker(crafted).lumos5g();
  ASSERT_FALSE(sites.widths.empty());
  const auto width = get_le<std::uint64_t>(crafted, sites.widths[0]);
  ASSERT_GE(get_le<std::int32_t>(crafted, sites.features[0]), 0)
      << "first tree's root should be a split";
  put_le<std::uint64_t>(crafted, sites.widths[0], width + 8);
  put_le<std::int32_t>(crafted, sites.features[0],
                       static_cast<std::int32_t>(width + 4));
  reseal(crafted, envelope_hash);
  const auto r = load_lumos5g(crafted);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kParseError);
}

TEST(ModelIo, HashValidCraftedArtifactsAreTypedOrExact) {
  const std::string clean = save_bytes(small_facade());
  const FieldSites sites = SiteWalker(clean).lumos5g();
  ASSERT_FALSE(sites.counts.empty());
  ASSERT_FALSE(sites.features.empty());
  const auto windows = query_windows();

  // Edge values per field kind; thresholds are IEEE-754 bit patterns.
  constexpr std::array<std::uint64_t, 5> kCounts = {0, 1, ~0ULL, 1ULL << 32,
                                                    1ULL << 62};
  constexpr std::array<std::int32_t, 10> kFeatures = {
      -1, -2, 0, 1, 7, 15, 16, 64, INT32_MAX, INT32_MIN};
  constexpr std::array<std::uint64_t, 5> kThresholds = {
      0x7FF8000000000000ULL,  // NaN
      0x7FF0000000000000ULL,  // +inf
      0xFFF0000000000000ULL,  // -inf
      0x8000000000000000ULL,  // -0.0
      1ULL};                  // smallest denormal
  Rng rng(42);
  const auto pick = [&rng](const auto& v) {
    return v[static_cast<std::size_t>(rng.uniform_int(v.size()))];
  };
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string crafted = clean;
    switch (trial % 4) {
      case 0: {  // element counts and n_features: an edge value or off by a few
        const std::size_t at = pick(sites.counts);
        const auto c = get_le<std::uint64_t>(crafted, at);
        put_le(crafted, at,
               rng.bernoulli(0.5) ? pick(kCounts) : c + rng.uniform_int(5) - 2);
        break;
      }
      case 1:  // split feature ids
        put_le(crafted, pick(sites.features), pick(kFeatures));
        break;
      case 2: {  // child links: neighbours of the stored link or edge values
        const std::size_t at = pick(sites.links);
        const auto link = get_le<std::int32_t>(crafted, at);
        const std::array<std::int32_t, 8> links = {
            -1, 0, link - 1, link + 1, link + 2, 1000, INT32_MAX, INT32_MIN};
        put_le(crafted, at, pick(links));
        break;
      }
      default:  // split thresholds: special values or random bit patterns
        put_le(crafted, pick(sites.thresholds),
               rng.bernoulli(0.5) ? pick(kThresholds) : rng.next_u64());
        break;
    }
    reseal(crafted, envelope_hash);
    const auto loaded = load_lumos5g(crafted);
    if (!loaded.has_value()) {
      // The envelope is intact, so only the payload parser may object.
      EXPECT_EQ(loaded.error().code, ErrorCode::kParseError)
          << "trial " << trial << ": " << loaded.error().describe();
      ++rejected;
      continue;
    }
    // Accepted: it re-serializes to exactly the crafted bytes, and it
    // compiles and serves without touching memory it does not own.
    ++accepted;
    EXPECT_EQ(save_bytes(*loaded), crafted) << "trial " << trial;
    const auto compiled = Predictor::compile(*loaded);
    ASSERT_TRUE(compiled.has_value()) << "trial " << trial;
    for (const auto& w : windows) {
      const auto a = loaded->predict(w);
      const auto b = compiled->predict(w);
      ASSERT_EQ(a.has_value(), b.has_value()) << "trial " << trial;
      if (a.has_value()) {
        EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
        EXPECT_EQ(a->throughput_class, b->throughput_class);
      }
    }
  }
  // Both outcomes must actually occur, or the sweep proves nothing.
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(accepted, 100u);
}

// ---------- flattened layout ----------

TEST(FlatModel, GbdtForestMatchesPointerBitwise) {
  const FlatForest flat = FlatForest::flatten(gbdt_reg());
  EXPECT_EQ(flat.n_trees(), gbdt_reg().trees().size());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(bits(flat.predict(lmc().x.row(r))),
              bits(gbdt_reg().predict(lmc().x.row(r))))
        << "row " << r;
  }
}

TEST(FlatModel, GbdtClassifierMatchesPointerBitwise) {
  const FlatClassifier flat = FlatClassifier::flatten(gbdt_cls());
  EXPECT_EQ(flat.n_classes(), gbdt_cls().n_classes());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    const auto row = lmc().x.row(r);
    ASSERT_EQ(flat.predict(row), gbdt_cls().predict(row)) << "row " << r;
  }
}

TEST(FlatModel, NanRoutingMatchesPointer) {
  const FlatForest flat = FlatForest::flatten(gbdt_reg());
  // Knock out each feature in turn: missing values must take the learned
  // default branch, exactly as the pointer layout does.
  for (std::size_t r = 0; r < std::min<std::size_t>(lmc().x.rows(), 40); ++r) {
    for (std::size_t f = 0; f < lmc().x.cols(); ++f) {
      std::vector<double> row(lmc().x.row(r).begin(), lmc().x.row(r).end());
      row[f] = data::SampleRecord::nan_value();
      ASSERT_EQ(bits(flat.predict(row)), bits(gbdt_reg().predict(row)))
          << "row " << r << " feature " << f;
    }
  }
}

// ---------- serving predictor ----------

TEST(Predictor, CompileRejectsUntrained) {
  const core::Lumos5G untrained;
  const auto p = Predictor::compile(untrained);
  ASSERT_FALSE(p.has_value());
  EXPECT_EQ(p.error().code, ErrorCode::kNotTrained);
}

TEST(Predictor, MatchesFacadeBitwise) {
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  EXPECT_GT(compiled->n_nodes(), 0u);
  ASSERT_EQ(compiled->tier_specs().size(), facade().tier_specs().size());

  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = compiled->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) {
      EXPECT_EQ(a.error().code, b.error().code);
      continue;
    }
    EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
    EXPECT_EQ(a->throughput_class, b->throughput_class);
    EXPECT_EQ(a->tier, b->tier);
    EXPECT_EQ(a->feature_group, b->feature_group);
  }
}

TEST(Predictor, ReloadedFacadeCompilesToSamePredictions) {
  // The full consumer story: train -> save -> reload in a "fresh" facade ->
  // compile -> serve. Every step must preserve bit-identity.
  const auto reloaded = load_lumos5g(save_bytes(facade()));
  ASSERT_TRUE(reloaded.has_value());
  const auto compiled = Predictor::compile(*reloaded);
  ASSERT_TRUE(compiled.has_value());
  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = compiled->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
      EXPECT_EQ(a->tier, b->tier);
    }
  }
}

TEST(Predictor, BatchMatchesIndividual) {
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());

  std::vector<Session> sessions;
  for (const auto& w : query_windows()) {
    Session s;
    for (const auto& sample : w) s.observe(sample);
    sessions.push_back(std::move(s));
  }
  sessions.emplace_back();  // empty session: typed error expected

  // Every min_tier, including past the chain (harmonic tail only).
  for (std::size_t min_tier = 0;
       min_tier <= compiled->tier_specs().size() + 1; ++min_tier) {
    const auto batch = compiled->predict_batch(sessions, min_tier);
    ASSERT_EQ(batch.size(), sessions.size());
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto single = compiled->predict(sessions[i], min_tier);
      ASSERT_EQ(batch[i].has_value(), single.has_value())
          << "min_tier " << min_tier << " session " << i;
      if (!single.has_value()) {
        EXPECT_EQ(batch[i].error().code, single.error().code);
        continue;
      }
      EXPECT_EQ(bits(batch[i]->throughput_mbps), bits(single->throughput_mbps))
          << "min_tier " << min_tier << " session " << i;
      EXPECT_EQ(batch[i]->throughput_class, single->throughput_class);
      EXPECT_EQ(batch[i]->tier, single->tier);
      EXPECT_EQ(batch[i]->feature_group, single->feature_group);
    }
  }
}

// ---------- seq2seq artifacts ----------

nn::Seq2SeqConfig small_s2s() {
  nn::Seq2SeqConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = 8;
  cfg.layers = 2;
  cfg.seq_len = 6;
  cfg.out_len = 3;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  cfg.seed = 7;
  return cfg;
}

/// A small fitted Seq2Seq on synthetic sinusoid sequences, shared.
const nn::Seq2Seq& s2s() {
  static const nn::Seq2Seq* m = [] {
    const nn::Seq2SeqConfig cfg = small_s2s();
    auto* net = new nn::Seq2Seq(cfg);
    std::vector<nn::SeqSample> samples;
    for (std::size_t i = 0; i < 32; ++i) {
      nn::SeqSample s;
      for (std::size_t t = 0; t < cfg.seq_len; ++t) {
        const double ph = 0.31 * static_cast<double>(i + t);
        s.x.push_back(std::sin(ph));
        s.x.push_back(std::cos(0.5 * ph));
      }
      for (std::size_t k = 0; k < cfg.out_len; ++k) {
        s.y.push_back(
            std::sin(0.31 * static_cast<double>(i + cfg.seq_len + k)));
      }
      samples.push_back(std::move(s));
    }
    net->fit(samples);
    return net;
  }();
  return *m;
}

std::vector<std::vector<double>> s2s_windows() {
  const nn::Seq2SeqConfig cfg = small_s2s();
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<double> w;
    for (std::size_t t = 0; t < cfg.seq_len; ++t) {
      const double ph = 0.11 * static_cast<double>(3 * i + t);
      w.push_back(std::sin(ph));
      w.push_back(std::cos(0.5 * ph));
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

TEST(ModelIo, Seq2SeqSaveDeterministicAndPeekable) {
  const std::string a = save_bytes(s2s());
  const std::string b = save_bytes(s2s());
  EXPECT_EQ(a, b);
  const auto kind = peek_kind(a);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, ModelKind::kSeq2Seq);
}

TEST(ModelIo, Seq2SeqRoundTripBitIdentical) {
  const auto loaded = load_seq2seq(save_bytes(s2s()));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config().hidden, s2s().config().hidden);
  for (const auto& w : s2s_windows()) {
    const auto ya = s2s().predict(w);
    const auto yb = loaded->predict(w);
    ASSERT_EQ(ya.size(), yb.size());
    for (std::size_t k = 0; k < ya.size(); ++k) {
      ASSERT_EQ(bits(ya[k]), bits(yb[k])) << "step " << k;
    }
  }
}

TEST(ModelIo, Seq2SeqEveryTruncationIsTypedTruncated) {
  const std::string full = save_bytes(s2s());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 32 && n < full.size(); ++n) lengths.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 64);
  for (std::size_t n = 32; n < full.size(); n += stride) lengths.push_back(n);
  lengths.push_back(full.size() - 1);
  for (const std::size_t n : lengths) {
    const auto r = load_seq2seq(full.substr(0, n));
    ASSERT_FALSE(r.has_value()) << "prefix length " << n;
    EXPECT_EQ(r.error().code, ErrorCode::kTruncated) << "prefix length " << n;
  }
}

TEST(ModelIo, Seq2SeqBitFlipsAreTypedNeverUb) {
  const std::string full = save_bytes(s2s());
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 96);
  for (std::size_t pos = 0; pos < full.size(); pos += stride) {
    for (const int bit : {0, 7}) {
      std::string damaged = full;
      damaged[pos] = static_cast<char>(
          static_cast<unsigned char>(damaged[pos]) ^ (1u << bit));
      const auto r = load_seq2seq(damaged);
      ASSERT_FALSE(r.has_value()) << "byte " << pos << " bit " << bit;
      const auto code = r.error().code;
      EXPECT_TRUE(code == ErrorCode::kBadMagic ||
                  code == ErrorCode::kVersionMismatch ||
                  code == ErrorCode::kTruncated ||
                  code == ErrorCode::kCorrupt || code == ErrorCode::kParseError)
          << "byte " << pos << " bit " << bit << " -> " << to_string(code);
    }
  }
}

TEST(ModelIo, Seq2SeqWrongKindRejected) {
  const auto as_gbdt = load_gbdt_regressor(save_bytes(s2s()));
  ASSERT_FALSE(as_gbdt.has_value());
  EXPECT_EQ(as_gbdt.error().code, ErrorCode::kParseError);
  const auto as_s2s = load_seq2seq(save_bytes(gbdt_reg()));
  ASSERT_FALSE(as_s2s.has_value());
  EXPECT_EQ(as_s2s.error().code, ErrorCode::kParseError);
}

// ---------- write_artifact hygiene ----------

/// Number of "<stem>.tmp.*" siblings of `path` — write_artifact must never
/// leave one behind, success or failure.
std::size_t count_temp_files(const std::filesystem::path& path) {
  const std::string prefix = path.filename().string() + ".tmp.";
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(path.parent_path())) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(ModelIo, WriteArtifactCleansTempOnRenameFailure) {
  const auto dir = temp_path("lumos_test_serve_write_hygiene");
  std::filesystem::create_directories(dir / "occupied");
  // The destination is an existing directory: the temp write succeeds but
  // the rename over a directory cannot, so the error path must run and
  // must take the temp file with it.
  const auto r = write_artifact(dir / "occupied", "payload");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
  EXPECT_EQ(count_temp_files(dir / "occupied"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, RacingWritersProduceWholeArtifacts) {
  const auto dir = temp_path("lumos_test_serve_write_race");
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.l5gm";
  const std::string a = save_bytes(gbdt_reg());
  const std::string b = save_bytes(rf_reg());
  ASSERT_NE(a, b);

  // Two pool threads race full write->rename cycles at the same
  // destination. Whatever the interleaving, the destination must always
  // hold one writer's bytes in full — never a torn mix — and no temp file
  // may survive.
  ThreadPool pool(2);
  for (int round = 0; round < 16; ++round) {
    pool.parallel_for(0, 2, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto w = write_artifact(path, i == 0 ? a : b);
        EXPECT_TRUE(w.has_value());
      }
    });
    const auto got = read_artifact(path);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == a || *got == b) << "torn artifact on round " << round;
    EXPECT_EQ(count_temp_files(path), 0u) << "round " << round;
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, RollingWindowDropsOldest) {
  Session s(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    data::SampleRecord rec;
    rec.timestamp_s = static_cast<double>(i);
    s.observe(rec);
  }
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.window().front().timestamp_s, 2.0);
  EXPECT_EQ(s.window().back().timestamp_s, 5.0);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace lumos::serve
