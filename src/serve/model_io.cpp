#include "serve/model_io.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/features.h"

namespace lumos::serve {
namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 8;  // magic, version, kind, size
constexpr std::size_t kHashSize = 8;

// ---------------------------------------------------------------------------
// Byte-level primitives. Every field is little-endian on disk, so artifacts
// are identical across hosts regardless of endianness or struct padding.
// Writes are composed byte by byte; reads load a whole word at a time on
// little-endian hosts and compose bytes only on big-endian ones.
// ---------------------------------------------------------------------------

/// The unsigned little-endian integer stored at `p` (unaligned).
template <typename T>
T load_le(const char* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(
          v | static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                             << (8 * i)));
    }
    return v;
  }
}

class Writer {
 public:
  void raw(const char* p, std::size_t n) { buf_.append(p, n); }
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  const std::string& view() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }

 private:
  void append_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
    }
  }
  std::string buf_;
};

/// Bounds-checked little-endian cursor. A read past the end (possible only
/// for a hand-crafted payload — the envelope hash already passed) trips the
/// fail flag; every subsequent read returns 0 and the loader reports a
/// typed error instead of touching out-of-range memory.
class Reader {
 public:
  explicit Reader(std::string_view d) noexcept : d_(d) {}

  bool ok() const noexcept { return ok_; }
  /// ok() and fully consumed — trailing payload bytes are a parse error.
  bool done() const noexcept { return ok_ && pos_ == d_.size(); }
  std::size_t remaining() const noexcept { return d_.size() - pos_; }

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// Reads an element count and rejects it when even minimally-sized
  /// elements could not fit in the remaining bytes — so a corrupt count
  /// fails fast instead of driving a multi-gigabyte allocation.
  std::size_t count(std::size_t min_elem_size) {
    const std::uint64_t c = u64();
    if (ok_ && min_elem_size > 0 &&
        c > remaining() / min_elem_size) {
      ok_ = false;
      return 0;
    }
    return ok_ ? static_cast<std::size_t>(c) : 0;
  }

  /// Claims the next `n` bytes with one bounds check, for fixed-stride
  /// records the caller decodes with load_le. nullptr (and the fail flag)
  /// when fewer than `n` remain.
  const char* block(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return nullptr;
    }
    const char* p = d_.data() + pos_;
    pos_ += n;
    return p;
  }

 private:
  template <typename T>
  T le() {
    const char* p = block(sizeof(T));
    return p != nullptr ? load_le<T>(p) : T{0};
  }

  std::string_view d_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Error parse_error(std::string message) {
  return Error{ErrorCode::kParseError, std::move(message)};
}

// ---------------------------------------------------------------------------
// Component writers/readers. Readers only signal through the Reader fail
// flag plus a returned bool for structural checks; loaders translate.
// ---------------------------------------------------------------------------

void write_gbdt_config(Writer& w, const ml::GbdtConfig& c) {
  w.u64(c.n_estimators);
  w.i32(c.max_depth);
  w.f64(c.learning_rate);
  w.u64(c.min_samples_leaf);
  w.f64(c.lambda);
  w.i32(c.n_bins);
  w.f64(c.subsample);
  w.u64(c.seed);
}

ml::GbdtConfig read_gbdt_config(Reader& r) {
  ml::GbdtConfig c;
  c.n_estimators = static_cast<std::size_t>(r.u64());
  c.max_depth = r.i32();
  c.learning_rate = r.f64();
  c.min_samples_leaf = static_cast<std::size_t>(r.u64());
  c.lambda = r.f64();
  c.n_bins = r.i32();
  c.subsample = r.f64();
  c.seed = r.u64();
  return c;
}

void write_forest_config(Writer& w, const ml::ForestConfig& c) {
  w.u64(c.n_trees);
  w.i32(c.max_depth);
  w.u64(c.min_samples_leaf);
  w.i32(c.n_bins);
  w.u64(c.feature_subsample);
  w.f64(c.bootstrap_fraction);
  w.u64(c.seed);
}

ml::ForestConfig read_forest_config(Reader& r) {
  ml::ForestConfig c;
  c.n_trees = static_cast<std::size_t>(r.u64());
  c.max_depth = r.i32();
  c.min_samples_leaf = static_cast<std::size_t>(r.u64());
  c.n_bins = r.i32();
  c.feature_subsample = static_cast<std::size_t>(r.u64());
  c.bootstrap_fraction = r.f64();
  c.seed = r.u64();
  return c;
}

void write_mapper(Writer& w, const ml::BinMapper& m) {
  w.i32(m.max_bins());
  w.u64(m.n_features());
  for (const auto& e : m.edges()) {
    w.u64(e.size());
    for (const double v : e) w.f64(v);
  }
}

bool read_mapper(Reader& r, ml::BinMapper& out) {
  const std::int32_t max_bins = r.i32();
  const std::size_t d = r.count(8);
  std::vector<std::vector<double>> edges(d);
  for (auto& e : edges) {
    const std::size_t n = r.count(8);
    e.resize(n);
    for (auto& v : e) v = r.f64();
  }
  if (!r.ok() || max_bins < 0) return false;
  out.restore(std::move(edges), max_bins);
  return true;
}

void write_tree(Writer& w, const ml::GradientTree& t) {
  w.u64(t.nodes().size());
  for (const auto& n : t.nodes()) {
    w.i32(n.feature);
    w.f64(n.threshold);
    w.i32(n.bin);
    w.i32(n.left);
    w.i32(n.right);
    w.f64(n.value);
    w.boolean(n.default_left);
  }
  for (const double g : t.gains()) w.f64(g);
  w.u16(t.missing_code());
}

/// Structural soundness of decoded node `i` of `n`: children always point
/// forward (the builder allocates them after their parent, and forwardness
/// makes traversal provably terminating), stay in range, and splits name a
/// feature the model actually has. Branch-free: leaves and splits
/// interleave unpredictably, so a branch on the node type would mispredict
/// on about every other node.
bool valid_node(const ml::GradientTree::Node& node, std::int64_t i,
                std::int64_t n, std::size_t n_features) noexcept {
  const bool leaf = node.feature < 0;
  const bool leaf_ok = (node.left == -1) & (node.right == -1);
  const bool split_ok =
      (static_cast<std::uint64_t>(node.feature) < n_features) &
      (static_cast<std::uint32_t>(node.bin) <= 0xFFFFU) &
      (node.left > i) & (node.left < n) & (node.right > i) & (node.right < n);
  return (leaf & leaf_ok) | (!leaf & split_ok);
}

/// Node count 0 is legal (an unfit tree predicts 0.0); `n_features` bounds
/// the split features a node may reference.
bool read_tree(Reader& r, std::size_t n_features, ml::GradientTree& out) {
  constexpr std::size_t kNodeBytes = 4 + 8 + 4 + 4 + 4 + 8 + 1;
  const std::size_t n = r.count(kNodeBytes);
  // count() proved the node block fits, so it and the gains are claimed
  // with one bounds check each; nodes are then decoded and validated in
  // one pass without per-field branches.
  const char* p = r.block(n * kNodeBytes);
  const char* gain_bytes = r.block(n * 8);
  const std::uint16_t missing = r.u16();
  if (!r.ok()) return false;
  std::vector<ml::GradientTree::Node> nodes;
  nodes.reserve(n);
  bool valid = true;
  const auto n_signed = static_cast<std::int64_t>(n);
  for (std::int64_t i = 0; i < n_signed; ++i, p += kNodeBytes) {
    const auto& node = nodes.emplace_back(ml::GradientTree::Node{
        static_cast<std::int32_t>(load_le<std::uint32_t>(p)),
        std::bit_cast<double>(load_le<std::uint64_t>(p + 4)),
        static_cast<std::int32_t>(load_le<std::uint32_t>(p + 12)),
        static_cast<std::int32_t>(load_le<std::uint32_t>(p + 16)),
        static_cast<std::int32_t>(load_le<std::uint32_t>(p + 20)),
        std::bit_cast<double>(load_le<std::uint64_t>(p + 24)),
        p[32] != 0});
    valid = valid & valid_node(node, i, n_signed, n_features);
  }
  if (!valid) return false;
  std::vector<double> gains(n);
  for (std::size_t i = 0; i < n; ++i) {
    gains[i] =
        std::bit_cast<double>(load_le<std::uint64_t>(gain_bytes + 8 * i));
  }
  out.restore(std::move(nodes), std::move(gains), missing);
  return true;
}

void write_spec(Writer& w, const data::FeatureSetSpec& s) {
  w.boolean(s.L);
  w.boolean(s.M);
  w.boolean(s.T);
  w.boolean(s.C);
}

data::FeatureSetSpec read_spec(Reader& r) {
  data::FeatureSetSpec s;
  s.L = r.boolean();
  s.M = r.boolean();
  s.T = r.boolean();
  s.C = r.boolean();
  return s;
}

void write_feature_config(Writer& w, const data::FeatureConfig& c) {
  w.i32(c.throughput_lags);
  w.i32(c.horizon);
  w.f64(c.low_mbps);
  w.f64(c.high_mbps);
  w.f64(c.max_gap_s);
}

data::FeatureConfig read_feature_config(Reader& r) {
  data::FeatureConfig c;
  c.throughput_lags = r.i32();
  c.horizon = r.i32();
  c.low_mbps = r.f64();
  c.high_mbps = r.f64();
  c.max_gap_s = r.f64();
  return c;
}

void write_fallback_config(Writer& w, const core::FallbackConfig& c) {
  w.boolean(c.enabled);
  w.u64(c.tiers.size());
  for (const auto& s : c.tiers) write_spec(w, s);
  w.boolean(c.harmonic_tail);
  w.u64(c.harmonic_window);
}

core::FallbackConfig read_fallback_config(Reader& r) {
  core::FallbackConfig c;
  c.enabled = r.boolean();
  const std::size_t n = r.count(4);
  c.tiers.resize(n);
  for (auto& s : c.tiers) s = read_spec(r);
  c.harmonic_tail = r.boolean();
  c.harmonic_window = static_cast<std::size_t>(r.u64());
  return c;
}

// --- per-model payloads ---------------------------------------------------

void write_gbdt_regressor_payload(Writer& w, const ml::GbdtRegressor& m) {
  write_gbdt_config(w, m.config());
  w.u64(m.n_features());
  w.f64(m.base());
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

bool read_gbdt_regressor_payload(Reader& r, ml::GbdtRegressor& out) {
  const ml::GbdtConfig cfg = read_gbdt_config(r);
  const std::size_t n_features = static_cast<std::size_t>(r.u64());
  const double base = r.f64();
  ml::BinMapper mapper;
  if (!read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, n_features, t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::GbdtRegressor(cfg);
  out.restore(std::move(mapper), base, std::move(trees), n_features);
  return true;
}

void write_gbdt_classifier_payload(Writer& w, const ml::GbdtClassifier& m) {
  write_gbdt_config(w, m.config());
  w.u64(m.n_features());
  w.i32(m.n_classes());
  for (const double b : m.base()) w.f64(b);
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

bool read_gbdt_classifier_payload(Reader& r, ml::GbdtClassifier& out) {
  const ml::GbdtConfig cfg = read_gbdt_config(r);
  const std::size_t n_features = static_cast<std::size_t>(r.u64());
  const std::int32_t n_classes = r.i32();
  if (!r.ok() || n_classes < 0 ||
      static_cast<std::size_t>(n_classes) > r.remaining() / 8) {
    return false;
  }
  std::vector<double> base(static_cast<std::size_t>(n_classes));
  for (auto& b : base) b = r.f64();
  ml::BinMapper mapper;
  if (!read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  if (n_classes > 0 && n_trees % static_cast<std::size_t>(n_classes) != 0) {
    return false;
  }
  if (n_classes == 0 && n_trees != 0) return false;
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, n_features, t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::GbdtClassifier(cfg);
  out.restore(std::move(mapper), n_classes, std::move(base), std::move(trees),
              n_features);
  return true;
}

void write_forest_regressor_payload(Writer& w,
                                    const ml::RandomForestRegressor& m) {
  write_forest_config(w, m.config());
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

bool read_forest_regressor_payload(Reader& r,
                                   ml::RandomForestRegressor& out) {
  const ml::ForestConfig cfg = read_forest_config(r);
  ml::BinMapper mapper;
  if (!read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, mapper.n_features(), t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::RandomForestRegressor(cfg);
  out.restore(std::move(mapper), std::move(trees));
  return true;
}

void write_forest_classifier_payload(Writer& w,
                                     const ml::RandomForestClassifier& m) {
  write_forest_config(w, m.config());
  w.i32(m.n_classes());
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

bool read_forest_classifier_payload(Reader& r,
                                    ml::RandomForestClassifier& out) {
  const ml::ForestConfig cfg = read_forest_config(r);
  const std::int32_t n_classes = r.i32();
  ml::BinMapper mapper;
  if (n_classes < 0 || !read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  // predict() indexes trees as [t * n_classes + c] with t < cfg.n_trees,
  // so the stored count must match the stored config exactly.
  if (n_trees != cfg.n_trees * static_cast<std::size_t>(n_classes)) {
    return false;
  }
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, mapper.n_features(), t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::RandomForestClassifier(cfg);
  out.restore(std::move(mapper), n_classes, std::move(trees));
  return true;
}

void write_lumos5g_payload(Writer& w, const core::Lumos5G& m) {
  const core::Lumos5GConfig& cfg = m.config();
  write_spec(w, cfg.feature_spec);
  write_feature_config(w, cfg.features);
  write_gbdt_config(w, cfg.gbdt);
  write_fallback_config(w, cfg.fallback);
  w.u64(m.tier_specs().size());
  for (std::size_t i = 0; i < m.tier_specs().size(); ++i) {
    w.boolean(m.tier_trained(i));
    if (m.tier_trained(i)) {
      write_gbdt_regressor_payload(w, m.tier_regressor(i));
      write_gbdt_classifier_payload(w, m.tier_classifier(i));
    }
  }
}

// --- seq2seq payload ------------------------------------------------------

void write_seq2seq_config(Writer& w, const nn::Seq2SeqConfig& c) {
  w.u64(c.input_dim);
  w.u64(c.hidden);
  w.u64(c.layers);
  w.u64(c.seq_len);
  w.u64(c.out_len);
  w.u64(c.epochs);
  w.u64(c.batch_size);
  w.f64(c.lr);
  w.f64(c.clip_norm);
  w.u64(c.seed);
  w.boolean(c.verbose);
}

nn::Seq2SeqConfig read_seq2seq_config(Reader& r) {
  nn::Seq2SeqConfig c;
  c.input_dim = static_cast<std::size_t>(r.u64());
  c.hidden = static_cast<std::size_t>(r.u64());
  c.layers = static_cast<std::size_t>(r.u64());
  c.seq_len = static_cast<std::size_t>(r.u64());
  c.out_len = static_cast<std::size_t>(r.u64());
  c.epochs = static_cast<std::size_t>(r.u64());
  c.batch_size = static_cast<std::size_t>(r.u64());
  c.lr = r.f64();
  c.clip_norm = r.f64();
  c.seed = r.u64();
  c.verbose = r.boolean();
  return c;
}

/// a*b, saturating at uint64 max instead of wrapping — used to bound a
/// crafted config's parameter volume before any allocation happens.
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// Number of doubles a Seq2Seq of this config carries. Mirrors the
/// construction in Seq2Seq's ctor: per LSTM cell wx (4H x in), wh (4H x H),
/// b (1 x 4H); encoder layer 0 reads input_dim, decoder layer 0 reads the
/// scalar token, deeper layers read H; head is (1 x H) + (1 x 1).
std::uint64_t seq2seq_param_count(const nn::Seq2SeqConfig& c) noexcept {
  const std::uint64_t h4 = sat_mul(4, c.hidden);
  std::uint64_t total = 0;
  const auto cell = [&](std::uint64_t in_dim) {
    total = total + sat_mul(h4, in_dim);  // wx
    total = total + sat_mul(h4, c.hidden);  // wh
    total = total + h4;  // b
  };
  for (std::size_t l = 0; l < c.layers; ++l) {
    cell(l == 0 ? c.input_dim : c.hidden);
    cell(l == 0 ? 1 : c.hidden);
    if (total == std::numeric_limits<std::uint64_t>::max()) break;
  }
  return total + c.hidden + 1;  // head weight + bias
}

void write_seq2seq_payload(Writer& w, const nn::Seq2Seq& m) {
  write_seq2seq_config(w, m.config());
  const auto matrices = m.parameter_matrices();
  w.u64(matrices.size());
  for (const nn::Matrix* mat : matrices) {
    w.u64(mat->rows());
    w.u64(mat->cols());
    for (std::size_t i = 0; i < mat->size(); ++i) w.f64(mat->data()[i]);
  }
}

Expected<nn::Seq2Seq> read_seq2seq_payload(Reader& r) {
  const nn::Seq2SeqConfig cfg = read_seq2seq_config(r);
  if (!r.ok()) return parse_error("malformed seq2seq config block");
  // The Seq2Seq ctor refuses zero dimensions (by throwing, which the serve
  // layer never does on the query path) — reject before constructing. Also
  // bound the parameter volume a crafted config implies against the bytes
  // actually present, so a hash-valid but hand-built artifact cannot drive
  // a multi-gigabyte allocation.
  if (cfg.input_dim == 0 || cfg.hidden == 0 || cfg.layers == 0 ||
      cfg.seq_len == 0 || cfg.out_len == 0) {
    return parse_error("seq2seq config has a zero dimension");
  }
  if (seq2seq_param_count(cfg) > r.remaining() / 8) {
    return parse_error(
        "seq2seq config implies more parameters than the payload holds");
  }
  nn::Seq2Seq model(cfg);
  const auto matrices = model.parameter_matrices();
  const std::size_t stored = r.count(8 + 8);
  if (!r.ok() || stored != matrices.size()) {
    return parse_error("stored matrix count disagrees with the network "
                       "derived from the stored config");
  }
  for (nn::Matrix* mat : matrices) {
    const auto rows = static_cast<std::size_t>(r.u64());
    const auto cols = static_cast<std::size_t>(r.u64());
    if (!r.ok() || rows != mat->rows() || cols != mat->cols()) {
      return parse_error("stored matrix shape disagrees with the network "
                         "derived from the stored config");
    }
    for (std::size_t i = 0; i < mat->size(); ++i) mat->data()[i] = r.f64();
  }
  if (!r.done()) return parse_error("malformed seq2seq payload");
  return model;
}

// ---------------------------------------------------------------------------
// Envelope: header + hash around a payload.
// ---------------------------------------------------------------------------

std::string finalize(ModelKind kind, const std::string& payload) {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(kHeaderSize + payload.size() + kHashSize);
  w.raw(payload.data(), payload.size());
  w.u64(envelope_hash(w.view()));
  return w.take();
}

/// Validates magic/version/size/hash and hands back the payload slice.
Expected<std::string_view> check_envelope(std::string_view bytes,
                                          ModelKind expected) {
  if (bytes.size() < sizeof(kMagic)) {
    return Error{ErrorCode::kTruncated,
                 "model artifact shorter than the 4-byte magic"};
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error{ErrorCode::kBadMagic,
                 "not a Lumos5G model artifact (magic != \"L5GM\")"};
  }
  if (bytes.size() < kHeaderSize + kHashSize) {
    return Error{ErrorCode::kTruncated,
                 "model artifact shorter than its fixed header"};
  }
  Reader header(bytes.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    return Error{ErrorCode::kVersionMismatch,
                 "model artifact is format v" + std::to_string(version) +
                     "; this build reads exactly v" +
                     std::to_string(kFormatVersion)};
  }
  const std::uint8_t kind = header.u8();
  const std::uint64_t declared = header.u64();
  if (declared < kHeaderSize + kHashSize) {
    return Error{ErrorCode::kCorrupt,
                 "declared artifact size smaller than header + hash"};
  }
  if (bytes.size() < declared) {
    return Error{ErrorCode::kTruncated,
                 "model artifact declares " + std::to_string(declared) +
                     " bytes but only " + std::to_string(bytes.size()) +
                     " are present"};
  }
  if (bytes.size() > declared) {
    return Error{ErrorCode::kCorrupt,
                 std::to_string(bytes.size() - declared) +
                     " trailing bytes after the declared artifact end"};
  }
  const std::size_t hash_at = static_cast<std::size_t>(declared) - kHashSize;
  if (envelope_hash(bytes.substr(0, hash_at)) !=
      load_le<std::uint64_t>(bytes.data() + hash_at)) {
    return Error{ErrorCode::kCorrupt,
                 "model artifact failed its integrity hash (bit rot or "
                 "partial write)"};
  }
  if (kind != static_cast<std::uint8_t>(expected)) {
    if (kind > kMaxKindTag) {
      return parse_error("unknown model kind tag " + std::to_string(kind));
    }
    return parse_error(
        std::string("artifact holds a ") +
        to_string(static_cast<ModelKind>(kind)) + ", loader expects a " +
        to_string(expected));
  }
  return bytes.substr(kHeaderSize, hash_at - kHeaderSize);
}

}  // namespace

std::uint64_t envelope_hash(std::string_view bytes) noexcept {
  // XXH64 with seed 0 (the public xxHash64 algorithm). Four independent
  // lanes each fold one 8-byte word per 32-byte stripe, so the multiplies
  // pipeline instead of forming one byte-serial dependency chain.
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  const auto round = [](std::uint64_t acc, std::uint64_t input) {
    return std::rotl(acc + input * kP2, 31) * kP1;
  };
  const auto merge = [&round](std::uint64_t acc, std::uint64_t lane) {
    return (acc ^ round(0, lane)) * kP1 + kP4;
  };
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t h;
  if (bytes.size() >= 32) {
    std::uint64_t v1 = kP1 + kP2;
    std::uint64_t v2 = kP2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round(v1, load_le<std::uint64_t>(p));
      v2 = round(v2, load_le<std::uint64_t>(p + 8));
      v3 = round(v3, load_le<std::uint64_t>(p + 16));
      v4 = round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ round(0, load_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p != end; ++p) {
    const std::uint64_t byte = static_cast<unsigned char>(*p);
    h = std::rotl(h ^ (byte * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

const char* to_string(ModelKind k) noexcept {
  switch (k) {
    case ModelKind::kGbdtRegressor: return "gbdt_regressor";
    case ModelKind::kGbdtClassifier: return "gbdt_classifier";
    case ModelKind::kForestRegressor: return "forest_regressor";
    case ModelKind::kForestClassifier: return "forest_classifier";
    case ModelKind::kLumos5G: return "lumos5g";
    case ModelKind::kSeq2Seq: return "seq2seq";
  }
  return "?";
}

std::string save_bytes(const ml::GbdtRegressor& model) {
  Writer w;
  write_gbdt_regressor_payload(w, model);
  return finalize(ModelKind::kGbdtRegressor, w.view());
}

std::string save_bytes(const ml::GbdtClassifier& model) {
  Writer w;
  write_gbdt_classifier_payload(w, model);
  return finalize(ModelKind::kGbdtClassifier, w.view());
}

std::string save_bytes(const ml::RandomForestRegressor& model) {
  Writer w;
  write_forest_regressor_payload(w, model);
  return finalize(ModelKind::kForestRegressor, w.view());
}

std::string save_bytes(const ml::RandomForestClassifier& model) {
  Writer w;
  write_forest_classifier_payload(w, model);
  return finalize(ModelKind::kForestClassifier, w.view());
}

std::string save_bytes(const core::Lumos5G& model) {
  Writer w;
  write_lumos5g_payload(w, model);
  return finalize(ModelKind::kLumos5G, w.view());
}

std::string save_bytes(const nn::Seq2Seq& model) {
  Writer w;
  write_seq2seq_payload(w, model);
  return finalize(ModelKind::kSeq2Seq, w.view());
}

Expected<ml::GbdtRegressor> load_gbdt_regressor(std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kGbdtRegressor);
  if (!payload) return payload.error();
  Reader r(*payload);
  ml::GbdtRegressor model;
  if (!read_gbdt_regressor_payload(r, model) || !r.done()) {
    return parse_error("malformed gbdt_regressor payload");
  }
  return model;
}

Expected<ml::GbdtClassifier> load_gbdt_classifier(std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kGbdtClassifier);
  if (!payload) return payload.error();
  Reader r(*payload);
  ml::GbdtClassifier model;
  if (!read_gbdt_classifier_payload(r, model) || !r.done()) {
    return parse_error("malformed gbdt_classifier payload");
  }
  return model;
}

Expected<ml::RandomForestRegressor> load_forest_regressor(
    std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kForestRegressor);
  if (!payload) return payload.error();
  Reader r(*payload);
  ml::RandomForestRegressor model;
  if (!read_forest_regressor_payload(r, model) || !r.done()) {
    return parse_error("malformed forest_regressor payload");
  }
  return model;
}

Expected<ml::RandomForestClassifier> load_forest_classifier(
    std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kForestClassifier);
  if (!payload) return payload.error();
  Reader r(*payload);
  ml::RandomForestClassifier model;
  if (!read_forest_classifier_payload(r, model) || !r.done()) {
    return parse_error("malformed forest_classifier payload");
  }
  return model;
}

Expected<core::Lumos5G> load_lumos5g(std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kLumos5G);
  if (!payload) return payload.error();
  Reader r(*payload);
  core::Lumos5GConfig cfg;
  cfg.feature_spec = read_spec(r);
  cfg.features = read_feature_config(r);
  cfg.gbdt = read_gbdt_config(r);
  cfg.fallback = read_fallback_config(r);
  if (!r.ok()) return parse_error("malformed lumos5g config block");
  core::Lumos5G model(cfg);
  const std::size_t n_tiers = r.count(1);
  // The tier chain is derived deterministically from the config, so the
  // stored tier count must match what the rebuilt facade derived.
  if (!r.ok() || n_tiers != model.tier_specs().size()) {
    return parse_error("stored tier count disagrees with the tier chain "
                       "derived from the stored config");
  }
  for (std::size_t i = 0; i < n_tiers; ++i) {
    const bool tier_trained = r.boolean();
    if (!tier_trained) continue;
    ml::GbdtRegressor reg;
    ml::GbdtClassifier cls;
    if (!read_gbdt_regressor_payload(r, reg) ||
        !read_gbdt_classifier_payload(r, cls)) {
      return parse_error("malformed models for tier " + std::to_string(i));
    }
    // Serving hands each tier a feature row exactly as wide as its spec
    // derives; a model claiming more features could index past that row.
    const std::size_t width =
        data::feature_width(model.tier_specs()[i], cfg.features);
    if (reg.n_features() != width || cls.n_features() != width) {
      return parse_error("tier " + std::to_string(i) +
                         " models disagree with the tier's feature width");
    }
    model.restore_tier(i, std::move(reg), std::move(cls));
  }
  if (!r.done()) return parse_error("malformed lumos5g payload");
  return model;
}

Expected<nn::Seq2Seq> load_seq2seq(std::string_view bytes) {
  const auto payload = check_envelope(bytes, ModelKind::kSeq2Seq);
  if (!payload) return payload.error();
  Reader r(*payload);
  return read_seq2seq_payload(r);
}

Expected<ModelKind> peek_kind(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Error{ErrorCode::kTruncated,
                 "model artifact shorter than its fixed header"};
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error{ErrorCode::kBadMagic,
                 "not a Lumos5G model artifact (magic != \"L5GM\")"};
  }
  Reader header(bytes.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    return Error{ErrorCode::kVersionMismatch,
                 "model artifact is format v" + std::to_string(version) +
                     "; this build reads exactly v" +
                     std::to_string(kFormatVersion)};
  }
  const std::uint8_t kind = header.u8();
  if (kind > kMaxKindTag) {
    return parse_error("unknown model kind tag " + std::to_string(kind));
  }
  return static_cast<ModelKind>(kind);
}

Expected<void> write_artifact(const std::filesystem::path& path,
                              const std::string& bytes) {
  // Each writer gets its own temp name: two threads saving to the same
  // destination must never interleave bytes in a shared ".tmp" file. The
  // final rename is atomic, so concurrent writers race to whole artifacts,
  // not to torn ones.
  static std::atomic<std::uint64_t> temp_serial{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." +
      std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
  const auto fail = [&tmp](std::string message) -> Expected<void> {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);  // never leave a temp behind
    return Error{ErrorCode::kIoError, std::move(message)};
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return fail("cannot open " + tmp.string() + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return fail("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return fail("cannot rename " + tmp.string() + " to " + path.string() +
                ": " + ec.message());
  }
  return {};
}

Expected<std::string> read_artifact(const std::filesystem::path& path) {
  // A directory opens as a stream whose end offset is meaningless, so only
  // regular files are sized and read.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Error{ErrorCode::kIoError,
                 "cannot open " + path.string() + ": not a regular file"};
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Error{ErrorCode::kIoError, "cannot open " + path.string()};
  }
  // One sized read of the stream actually opened — its end offset, then a
  // single bulk copy — so a concurrent rename cannot pair one file's size
  // with another's bytes.
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) {
    return Error{ErrorCode::kIoError, "cannot size " + path.string()};
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    return Error{ErrorCode::kIoError,
                 "short read on " + path.string() + ": got " +
                     std::to_string(in.gcount()) + " of " +
                     std::to_string(size) + " bytes"};
  }
  return bytes;
}

}  // namespace lumos::serve
