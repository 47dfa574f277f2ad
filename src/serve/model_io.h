// Versioned binary model serialization — the artifact side of the paper's
// consumer story (§2.3, Fig. 4): a per-area predictor is trained once,
// saved to a file, shipped to devices, and reloaded for online queries.
//
// Format v2 (every field little-endian, independent of host endianness
// and padding):
//
//   offset 0   u32  magic "L5GM"
//   offset 4   u32  format version (kFormatVersion)
//   offset 8   u8   model kind (ModelKind)
//   offset 9   u64  total artifact size in bytes (header + payload + hash)
//   offset 17  ...  kind-specific payload
//   last 8     u64  XXH64 (seed 0) of every byte before it (envelope_hash)
//
// Writers compose fields byte by byte; readers load a whole word at a time
// (memcpy) on little-endian hosts and compose bytes on big-endian ones, so
// the bytes on disk are the same either way. v1 differed only in its hash
// (byte-serial FNV-1a) and is rejected with kVersionMismatch.
//
// Guarantees:
//   * Deterministic: saving the same fitted model twice yields identical
//     bytes (no timestamps, no addresses, no locale).
//   * Round-trip exact: every double is stored as its IEEE-754 bit
//     pattern, so a loaded model predicts bit-identically to the saved
//     one.
//   * Fail-typed, never UB: a wrong magic, incompatible version, short
//     file, or flipped bit yields Expected<T> carrying kBadMagic /
//     kVersionMismatch / kTruncated / kCorrupt; structural impossibilities
//     that survive the hash (a hand-crafted file) yield kParseError.
//
// Versioning policy: any change to the byte layout bumps kFormatVersion.
// Readers accept exactly the version they were built for — a serving
// fleet upgrades its binary before its model artifacts, never the other
// way around. Old-version artifacts are rejected with kVersionMismatch
// (carrying both versions in the message) rather than best-effort parsed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/error.h"
#include "core/lumos5g.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "nn/seq2seq.h"

namespace lumos::serve {

/// First four artifact bytes, in file order.
inline constexpr char kMagic[4] = {'L', '5', 'G', 'M'};

/// Current (and only accepted) format version.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Kind tag stored in the artifact header; a loader for kind X rejects an
/// artifact of kind Y with kParseError.
enum class ModelKind : std::uint8_t {
  kGbdtRegressor = 0,
  kGbdtClassifier = 1,
  kForestRegressor = 2,
  kForestClassifier = 3,
  kLumos5G = 4,
  kSeq2Seq = 5,
};

/// Highest kind tag this build understands; anything above is rejected
/// with kParseError instead of being guessed at.
inline constexpr std::uint8_t kMaxKindTag =
    static_cast<std::uint8_t>(ModelKind::kSeq2Seq);

[[nodiscard]] const char* to_string(ModelKind k) noexcept;

/// The integrity hash stored in an artifact's last 8 bytes: XXH64 with
/// seed 0 over `bytes` (the public xxHash64 algorithm — word-at-a-time over
/// four independent lanes). An integrity check against bit rot and partial
/// writes, not an authenticity one. Exposed so tools and tests can reseal a
/// deliberately edited payload.
[[nodiscard]] std::uint64_t envelope_hash(std::string_view bytes) noexcept;

// --- byte-buffer API ------------------------------------------------------
// The in-memory half: save_bytes is pure and deterministic; the loaders
// parse a buffer without touching the filesystem. File I/O wraps these.

[[nodiscard]] std::string save_bytes(const ml::GbdtRegressor& model);
[[nodiscard]] std::string save_bytes(const ml::GbdtClassifier& model);
[[nodiscard]] std::string save_bytes(const ml::RandomForestRegressor& model);
[[nodiscard]] std::string save_bytes(const ml::RandomForestClassifier& model);
[[nodiscard]] std::string save_bytes(const core::Lumos5G& model);
[[nodiscard]] std::string save_bytes(const nn::Seq2Seq& model);

[[nodiscard]] Expected<ml::GbdtRegressor> load_gbdt_regressor(
    std::string_view bytes);
[[nodiscard]] Expected<ml::GbdtClassifier> load_gbdt_classifier(
    std::string_view bytes);
[[nodiscard]] Expected<ml::RandomForestRegressor> load_forest_regressor(
    std::string_view bytes);
[[nodiscard]] Expected<ml::RandomForestClassifier> load_forest_classifier(
    std::string_view bytes);
[[nodiscard]] Expected<core::Lumos5G> load_lumos5g(std::string_view bytes);
[[nodiscard]] Expected<nn::Seq2Seq> load_seq2seq(std::string_view bytes);

/// Kind recorded in an artifact's header, without parsing the payload.
/// Errors like the loaders on short/invalid headers.
[[nodiscard]] Expected<ModelKind> peek_kind(std::string_view bytes);

// --- file API -------------------------------------------------------------

/// Writes `bytes` atomically enough for a model store: to a sibling temp
/// file first, then renamed over `path`. Errors with kIoError.
[[nodiscard]] Expected<void> write_artifact(const std::filesystem::path& path,
                                            const std::string& bytes);

/// Reads a whole artifact file with one sized read. Errors with kIoError
/// when the file cannot be opened, sized, or read in full.
[[nodiscard]] Expected<std::string> read_artifact(
    const std::filesystem::path& path);

template <typename Model>
[[nodiscard]] Expected<void> save_model(const Model& model,
                                        const std::filesystem::path& path) {
  return write_artifact(path, save_bytes(model));
}

}  // namespace lumos::serve
