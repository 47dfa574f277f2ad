// serve::Server — the resilient long-running loop over serve::Predictor.
//
// The Predictor answers one call at a time and trusts its caller; a real
// deployment faces bursty crowdsourced traffic, per-request latency
// budgets, unbounded per-UE state, and model artifacts that get republished
// (and occasionally corrupted) underneath it. The Server adds exactly that
// missing operational layer:
//
//   * Bounded MPSC admission queue, sharded by UE. Any number of producer
//     threads call submit(); one consumer drives step(). Requests route to
//     one of `num_shards` shards by a stable hash of ue_id — producers on
//     different shards contend only on a lock-free global depth counter —
//     and poll() merges the shard rings back into global ticket order, so
//     sharding is invisible in every output. Admission is controlled by a
//     shed watermark: at or above `shed_watermark` occupancy the request is
//     rejected with a typed kOverloaded error instead of growing the queue
//     (and a hard cap at queue_capacity backstops a watermark of 1.0).
//     Shards partition admission only: poll() predicts the whole merged
//     batch with one columnar call, which forks over 64-row blocks when
//     the batch spans two or more (see DESIGN §12).
//
//   * Per-request deadlines. Each accepted request carries an absolute
//     expiry (relative budget stamped against the injected Clock at
//     admission); a request still queued past its expiry is answered with
//     kDeadlineExceeded and costs no model work — under backlog the server
//     spends its cycles only on answers somebody still wants.
//
//   * Graceful degradation before shedding. Queue occupancy maps through
//     `degrade_watermarks` to a minimum fallback tier for the batch
//     (T+M+C -> ... -> harmonic): pressure first buys cheaper answers, and
//     only past the shed watermark buys rejections. The tier that actually
//     answered is reported honestly on Prediction::tier. The mapping is
//     monotone in depth by construction (watermarks are kept sorted).
//
//   * Session lifecycle. Per-UE rolling windows live in one server-wide
//     map, ordered by one recency list. They are created on first use and
//     evicted two ways: TTL (idle longer than session_ttl_ms) and capacity
//     (LRU beyond max_sessions; the newcomer reuses the victim's storage,
//     so churn allocates nothing). An evicted UE's next request
//     transparently rebuilds its session — it may answer from a lower tier
//     until the window refills, which is the fallback chain working as
//     designed, never an error.
//
//   * Hot model reload with rollback. reload() fully validates the new
//     artifact (envelope hash, payload parse, compile) on the side and
//     atomically swaps the serving snapshot only on success. Transient
//     kIoError is retried with bounded exponential backoff; validation
//     failures (kCorrupt / kTruncated / kVersionMismatch / kBadMagic /
//     kParseError) roll back immediately: the old model keeps serving and
//     the error is reported to the operator. No request ever observes a
//     partially-loaded model.
//
// All time flows through an injected lumos::Clock, so tests and the chaos
// soak drive a ManualClock (bit-reproducible runs, scripted clock jumps)
// while production wires a SteadyClock. The consumer side is poll-driven
// (step()/drain()) rather than owning a thread: the repo bans raw threads
// outside the pool, and a pumped loop is what makes the soak deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "data/sample.h"
#include "serve/predictor.h"

namespace lumos::serve {

struct ServerConfig {
  // --- admission ---
  std::size_t queue_capacity = 256;  ///< hard bound on queued requests
  /// Occupancy fraction at or above which submit() sheds with kOverloaded.
  /// 1.0 = shed only when full.
  double shed_watermark = 0.9;

  // --- degradation ---
  /// Ascending occupancy fractions; crossing the i-th raises the minimum
  /// served fallback tier to i+1 for the next batch (see
  /// Server::min_tier_for_depth). Empty = never degrade.
  std::vector<double> degrade_watermarks = {0.50, 0.70, 0.85};

  // --- batching ---
  std::size_t max_batch = 64;  ///< requests drained per step()

  // --- deadlines ---
  /// Default per-request budget (ms) when Request::deadline_ms is 0;
  /// 0 = requests never expire.
  std::uint64_t default_deadline_ms = 0;

  // --- session lifecycle ---
  std::size_t max_sessions = 256;      ///< LRU capacity for per-UE windows
  std::uint64_t session_ttl_ms = 0;    ///< idle eviction; 0 = no TTL
  std::size_t session_capacity = 32;   ///< rolling window per session

  // --- hot reload ---
  std::size_t reload_max_attempts = 3;   ///< tries per reload() call
  std::uint64_t reload_backoff_ms = 10;  ///< initial backoff, doubles per retry

  // --- sharding ---
  /// Number of admission shards (requests are routed by a stable hash of
  /// ue_id). 0 = thread-pool size at construction. Sharding never
  /// changes results — poll() merges shard queues back into global ticket
  /// order, so responses, tiers, and eviction effects are bit-identical at
  /// any shard count; it only sets how admission is partitioned
  /// (producers on different shards take different locks).
  std::size_t num_shards = 0;
};

/// One prediction request: UE `ue_id` observed `sample` this second and
/// wants the next-slot throughput. `deadline_ms` is a relative budget
/// (0 = use the server default).
struct Request {
  std::uint64_t ue_id = 0;
  data::SampleRecord sample;
  std::uint64_t deadline_ms = 0;
};

/// The answer (or typed failure) for one admitted request.
struct Response {
  std::uint64_t ticket = 0;       ///< admission ticket from submit()
  std::uint64_t ue_id = 0;
  std::uint64_t enqueued_ms = 0;  ///< Clock time at admission
  std::uint64_t served_ms = 0;    ///< Clock time at the serving step
  std::size_t min_tier = 0;       ///< degradation floor applied to the batch
  Expected<core::Prediction> result;

  Response() : result(Error{ErrorCode::kWindowUnusable, ""}) {}
};

/// Monotone counters exposed for tests, benches, and operators. Updated
/// only by the consumer side (step()/reload()) except submitted/shed/
/// rejected_shutdown/peak_depth, which the admission path maintains as
/// lock-free atomics (stats() snapshots them into this plain view).
struct ServerStats {
  std::uint64_t submitted = 0;          ///< accepted by submit()
  std::uint64_t shed = 0;               ///< rejected kOverloaded
  std::uint64_t rejected_shutdown = 0;  ///< rejected kShuttingDown
  std::uint64_t served = 0;             ///< responses carrying a prediction
  std::uint64_t failed = 0;             ///< responses carrying a model error
  std::uint64_t deadline_expired = 0;   ///< responses kDeadlineExceeded
  std::uint64_t evicted_ttl = 0;
  std::uint64_t evicted_lru = 0;
  std::uint64_t reload_attempts = 0;
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;  ///< reload() calls that rolled back
  std::size_t peak_depth = 0;        ///< max queue depth ever observed
  /// served_by_tier[t] counts answers from tier t; the last slot is the
  /// harmonic tail.
  std::vector<std::uint64_t> served_by_tier;
};

class Server {
 public:
  /// The clock is borrowed and must outlive the server.
  Server(Predictor predictor, ServerConfig cfg, Clock& clock);

  // --- producer side (thread-safe) -----------------------------------------

  /// Admits a request. Returns its ticket, or kOverloaded (above the shed
  /// watermark / queue full) or kShuttingDown (after begin_shutdown()).
  [[nodiscard]] Expected<std::uint64_t> submit(const Request& req);

  /// Stops admitting; queued requests still drain through step().
  void begin_shutdown();

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] bool shutting_down() const;

  // --- consumer side (single-threaded) -------------------------------------

  /// Allocation-free serving step: drains up to min(max_batch, out.size())
  /// requests into caller-provided storage — expires overdue ones, applies
  /// the depth-derived tier floor, feeds sessions, and predicts every live
  /// window with one Predictor::predict_spans_columnar call over the
  /// server's preallocated arenas. Returns the number of responses written
  /// (admission order). Also runs TTL eviction against the current clock.
  /// This is the consumer-side hot-path root in the lint reachability
  /// proof; step() is its allocating wrapper.
  [[nodiscard]] std::size_t poll(std::span<Response> out);

  /// Drains up to max_batch requests: expires overdue ones, applies the
  /// depth-derived tier floor, feeds sessions, and batch-predicts. Returns
  /// responses in admission order. Also runs TTL
  /// eviction against the current clock. Allocating wrapper over poll().
  std::vector<Response> step();

  /// Pumps step() until the queue is empty; returns all responses.
  std::vector<Response> drain();

  /// The documented occupancy -> minimum-tier mapping (monotone in depth).
  [[nodiscard]] std::size_t min_tier_for_depth(std::size_t depth) const noexcept;

  // --- hot reload (consumer side) ------------------------------------------

  /// Reads, validates, compiles, and atomically swaps in the artifact at
  /// `path`. kIoError retries with exponential backoff (clock.sleep_ms);
  /// validation failures roll back immediately. On failure the previous
  /// model keeps serving and model_generation() is unchanged.
  [[nodiscard]] Expected<void> reload(const std::filesystem::path& path);

  /// Same swap semantics for an in-memory artifact (no retry loop — there
  /// is no transient failure mode for bytes already in hand).
  [[nodiscard]] Expected<void> reload_bytes(std::string_view bytes);

  /// Increments on every successful reload; 1 for the construction model.
  [[nodiscard]] std::uint64_t model_generation() const noexcept {
    return generation_;
  }

  // --- introspection -------------------------------------------------------

  const Predictor& predictor() const noexcept { return predictor_; }
  const ServerConfig& config() const noexcept { return cfg_; }
  /// Snapshot view: folds the admission-side atomics into the plain
  /// counter struct. Call from a quiescent point for exact totals.
  const ServerStats& stats() const noexcept {
    stats_.submitted = submitted_.load(std::memory_order_relaxed);
    stats_.shed = shed_.load(std::memory_order_relaxed);
    stats_.rejected_shutdown =
        rejected_shutdown_.load(std::memory_order_relaxed);
    stats_.peak_depth = peak_depth_.load(std::memory_order_relaxed);
    return stats_;
  }
  [[nodiscard]] std::size_t n_sessions() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] std::size_t n_shards() const noexcept { return n_shards_; }

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    std::uint64_t ue_id = 0;
    std::uint64_t enqueued_ms = 0;
    std::uint64_t expiry_ms = 0;  ///< absolute; 0 = never expires
    data::SampleRecord sample;
  };

  struct SessionEntry {
    Session session;
    std::uint64_t last_used_ms = 0;  ///< for TTL eviction
    std::list<std::uint64_t>::iterator recency;  ///< this UE's recency_ node
  };

  /// One admission shard. Padded to a cache line so one shard's queue
  /// counters and mutex never false-share with a neighbour's while
  /// producers on different shards admit concurrently. Each shard owns a
  /// full-capacity ring: any single shard may momentarily hold the whole
  /// admitted load.
  struct alignas(64) Shard {
    mutable std::mutex mu_;  ///< guards ring_/head_/count_
    std::vector<Pending> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Stable ue -> shard routing (splitmix64 finalizer): platform- and
  /// run-independent, so shard membership — and therefore every digest —
  /// depends only on (ue_id, num_shards).
  [[nodiscard]] std::size_t shard_of(std::uint64_t ue) const noexcept {
    std::uint64_t x = ue + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % n_shards_);
  }

  /// Returns the session for `ue` and marks it most recently used,
  /// creating it if needed; at max_sessions the newcomer takes over the
  /// least recently used session's storage.
  SessionEntry& touch_session(std::uint64_t ue, std::uint64_t now);
  void evict_expired_sessions(std::uint64_t now);

  ServerConfig cfg_;
  Clock* clock_;
  Predictor predictor_;

  std::size_t n_shards_ = 1;
  std::unique_ptr<Shard[]> shards_;

  // Admission-side shared state: lock-free so producers on different
  // shards only contend on their own shard's mutex.
  std::atomic<std::size_t> total_count_{0};
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::size_t> peak_depth_{0};
  /// Precomputed max(1, shed_watermark * queue_capacity).
  std::size_t shed_threshold_ = 1;

  // Consumer-side state: only touched from poll()/reload().
  std::map<std::uint64_t, SessionEntry> sessions_;
  std::list<std::uint64_t> recency_;  ///< UEs, least recently used first
  std::uint64_t generation_ = 1;
  mutable ServerStats stats_;

  // poll() arenas, each sized once at construction for max_batch requests.
  std::vector<Pending> batch_arena_;  ///< merged global-ticket-order batch
  std::vector<data::SampleRecord> window_arena_;  ///< live windows, packed
  std::vector<std::span<const data::SampleRecord>> span_arena_;
  std::vector<std::size_t> slot_arena_;  ///< out[] index per window
  std::vector<Expected<core::Prediction>> result_arena_;
  /// Columnar working set for predict_spans_columnar: reserved at
  /// construction and after every successful reload (the new model may
  /// be wider), never on the serving path.
  PredictScratch scratch_;
};

}  // namespace lumos::serve
