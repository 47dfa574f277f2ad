#include "serve/server.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "serve/model_io.h"

namespace lumos::serve {

Server::Server(Predictor predictor, ServerConfig cfg, Clock& clock)
    : cfg_(std::move(cfg)), clock_(&clock), predictor_(std::move(predictor)) {
  // Normalize the config so every depth -> behaviour mapping below is
  // total and monotone even for adversarial values.
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  cfg_.max_batch = std::max<std::size_t>(1, cfg_.max_batch);
  cfg_.max_sessions = std::max<std::size_t>(1, cfg_.max_sessions);
  cfg_.session_capacity = std::max<std::size_t>(1, cfg_.session_capacity);
  cfg_.reload_max_attempts = std::max<std::size_t>(1, cfg_.reload_max_attempts);
  cfg_.shed_watermark = std::clamp(cfg_.shed_watermark, 0.0, 1.0);
  std::sort(cfg_.degrade_watermarks.begin(), cfg_.degrade_watermarks.end());
  stats_.served_by_tier.assign(predictor_.tier_specs().size() + 1, 0);
  shed_threshold_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg_.shed_watermark *
                                  static_cast<double>(cfg_.queue_capacity)));

  // Every buffer the serving path touches is allocated here, once: the
  // per-shard admission rings and the poll() arenas. After construction,
  // submit() and poll() never allocate (enforced by the lumos_lint
  // reachability pass and tests/test_alloc.cpp).
  n_shards_ = cfg_.num_shards != 0 ? cfg_.num_shards
                                   : ThreadPool::global().threads();
  n_shards_ = std::max<std::size_t>(1, n_shards_);
  cfg_.num_shards = n_shards_;
  shards_ = std::make_unique<Shard[]>(n_shards_);
  for (std::size_t s = 0; s < n_shards_; ++s) {
    shards_[s].ring_.resize(cfg_.queue_capacity);
  }
  batch_arena_.resize(cfg_.max_batch);
  window_arena_.resize(cfg_.max_batch * cfg_.session_capacity);
  span_arena_.resize(cfg_.max_batch);
  slot_arena_.resize(cfg_.max_batch);
  result_arena_.assign(
      cfg_.max_batch,
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  scratch_.reserve(cfg_.max_batch, predictor_.max_width());
}

Expected<std::uint64_t> Server::submit(const Request& req) {
  const std::uint64_t now = clock_->now_ms();
  if (shutting_down_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    // Static messages: admission never formats. The typed code carries
    // the decision; depths and watermarks are visible via stats().
    return Error{ErrorCode::kShuttingDown, "draining"};
  }
  // Shed at the watermark, and unconditionally at the hard capacity
  // bound. The global depth is a lock-free counter: reserve a slot first,
  // give it back if the pre-increment depth was already at the threshold —
  // the same decision the single-queue server took under its lock.
  const std::size_t prev =
      total_count_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= shed_threshold_ || prev >= cfg_.queue_capacity) {
    total_count_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Error{ErrorCode::kOverloaded, "over watermark"};
  }
  // Admission is the one sanctioned lock on the hot path, and it is now
  // per-shard: the critical section is a bounded handful of scalar writes
  // into the shard's preallocated ring — no allocation, no I/O, no model
  // work ever happens under a shard mutex. The ticket is drawn inside the
  // lock so every shard ring stays ticket-ascending (what poll()'s k-way
  // merge relies on).
  Shard& shard = shards_[shard_of(req.ue_id)];
  const std::scoped_lock lock(shard.mu_);  // lumos-lint: allow(hot-path-lock) bounded admission critical section
  Pending& p = shard.ring_[(shard.head_ + shard.count_) % cfg_.queue_capacity];
  p.ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  p.ue_id = req.ue_id;
  p.enqueued_ms = now;
  const std::uint64_t budget =
      req.deadline_ms != 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  p.expiry_ms = budget != 0 ? now + budget : 0;
  p.sample = req.sample;
  ++shard.count_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth = prev + 1;
  std::size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (peak < depth && !peak_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  return p.ticket;
}

void Server::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_release);
}

std::size_t Server::queue_depth() const {
  return total_count_.load(std::memory_order_acquire);
}

bool Server::shutting_down() const {
  return shutting_down_.load(std::memory_order_acquire);
}

std::size_t Server::min_tier_for_depth(std::size_t depth) const noexcept {
  const double occupancy = static_cast<double>(depth) /
                           static_cast<double>(cfg_.queue_capacity);
  std::size_t tier = 0;
  // Watermarks are sorted ascending (constructor), so the count of crossed
  // watermarks — and with it the tier floor — is monotone in depth.
  for (const double w : cfg_.degrade_watermarks) {
    if (occupancy >= w) ++tier;
  }
  return std::min(tier, predictor_.tier_specs().size());
}

Server::SessionEntry& Server::touch_session(std::uint64_t ue,
                                            std::uint64_t now) {
  auto it = sessions_.find(ue);
  if (it != sessions_.end()) {
    recency_.splice(recency_.end(), recency_, it->second.recency);
  } else if (sessions_.size() < cfg_.max_sessions) {
    // First contact below capacity: the one amortized allocation on the
    // serving path (a map node, a list node and the session's reserved
    // window). Steady state and churn at capacity allocate nothing.
    recency_.push_back(ue);  // lumos-lint: allow(hot-path-alloc) below-capacity first contact, amortized
    it = sessions_.emplace(ue, SessionEntry{Session(cfg_.session_capacity),  // lumos-lint: allow(hot-path-alloc) below-capacity first contact, amortized
                                            now, std::prev(recency_.end())}).first;
  } else {
    // At capacity the least recently used UE is evicted and the newcomer
    // takes over its map node, window storage and list node. The LRU
    // capacity is global, so the victim never depends on num_shards. A
    // victim served earlier in this batch is safe to reuse: poll() has
    // already copied its window into window_arena_.
    auto node = sessions_.extract(recency_.front());
    node.key() = ue;
    node.mapped().session.clear();
    recency_.front() = ue;
    recency_.splice(recency_.end(), recency_, recency_.begin());
    it = sessions_.insert(std::move(node)).position;  // lumos-lint: allow(hot-path-alloc) re-inserts the extracted node handle, never allocates
    ++stats_.evicted_lru;
  }
  it->second.last_used_ms = now;
  return it->second;
}

void Server::evict_expired_sessions(std::uint64_t now) {
  if (cfg_.session_ttl_ms == 0) return;
  // The Clock never decreases (common/clock.h) and every touch moves its
  // UE to the back, so recency order is also last_used_ms order: pop
  // expired sessions off the front and stop at the first live one.
  while (!recency_.empty()) {
    const auto it = sessions_.find(recency_.front());
    if (it->second.last_used_ms + cfg_.session_ttl_ms >= now) break;
    sessions_.erase(it);
    recency_.pop_front();
    ++stats_.evicted_ttl;
  }
}

std::size_t Server::poll(std::span<Response> out) {
  // 1. Drain up to min(max_batch, out.size()) requests into the merge
  //    arena, reassembling GLOBAL ticket order from the shard rings with
  //    a k-way smallest-head-ticket merge (each ring is ticket-ascending,
  //    so the merged batch is exactly the oldest n admitted requests —
  //    the same batch, in the same order, the single-queue server
  //    drained). The tier floor is derived from the depth at the start of
  //    the step — the batch about to be served is part of the pressure it
  //    was admitted under. The critical section is bounded scalar copies
  //    out of preallocated rings, nothing else; shard mutexes are taken
  //    in ascending index order (the one multi-lock site in the tree).
  std::size_t n = 0;
  std::size_t depth_at_start = 0;
  for (std::size_t s = 0; s < n_shards_; ++s) shards_[s].mu_.lock();  // lumos-lint: allow(hot-path-lock) bounded drain critical section
  for (std::size_t s = 0; s < n_shards_; ++s) {
    depth_at_start += shards_[s].count_;
  }
  n = std::min({cfg_.max_batch, depth_at_start, out.size()});
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = n_shards_;
    std::uint64_t best_ticket = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < n_shards_; ++s) {
      const Shard& sh = shards_[s];
      if (sh.count_ != 0 && sh.ring_[sh.head_].ticket < best_ticket) {
        best_ticket = sh.ring_[sh.head_].ticket;
        best = s;
      }
    }
    Shard& sh = shards_[best];
    batch_arena_[i] = sh.ring_[sh.head_];
    sh.head_ = (sh.head_ + 1) % cfg_.queue_capacity;
    --sh.count_;
  }
  total_count_.fetch_sub(n, std::memory_order_acq_rel);
  for (std::size_t s = 0; s < n_shards_; ++s) shards_[s].mu_.unlock();

  const std::size_t min_tier = min_tier_for_depth(depth_at_start);
  const std::uint64_t now = clock_->now_ms();

  // 2. Expire overdue requests without touching sessions or the model —
  //    an expired answer is pure waste, so it must cost nothing. Live
  //    requests update their session and snapshot its window into the
  //    contiguous window arena, walking the batch in admission order, so
  //    a UE submitting twice in one batch sees its first observation but
  //    not its second. The snapshot also lets a later newcomer in the
  //    same batch take over an evicted session's window storage.
  std::size_t n_windows = 0;
  std::size_t arena_used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = batch_arena_[i];
    Response& r = out[i];
    r.ticket = p.ticket;
    r.ue_id = p.ue_id;
    r.enqueued_ms = p.enqueued_ms;
    r.served_ms = now;
    r.min_tier = min_tier;
    if (p.expiry_ms != 0 && now > p.expiry_ms) {
      r.result = Error{ErrorCode::kDeadlineExceeded, "past deadline"};
      ++stats_.deadline_expired;
      continue;
    }
    SessionEntry& entry = touch_session(p.ue_id, now);
    entry.session.observe(p.sample);
    const auto w = entry.session.window();
    // arena_used never exceeds max_batch * session_capacity (the arena's
    // constructed size): at most max_batch windows of at most
    // session_capacity records each.
    std::copy(w.begin(), w.end(), window_arena_.begin() + arena_used);
    span_arena_[n_windows] = {window_arena_.data() + arena_used, w.size()};
    slot_arena_[n_windows] = i;
    arena_used += w.size();
    ++n_windows;
  }

  // 3. One batched columnar walk over every live window: feature rows are
  //    packed tier by tier into the preallocated scratch and evaluated
  //    level-synchronously over contiguous columns, forking over 64-row
  //    blocks when the batch spans two or more. Each answer is
  //    bit-identical to Predictor::predict on its own window (enforced by
  //    tests/test_columnar.cpp), so shard count never shows in it.
  predictor_.predict_spans_columnar({span_arena_.data(), n_windows},
                                    {result_arena_.data(), n_windows},
                                    scratch_, min_tier);

  //    Tally and hand each result to its out[] slot.
  for (std::size_t j = 0; j < n_windows; ++j) {
    Expected<core::Prediction>& result = result_arena_[j];
    if (result.has_value()) {
      const auto tier = static_cast<std::size_t>(result->tier);
      if (tier < stats_.served_by_tier.size()) {
        ++stats_.served_by_tier[tier];
      }
      ++stats_.served;
    } else {
      ++stats_.failed;
    }
    out[slot_arena_[j]].result = std::move(result);
  }

  // 4. Idle-session TTL sweep against the same `now` the batch saw.
  evict_expired_sessions(now);
  return n;
}

std::vector<Response> Server::step() {
  std::vector<Response> out(cfg_.max_batch);
  const std::size_t n = poll(out);
  out.resize(n);
  return out;
}

std::vector<Response> Server::drain() {
  std::vector<Response> all;
  while (queue_depth() > 0) {
    auto batch = step();
    all.insert(all.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  return all;
}

Expected<void> Server::reload_bytes(std::string_view bytes) {
  ++stats_.reload_attempts;
  // Validate fully on the side: envelope hash, payload parse, tier-chain
  // compile. The serving predictor_ is untouched until the very last move,
  // so a request between steps can never observe a half-loaded model.
  auto model = load_lumos5g(bytes);
  if (!model) {
    ++stats_.reloads_failed;
    return Error{model.error().code,
                 "reload rolled back (still serving generation " +
                     std::to_string(generation_) + "): " +
                     model.error().message};
  }
  auto compiled = Predictor::compile(*model);
  if (!compiled) {
    ++stats_.reloads_failed;
    return Error{compiled.error().code,
                 "reload rolled back (still serving generation " +
                     std::to_string(generation_) + "): " +
                     compiled.error().message};
  }
  if (compiled->tier_specs().size() != predictor_.tier_specs().size()) {
    // A different tier chain re-shapes the per-tier stats; keep the
    // counters coherent across the swap.
    stats_.served_by_tier.assign(compiled->tier_specs().size() + 1, 0);
  }
  predictor_ = std::move(*compiled);
  // The new model's widest tier may differ; re-reserve the columnar
  // scratch here (cold path) so poll() stays allocation-free.
  scratch_.reserve(cfg_.max_batch, predictor_.max_width());
  ++generation_;
  ++stats_.reloads_ok;
  return {};
}

Expected<void> Server::reload(const std::filesystem::path& path) {
  std::uint64_t backoff = std::max<std::uint64_t>(1, cfg_.reload_backoff_ms);
  Error last{ErrorCode::kIoError, "reload never attempted"};
  for (std::size_t attempt = 0; attempt < cfg_.reload_max_attempts; ++attempt) {
    if (attempt > 0) {
      clock_->sleep_ms(backoff);
      backoff *= 2;
    }
    auto bytes = read_artifact(path);
    if (!bytes) {
      // Transient by assumption (file momentarily absent mid-publish, EIO
      // blip): worth the bounded backoff-retry loop.
      ++stats_.reload_attempts;
      last = bytes.error();
      continue;
    }
    auto swapped = reload_bytes(*bytes);
    if (swapped) return swapped;
    last = swapped.error();
    if (last.code != ErrorCode::kIoError) {
      // Validation failure: the artifact itself is bad, retrying the same
      // bytes cannot help. reload_bytes already rolled back.
      return last;
    }
  }
  ++stats_.reloads_failed;
  return Error{last.code,
               "reload gave up after " +
                   std::to_string(cfg_.reload_max_attempts) +
                   " attempts (still serving generation " +
                   std::to_string(generation_) + "): " + last.message};
}

}  // namespace lumos::serve
