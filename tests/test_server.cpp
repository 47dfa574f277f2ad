// Tests for serve::Server — the resilient long-running serving loop.
// Covers admission control (watermark shed, hard cap, shutdown), deadline
// expiry, watermark-driven tier degradation, deterministic session
// eviction (LRU + TTL), hot reload with rollback, and concurrent producers
// against one polling consumer. The two load-bearing bit-identity
// invariants: a UE's predictions are unchanged by eviction of an
// *unrelated* session, and unchanged across a hot reload of an identical
// artifact. Both must hold at any LUMOS_THREADS (the suite runs
// pinned to 1 and 8 from CMake).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt.n_estimators = 40;
    cfg.gbdt.max_depth = 5;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

Predictor make_predictor() {
  auto compiled = Predictor::compile(facade());
  EXPECT_TRUE(compiled.has_value());
  return std::move(*compiled);
}

/// `n` consecutive full-context samples from one walk run.
std::vector<data::SampleRecord> run_samples(std::size_t run_idx, std::size_t n,
                                            std::size_t offset = 10) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  EXPECT_LT(run_idx, runs.size());
  const auto& run = runs[run_idx];
  EXPECT_LE(offset + n, run.size());
  std::vector<data::SampleRecord> out;
  out.reserve(n);
  for (std::size_t i = offset; i < offset + n; ++i) out.push_back(ds[run[i]]);
  return out;
}

/// Submits one request and serves it immediately (no queue pressure).
Response serve_one(Server& server, std::uint64_t ue,
                   const data::SampleRecord& sample) {
  const auto ticket = server.submit({ue, sample, 0});
  EXPECT_TRUE(ticket.has_value());
  auto out = server.step();
  EXPECT_EQ(out.size(), 1u);
  return std::move(out.front());
}

void expect_same_result(const Expected<core::Prediction>& a,
                        const Expected<core::Prediction>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) {
    EXPECT_EQ(a.error().code, b.error().code);
    return;
  }
  EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
  EXPECT_EQ(a->throughput_class, b->throughput_class);
  EXPECT_EQ(a->tier, b->tier);
  EXPECT_EQ(a->feature_group, b->feature_group);
}

// ---------- admission + basic serving ----------

TEST(Server, ServesLikeDirectPredictorBitwise) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const Predictor direct = make_predictor();
  Session shadow(ServerConfig{}.session_capacity);

  for (const auto& s : run_samples(0, 12)) {
    const Response r = serve_one(server, 1, s);
    shadow.observe(s);
    expect_same_result(r.result, direct.predict(shadow));
    clock.advance_ms(1000);
  }
  EXPECT_EQ(server.stats().submitted, 12u);
  EXPECT_EQ(server.stats().served + server.stats().failed, 12u);
}

TEST(Server, TicketsAreMonotone) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const auto samples = run_samples(0, 4);
  std::uint64_t prev = 0;
  for (const auto& s : samples) {
    const auto t = server.submit({1, s, 0});
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, prev);
    prev = *t;
  }
  EXPECT_EQ(server.drain().size(), samples.size());
}

TEST(Server, OverloadShedsAtWatermarkTyped) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 10;
  cfg.shed_watermark = 0.5;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 1);

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value()) << i;
  }
  const auto shed = server.submit({1, samples[0], 0});
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().submitted, 5u);
  EXPECT_EQ(server.stats().peak_depth, 5u);

  // Serving drains the queue; admission reopens below the watermark.
  server.drain();
  EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value());
}

TEST(Server, WatermarkOneShedsOnlyWhenFull) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 4;
  cfg.shed_watermark = 1.0;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value()) << i;
  }
  const auto full = server.submit({1, samples[0], 0});
  ASSERT_FALSE(full.has_value());
  EXPECT_EQ(full.error().code, ErrorCode::kOverloaded);
}

TEST(Server, ShutdownRejectsNewButDrainsQueued) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const auto samples = run_samples(0, 3);
  for (const auto& s : samples) {
    ASSERT_TRUE(server.submit({1, s, 0}).has_value());
  }
  server.begin_shutdown();
  EXPECT_TRUE(server.shutting_down());
  const auto rejected = server.submit({1, samples[0], 0});
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, ErrorCode::kShuttingDown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);

  const auto out = server.drain();
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(Server, BatchedSameUeMatchesSequentialBitwise) {
  // A UE submitting twice into one batch must see exactly the windows it
  // would have seen submitting one step at a time.
  const auto samples = run_samples(0, 10);
  ManualClock c1, c2;
  Server batched(make_predictor(), ServerConfig{}, c1);
  Server sequential(make_predictor(), ServerConfig{}, c2);

  std::vector<Response> seq_out;
  for (const auto& s : samples) {
    ASSERT_TRUE(batched.submit({7, s, 0}).has_value());
    seq_out.push_back(serve_one(sequential, 7, s));
  }
  const auto batch_out = batched.step();  // one batch, all ten requests
  ASSERT_EQ(batch_out.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_same_result(batch_out[i].result, seq_out[i].result);
  }
}

// ---------- deadlines ----------

TEST(Server, ExpiredRequestsAreTypedAndCostNoModelWork) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 100;
  Server server(make_predictor(), cfg, clock);
  for (const auto& s : run_samples(0, 3)) {
    ASSERT_TRUE(server.submit({1, s, 0}).has_value());
  }
  clock.advance_ms(200);  // all three now past their budget
  const auto out = server.step();
  ASSERT_EQ(out.size(), 3u);
  for (const auto& r : out) {
    ASSERT_FALSE(r.result.has_value());
    EXPECT_EQ(r.result.error().code, ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats().deadline_expired, 3u);
  EXPECT_EQ(server.stats().served, 0u);
  // No session was created for the expired UE: expiry costs nothing.
  EXPECT_EQ(server.n_sessions(), 0u);
}

TEST(Server, PerRequestDeadlineOverridesDefault) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 10'000;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 2);
  ASSERT_TRUE(server.submit({1, samples[0], 50}).has_value());   // tight
  ASSERT_TRUE(server.submit({2, samples[1], 0}).has_value());    // default
  clock.advance_ms(100);
  const auto out = server.step();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_FALSE(out[0].result.has_value());
  EXPECT_EQ(out[0].result.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(out[1].result.has_value() ||
              out[1].result.error().code != ErrorCode::kDeadlineExceeded);
}

TEST(Server, ZeroDeadlineNeverExpires) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);  // default 0
  ASSERT_TRUE(server.submit({1, run_samples(0, 1)[0], 0}).has_value());
  clock.advance_ms(1'000'000'000);
  const auto out = server.step();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].result.has_value() ||
              out[0].result.error().code != ErrorCode::kDeadlineExceeded);
}

// ---------- watermark degradation ----------

TEST(Server, MinTierForDepthIsMonotone) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 100;
  cfg.degrade_watermarks = {0.85, 0.50, 0.70};  // deliberately unsorted
  Server server(make_predictor(), cfg, clock);

  EXPECT_EQ(server.min_tier_for_depth(0), 0u);
  std::size_t prev = 0;
  for (std::size_t d = 0; d <= cfg.queue_capacity; ++d) {
    const std::size_t t = server.min_tier_for_depth(d);
    EXPECT_GE(t, prev) << "depth " << d;
    EXPECT_LE(t, server.predictor().tier_specs().size());
    prev = t;
  }
  EXPECT_EQ(server.min_tier_for_depth(49), 0u);
  EXPECT_EQ(server.min_tier_for_depth(50), 1u);
  EXPECT_EQ(server.min_tier_for_depth(70), 2u);
  EXPECT_EQ(server.min_tier_for_depth(85),
            std::min<std::size_t>(3, server.predictor().tier_specs().size()));
}

TEST(Server, PressureDegradesServedTierHonestly) {
  const auto warm = run_samples(0, 8);
  const auto extra = run_samples(0, 4, 18);

  // Control: no pressure — full-context window answers from tier 0.
  ManualClock c1;
  ServerConfig cfg;
  cfg.queue_capacity = 8;
  cfg.degrade_watermarks = {0.25};
  cfg.shed_watermark = 1.0;
  Server control(make_predictor(), cfg, c1);
  for (const auto& s : warm) serve_one(control, 1, s);
  const Response calm = serve_one(control, 1, extra[0]);
  ASSERT_TRUE(calm.result.has_value());
  ASSERT_EQ(calm.result->tier, 0);
  EXPECT_EQ(calm.min_tier, 0u);

  // Pressured: same warm window, but four requests queued at once crosses
  // the 0.25 watermark -> the whole batch is served with min_tier >= 1 and
  // the responses report the degraded tier honestly.
  ManualClock c2;
  Server pressured(make_predictor(), cfg, c2);
  for (const auto& s : warm) serve_one(pressured, 1, s);
  const std::uint64_t tier0_after_warm = pressured.stats().served_by_tier[0];
  for (const auto& s : extra) {
    ASSERT_TRUE(pressured.submit({1, s, 0}).has_value());
  }
  const auto out = pressured.step();
  ASSERT_EQ(out.size(), 4u);
  for (const auto& r : out) {
    EXPECT_GE(r.min_tier, 1u);
    if (r.result.has_value()) {
      EXPECT_GE(r.result->tier, 1);
    }
  }
  // Nothing in the pressured batch was answered from tier 0.
  EXPECT_EQ(pressured.stats().served_by_tier[0], tier0_after_warm);
}

// ---------- session lifecycle ----------

TEST(Server, UnrelatedEvictionPreservesBitIdentity) {
  // UE A's predictions must be bit-identical whether or not an unrelated
  // UE B ever existed, got evicted, or was rebuilt. Server `with_b`
  // interleaves B traffic and then LRU-evicts B via fresh UEs; A's answer
  // stream must not move by a bit.
  const auto a_samples = run_samples(0, 12);
  const auto b_samples = run_samples(1, 6);

  ManualClock c1, c2;
  ServerConfig cfg;
  cfg.max_sessions = 3;
  Server alone(make_predictor(), cfg, c1);
  Server with_b(make_predictor(), cfg, c2);

  std::vector<Response> a_alone, a_with_b;
  for (std::size_t i = 0; i < a_samples.size(); ++i) {
    a_alone.push_back(serve_one(alone, 1, a_samples[i]));
    if (i < b_samples.size()) serve_one(with_b, 2, b_samples[i]);
    a_with_b.push_back(serve_one(with_b, 1, a_samples[i]));
    if (i == 7) {
      // Two fresh UEs: the 3-session LRU evicts B (A was touched later).
      serve_one(with_b, 30, b_samples[0]);
      serve_one(with_b, 31, b_samples[1]);
      EXPECT_GE(with_b.stats().evicted_lru, 1u);
    }
  }
  ASSERT_EQ(a_alone.size(), a_with_b.size());
  for (std::size_t i = 0; i < a_alone.size(); ++i) {
    expect_same_result(a_alone[i].result, a_with_b[i].result);
  }
}

TEST(Server, LruEvictionIsDeterministicAndRebuildsTransparently) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.max_sessions = 2;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 6);

  serve_one(server, 1, samples[0]);  // A
  serve_one(server, 2, samples[1]);  // B (A is now least recent)
  EXPECT_EQ(server.n_sessions(), 2u);
  serve_one(server, 3, samples[2]);  // C arrives -> A evicted
  EXPECT_EQ(server.n_sessions(), 2u);
  EXPECT_EQ(server.stats().evicted_lru, 1u);

  // A comes back: a fresh session is built transparently — the request is
  // answered (possibly from a lower tier), never an error about eviction.
  const Response r = serve_one(server, 1, samples[3]);
  EXPECT_EQ(server.stats().evicted_lru, 2u);  // B was the next victim
  EXPECT_TRUE(r.result.has_value() ||
              r.result.error().code == ErrorCode::kWindowUnusable);

  // Recency, not creation order, picks the victim: A is created first but
  // touched again after B, so newcomer C evicts B and A keeps its window.
  ManualClock c2, c3;
  Server lru(make_predictor(), cfg, c2);
  Server fresh(make_predictor(), cfg, c3);
  const auto a = run_samples(0, 3);
  const auto b = run_samples(1, 8);
  const auto c = run_samples(2, 3);
  serve_one(lru, 1, a[0]);
  for (const auto& s : b) serve_one(lru, 2, s);
  serve_one(lru, 1, a[1]);
  // C takes over B's map node and window storage; none of B's eight
  // records may survive, so C answers exactly as on a fresh server.
  for (const auto& s : c) {
    expect_same_result(serve_one(lru, 3, s).result,
                       serve_one(fresh, 3, s).result);
  }
  EXPECT_EQ(lru.stats().evicted_lru, 1u);
  const Response ra = serve_one(lru, 1, a[2]);
  EXPECT_EQ(lru.stats().evicted_lru, 1u);  // A still had its session
  Session shadow(cfg.session_capacity);
  for (const auto& s : a) shadow.observe(s);
  expect_same_result(ra.result, make_predictor().predict(shadow));
}

TEST(Server, TtlEvictsIdleSessions) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.session_ttl_ms = 1000;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 2);

  serve_one(server, 1, samples[0]);
  EXPECT_EQ(server.n_sessions(), 1u);
  clock.advance_ms(5000);
  serve_one(server, 2, samples[1]);  // the step's sweep reaps idle UE 1
  EXPECT_EQ(server.n_sessions(), 1u);
  EXPECT_EQ(server.stats().evicted_ttl, 1u);

  // Staggered touches: UEs 10..12 start at t=0, UE 13 starts and UE 10 is
  // touched again at t=600. The one sweep at t=1300 reaps exactly 11 and
  // 12 (idle 1300 ms) and keeps 10, 13 and the newcomer 14.
  ManualClock c2;
  Server staggered(make_predictor(), cfg, c2);
  const auto s10 = run_samples(0, 3);
  const auto s13 = run_samples(1, 2);
  for (const std::uint64_t ue : {10, 11, 12}) {
    serve_one(staggered, ue, s10[0]);
  }
  c2.advance_ms(600);
  serve_one(staggered, 13, s13[0]);
  serve_one(staggered, 10, s10[1]);
  EXPECT_EQ(staggered.stats().evicted_ttl, 0u);
  c2.advance_ms(700);
  serve_one(staggered, 14, s10[0]);
  EXPECT_EQ(staggered.stats().evicted_ttl, 2u);
  EXPECT_EQ(staggered.n_sessions(), 3u);
  // The survivors kept their windows.
  const Predictor direct = make_predictor();
  Session shadow10(cfg.session_capacity);
  Session shadow13(cfg.session_capacity);
  for (const auto& s : s10) shadow10.observe(s);
  for (const auto& s : s13) shadow13.observe(s);
  expect_same_result(serve_one(staggered, 10, s10[2]).result,
                     direct.predict(shadow10));
  expect_same_result(serve_one(staggered, 13, s13[1]).result,
                     direct.predict(shadow13));
  EXPECT_EQ(staggered.stats().evicted_ttl, 2u);
}

// ---------- hot reload ----------

TEST(Server, ReloadIdenticalArtifactPreservesBitIdentity) {
  const auto samples = run_samples(0, 12);
  ManualClock c1, c2;
  Server control(make_predictor(), ServerConfig{}, c1);
  Server reloaded(make_predictor(), ServerConfig{}, c2);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 6) {
      const auto swapped = reloaded.reload_bytes(save_bytes(facade()));
      ASSERT_TRUE(swapped.has_value()) << swapped.error().message;
      EXPECT_EQ(reloaded.model_generation(), 2u);
      EXPECT_EQ(reloaded.stats().reloads_ok, 1u);
    }
    expect_same_result(serve_one(control, 1, samples[i]).result,
                       serve_one(reloaded, 1, samples[i]).result);
  }
}

TEST(Server, ReloadRollsBackOnCorruptArtifact) {
  const auto samples = run_samples(0, 10);
  ManualClock c1, c2;
  Server control(make_predictor(), ServerConfig{}, c1);
  Server server(make_predictor(), ServerConfig{}, c2);

  std::string damaged = save_bytes(facade());
  damaged[damaged.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(damaged[damaged.size() / 2]) ^
                        0x40);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 5) {
      const auto swapped = server.reload_bytes(damaged);
      ASSERT_FALSE(swapped.has_value());
      EXPECT_EQ(swapped.error().code, ErrorCode::kCorrupt);
      EXPECT_NE(swapped.error().message.find("rolled back"),
                std::string::npos);
      EXPECT_EQ(server.model_generation(), 1u);
      EXPECT_EQ(server.stats().reloads_failed, 1u);
    }
    // The failed reload must be invisible to the request stream.
    expect_same_result(serve_one(control, 1, samples[i]).result,
                       serve_one(server, 1, samples[i]).result);
  }
}

TEST(Server, ReloadRollsBackOnTruncatedArtifact) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const std::string full = save_bytes(facade());
  const auto swapped = server.reload_bytes(full.substr(0, full.size() / 2));
  ASSERT_FALSE(swapped.has_value());
  EXPECT_EQ(swapped.error().code, ErrorCode::kTruncated);
  EXPECT_EQ(server.model_generation(), 1u);
}

TEST(Server, ReloadRetriesTransientIoWithBackoffThenGivesUp) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.reload_max_attempts = 3;
  cfg.reload_backoff_ms = 10;
  Server server(make_predictor(), cfg, clock);

  const std::uint64_t t0 = clock.now_ms();
  const auto r = server.reload("/nonexistent/lumos/model.l5gm");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
  EXPECT_NE(r.error().message.find("gave up after 3"), std::string::npos);
  // Exponential backoff between attempts: 10 + 20 ms slept on the clock.
  EXPECT_EQ(clock.now_ms() - t0, 30u);
  EXPECT_EQ(server.stats().reload_attempts, 3u);
  EXPECT_EQ(server.model_generation(), 1u);
}

TEST(Server, ReloadValidationFailureDoesNotRetry) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.reload_max_attempts = 5;
  cfg.reload_backoff_ms = 10;
  Server server(make_predictor(), cfg, clock);

  // Per-process: the suite runs concurrently under several ctest entries.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lumos_test_server_reload_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "bad.l5gm";
  std::string damaged = save_bytes(facade());
  damaged[damaged.size() - 1] = static_cast<char>(
      static_cast<unsigned char>(damaged[damaged.size() - 1]) ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }

  const std::uint64_t t0 = clock.now_ms();
  const auto r = server.reload(path);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorrupt);
  // Retrying identical bytes cannot help: exactly one attempt, no backoff.
  EXPECT_EQ(server.stats().reload_attempts, 1u);
  EXPECT_EQ(clock.now_ms(), t0);
  std::filesystem::remove_all(dir);
}

TEST(Server, ReloadFromFileSwapsAndBumpsGeneration) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  // Per-process: the suite runs concurrently under several ctest entries.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lumos_test_server_reload_ok_" +
                    std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.l5gm";
  ASSERT_TRUE(write_artifact(path, save_bytes(facade())).has_value());

  const auto r = server.reload(path);
  ASSERT_TRUE(r.has_value()) << r.error().message;
  EXPECT_EQ(server.model_generation(), 2u);
  EXPECT_EQ(server.stats().reloads_ok, 1u);
  std::filesystem::remove_all(dir);
}

// ---------- accounting ----------

TEST(Server, StatsPartitionEveryAdmittedRequest) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 100;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 8);

  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit({1, samples[i], 0}).has_value());
  }
  clock.advance_ms(200);  // first four expire
  for (std::size_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(server.submit({1, samples[i], 0}).has_value());
  }
  server.drain();

  const auto& st = server.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.served + st.failed + st.deadline_expired, st.submitted);
  std::uint64_t by_tier = 0;
  for (const auto n : st.served_by_tier) by_tier += n;
  EXPECT_EQ(by_tier, st.served);
}

TEST(Server, ConcurrentProducersAreAnsweredOnceInPerUeOrder) {
  // kProducers pool tasks submit while one more task polls, with deadlines,
  // TTL and LRU churn all active. A shed request is retried while the
  // poller runs and dropped before it starts. The poller is the last task,
  // so a 1-thread pool runs every producer first (shedding once the queue
  // fills) and then drains; no task ever waits on one that cannot run.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kUesPerProducer = 8;
  constexpr std::size_t kPerUe = 24;
  constexpr std::size_t kUes = kProducers * kUesPerProducer;
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.max_sessions = 16;
  cfg.session_ttl_ms = 4;
  cfg.default_deadline_ms = 3;
  cfg.num_shards = 4;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, kPerUe);

  // Each producer writes only its own UEs' ticket logs and its own attempt
  // count; only the poller writes `answered`.
  std::vector<std::vector<std::uint64_t>> tickets(kUes);
  for (auto& t : tickets) t.reserve(kPerUe);
  std::vector<std::uint64_t> attempted(kProducers, 0);
  std::vector<Response> answered;
  std::atomic<bool> polling{false};
  std::atomic<std::size_t> producers_done{0};
  parallel_for(0, kProducers + 1, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t task = begin; task < end; ++task) {
      if (task < kProducers) {
        for (std::size_t k = 0; k < kPerUe; ++k) {
          for (std::size_t u = 0; u < kUesPerProducer; ++u) {
            const std::size_t ue = task * kUesPerProducer + u;
            for (;;) {
              ++attempted[task];
              const auto t = server.submit({ue, samples[k], 0});
              if (t.has_value()) {
                tickets[ue].push_back(*t);
                break;
              }
              if (!polling.load(std::memory_order_acquire)) break;
            }
          }
        }
        producers_done.fetch_add(1, std::memory_order_release);
        continue;
      }
      polling.store(true, std::memory_order_release);
      std::vector<Response> out(cfg.max_batch);
      for (;;) {
        // Read before polling: once every producer has finished, an
        // empty poll means the queue is empty for good.
        const bool last = producers_done.load(std::memory_order_acquire) ==
                          kProducers;
        const std::size_t n = server.poll(out);
        for (std::size_t i = 0; i < n; ++i) {
          answered.push_back(std::move(out[i]));
        }
        if (n == 0 && last) break;
        if (n != 0) clock.advance_ms(1);
      }
    }
  });

  // Every admitted ticket is answered exactly once, for the UE that
  // submitted it.
  std::vector<std::uint64_t> admitted;
  for (const auto& t : tickets) {
    admitted.insert(admitted.end(), t.begin(), t.end());
  }
  std::vector<std::uint64_t> served;
  for (const Response& r : answered) served.push_back(r.ticket);
  std::sort(admitted.begin(), admitted.end());
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, admitted);

  // Per-UE FIFO: each UE's answers come back in its submission order.
  std::vector<std::vector<std::uint64_t>> per_ue(kUes);
  for (const Response& r : answered) {
    ASSERT_LT(r.ue_id, kUes);
    per_ue[r.ue_id].push_back(r.ticket);
  }
  for (std::size_t ue = 0; ue < kUes; ++ue) {
    EXPECT_EQ(per_ue[ue], tickets[ue]) << "ue " << ue;
  }

  const auto& st = server.stats();
  std::uint64_t attempts = 0;
  for (const auto a : attempted) attempts += a;
  EXPECT_EQ(st.submitted, admitted.size());
  EXPECT_EQ(st.served + st.failed + st.deadline_expired, st.submitted);
  EXPECT_EQ(st.submitted + st.shed, attempts);
  EXPECT_EQ(st.rejected_shutdown, 0u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

}  // namespace
}  // namespace lumos::serve
