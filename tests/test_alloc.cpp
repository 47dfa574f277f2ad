// Runtime check of the serving path's "allocation-free in steady state"
// claim (DESIGN §8, §10, §12). A counting global operator new sees every
// heap allocation in the process, including the implicit ones the static
// lumos_lint proof cannot see (a callable converted to a type-erased
// wrapper, a container growing behind an API). Once the session store is
// at capacity, submit() + poll() must allocate nothing:
//   * batch 16 (one 64-row block) at the ambient pool size, 1 and 8 shards;
//   * batch 256 (four blocks) on a 1-thread pool, 1 and 8 shards;
//   * batch 16 under churn: 4x as many UEs as sessions, so every request
//     LRU-evicts and the newcomer reuses the victim's storage.
// A batch of two or more blocks on a pool of two or more threads forks,
// and each real fork allocates its one Job (DESIGN §8 blind spots), so
// that pairing is not asserted here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

/// Counts, then allocates; nullptr on failure.
void* counted_alloc(std::size_t n, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align == 0) return std::malloc(n);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align = 0) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every allocation and deallocation form is replaced, nothrow and aligned
// included, so no block is ever released by an allocator that did not
// make it (a sanitizer runtime would report the mismatch).
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lumos::serve {
namespace {

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/4, 0, 4242);
  }();
  return ds;
}

const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt.n_estimators = 20;
    cfg.gbdt.max_depth = 4;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

/// Allocations made by `n_polls` warm rounds of `batch` submits followed
/// by one poll(), after `warm` unmeasured rounds that create every session
/// and fill every window. Round k submits `batch` UEs taken round-robin
/// from 0..ues-1, each UE replaying its own consecutive run samples; with
/// `ues` > `batch` (= max_sessions) every request evicts.
std::uint64_t warm_poll_allocations(std::size_t batch, std::size_t shards,
                                    std::size_t n_polls,
                                    std::size_t ues) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  ServerConfig cfg;
  cfg.queue_capacity = 2 * batch;
  cfg.max_batch = batch;
  cfg.max_sessions = batch;
  cfg.num_shards = shards;
  ManualClock clock;
  auto compiled = Predictor::compile(facade());
  EXPECT_TRUE(compiled.has_value());
  Server server(std::move(*compiled), cfg, clock);

  // Every request is built before the measured window: a Request copy is
  // the caller's business, not the server's.
  const std::size_t warm = cfg.session_capacity + 4;
  const std::size_t rounds = warm + n_polls;
  std::vector<Request> requests;
  requests.reserve(rounds * batch);
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t ue = (k * batch + j) % ues;
      const auto& run = runs[ue % runs.size()];
      const std::size_t i = (ue / runs.size() + k) % run.size();
      requests.push_back({ue, ds[run[i]], 0});
    }
  }
  std::vector<Response> out(batch);

  // No gtest assertion inside the measured loop: misses are counted in a
  // plain integer and checked afterwards.
  std::size_t misses = 0;
  const auto round = [&](std::size_t k) {
    for (std::size_t ue = 0; ue < batch; ++ue) {
      misses += !server.submit(requests[k * batch + ue]).has_value();
    }
    clock.advance_ms(1'000);
    misses += server.poll(out) != batch;
  };
  for (std::size_t k = 0; k < warm; ++k) round(k);
  const std::uint64_t lru_before = server.stats().evicted_lru;
  const std::uint64_t before = g_allocations.load();
  for (std::size_t k = warm; k < rounds; ++k) round(k);
  const std::uint64_t allocations = g_allocations.load() - before;
  const std::uint64_t evicted = server.stats().evicted_lru - lru_before;

  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(server.n_sessions(), batch);
  EXPECT_EQ(evicted, ues > batch ? n_polls * batch : 0u);
  EXPECT_EQ(server.stats().failed, 0u);
  return allocations;
}

TEST(ServeAlloc, WarmPollsAllocateNothingInOneBlock) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(warm_poll_allocations(/*batch=*/16, shards, /*n_polls=*/100,
                                    /*ues=*/16),
              0u)
        << shards << " shards, " << ThreadPool::global().threads()
        << " pool threads";
  }
}

TEST(ServeAlloc, WarmPollsAllocateNothingAcrossBlocksOnOneThread) {
  ThreadPool::global().set_threads(1);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(warm_poll_allocations(/*batch=*/256, shards, /*n_polls=*/100,
                                    /*ues=*/256),
              0u)
        << shards << " shards";
  }
  ThreadPool::global().set_threads(0);
}

TEST(ServeAlloc, WarmChurnPollsAllocateNothing) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(warm_poll_allocations(/*batch=*/16, shards, /*n_polls=*/100,
                                    /*ues=*/64),
              0u)
        << shards << " shards, " << ThreadPool::global().threads()
        << " pool threads";
  }
}

}  // namespace
}  // namespace lumos::serve
