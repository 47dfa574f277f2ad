// Tests for the lumos::ThreadPool fork-join primitives and the central
// guarantee of the parallel training/inference engine: models trained
// under LUMOS_THREADS=1 and LUMOS_THREADS=8 are bit-identical.
//
// The ctest tier-1 flow runs this whole binary twice, with LUMOS_THREADS
// pinned to 1 and to 8 (see tests/CMakeLists.txt); the determinism tests
// additionally flip the pool size explicitly so each run compares both
// settings in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "data/features.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "sim/areas.h"

namespace lumos {
namespace {

// ---------- ThreadPool / parallel_for ----------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool::global().set_threads(4);
  std::vector<int> hits(10000, 0);
  parallel_for(0, hits.size(), 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, EmptyAndSingleChunkRangesAreSafe) {
  ThreadPool::global().set_threads(4);
  int calls = 0;
  parallel_for(5, 5, 10, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, 10, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool::global().set_threads(4);
  EXPECT_THROW(parallel_for(0, 1000, 10,
                            [](std::size_t b, std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                if (i == 537) {
                                  throw std::runtime_error("boom");
                                }
                              }
                            }),
               std::runtime_error);
  // The pool must remain usable after a failed loop.
  std::atomic<int> n{0};
  parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool::global().set_threads(4);
  std::vector<double> sums(8, 0.0);
  parallel_for(0, 8, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      EXPECT_TRUE(ThreadPool::in_parallel_region());
      // The nested loop runs inline on this thread, so the plain
      // accumulation below is race-free.
      double s = 0.0;
      parallel_for(0, 1000, 100, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) s += static_cast<double>(i);
      });
      sums[o] = s;
    }
  });
  for (const double s : sums) EXPECT_EQ(s, 499500.0);
}

// ChunkFn is a non-owning reference of two words. Copying one copies the
// reference: its constructor template is constrained away from ChunkFn
// itself, so a copy never wraps (and then follows) its source.
TEST(ThreadPool, ChunkFnCopiesTheReferenceNotTheWrapper) {
  int first = 0;
  int second = 0;
  auto body1 = [&first](std::size_t, std::size_t) { ++first; };
  auto body2 = [&second](std::size_t, std::size_t) { ++second; };
  ChunkFn a = body1;
  ChunkFn b = a;  // non-const lvalue: the case a greedy template would take
  a = body2;
  b(0, 1);
  a(0, 1);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  static_assert(sizeof(ChunkFn) == 2 * sizeof(void*));
  static_assert(!std::is_constructible_v<ChunkFn, int>);
}

TEST(ThreadPool, SetThreadsResizesPool) {
  ThreadPool::global().set_threads(2);
  EXPECT_EQ(ThreadPool::global().threads(), 2u);
  ThreadPool::global().set_threads(1);
  EXPECT_EQ(ThreadPool::global().threads(), 1u);
  ThreadPool::global().set_threads(0);  // 0 = LUMOS_THREADS / hardware
  EXPECT_EQ(ThreadPool::global().threads(), configured_threads());
}

// ---------- parallel_reduce ----------

TEST(ParallelReduce, SumsBitIdenticallyAcrossThreadCounts) {
  const auto run = [] {
    return parallel_reduce(
        0, 100000, 1000, 0.0,
        [](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            s += std::sin(static_cast<double>(i) * 1e-3);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  ThreadPool::global().set_threads(1);
  const double serial = run();
  ThreadPool::global().set_threads(8);
  const double threaded = run();
  EXPECT_EQ(serial, threaded);  // bitwise: chunk order is fixed
  ThreadPool::global().set_threads(0);
}

// ---------- model determinism on a simulated Intersection dataset ----------

const data::BuiltFeatures& intersection_features() {
  static const data::BuiltFeatures built = [] {
    const auto ds = sim::collect_area_dataset(sim::make_intersection(),
                                              /*walk_runs=*/3, 0, 7777);
    return data::build_features(ds, data::FeatureSetSpec::parse("L+M+C"), {});
  }();
  return built;
}

TEST(Determinism, GbdtRegressorIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ASSERT_GT(built.x.rows(), 100u);
  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.max_depth = 5;
  cfg.subsample = 0.8;  // exercises the row-sampling RNG too

  ThreadPool::global().set_threads(1);
  ml::GbdtRegressor serial(cfg);
  serial.fit(built.x, built.y_reg);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::GbdtRegressor threaded(cfg);
  threaded.fit(built.x, built.y_reg);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p8[i]) << "row " << i;  // bitwise equality
  }
}

TEST(Determinism, GbdtClassifierIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::GbdtConfig cfg;
  cfg.n_estimators = 25;
  cfg.max_depth = 4;

  ThreadPool::global().set_threads(1);
  ml::GbdtClassifier serial(cfg);
  serial.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::GbdtClassifier threaded(cfg);
  threaded.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  EXPECT_EQ(p1, p8);
}

TEST(Determinism, RandomForestRegressorIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::ForestConfig cfg;
  cfg.n_trees = 30;
  cfg.max_depth = 8;

  ThreadPool::global().set_threads(1);
  ml::RandomForestRegressor serial(cfg);
  serial.fit(built.x, built.y_reg);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::RandomForestRegressor threaded(cfg);
  threaded.fit(built.x, built.y_reg);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  ASSERT_EQ(p1.size(), p8.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i], p8[i]) << "row " << i;
  }
}

TEST(Determinism, RandomForestClassifierIdenticalAcrossThreadCounts) {
  const auto& built = intersection_features();
  ml::ForestConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 6;

  ThreadPool::global().set_threads(1);
  ml::RandomForestClassifier serial(cfg);
  serial.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p1 = serial.predict_all(built.x);

  ThreadPool::global().set_threads(8);
  ml::RandomForestClassifier threaded(cfg);
  threaded.fit(built.x, built.y_cls, data::kNumThroughputClasses);
  const auto p8 = threaded.predict_all(built.x);
  ThreadPool::global().set_threads(0);

  EXPECT_EQ(p1, p8);
}

}  // namespace
}  // namespace lumos
