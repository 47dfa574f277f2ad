// Tests for lumos::ml — metrics, binning, gradient trees, GDBT, Random
// Forest, KNN, Ordinary Kriging, Harmonic Mean and the LU solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>

#include "common/rng.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/harmonic.h"
#include "ml/knn.h"
#include "ml/kriging.h"
#include "ml/linalg.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace lumos::ml {
namespace {

// ---------- metrics ----------

TEST(Metrics, MaeRmseKnownValues) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> truth{2.0, 2.0, 1.0};
  EXPECT_NEAR(mae(pred, truth), (1.0 + 0.0 + 2.0) / 3.0, 1e-12);
  EXPECT_NEAR(rmse(pred, truth), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
}

TEST(Metrics, ConfusionMatrixLayout) {
  const std::vector<int> truth{0, 0, 1, 1, 2};
  const std::vector<int> pred{0, 1, 1, 1, 0};
  const auto cm = confusion_matrix(pred, truth, 3);
  EXPECT_EQ(cm.at(0, 0), 1u);
  EXPECT_EQ(cm.at(0, 1), 1u);
  EXPECT_EQ(cm.at(1, 1), 2u);
  EXPECT_EQ(cm.at(2, 0), 1u);
  EXPECT_EQ(cm.at(2, 2), 0u);
}

TEST(Metrics, PerfectPredictionScoresOne) {
  const std::vector<int> y{0, 1, 2, 0, 1, 2};
  const auto cm = confusion_matrix(y, y, 3);
  EXPECT_NEAR(weighted_f1(cm), 1.0, 1e-12);
  EXPECT_NEAR(accuracy(cm), 1.0, 1e-12);
  EXPECT_NEAR(recall_of(cm, 0), 1.0, 1e-12);
}

TEST(Metrics, RecallAndPrecisionAsymmetric) {
  // Truth: 4 lows; model catches 3 -> recall 0.75.
  const std::vector<int> truth{0, 0, 0, 0, 1, 1};
  const std::vector<int> pred{0, 0, 0, 1, 1, 0};
  const auto cm = confusion_matrix(pred, truth, 2);
  EXPECT_NEAR(recall_of(cm, 0), 0.75, 1e-12);
  EXPECT_NEAR(precision_of(cm, 0), 0.75, 1e-12);
}

TEST(Metrics, WeightedF1WeightsBySupport) {
  // Class 0 has 9 samples all correct; class 1 has 1 sample wrong.
  std::vector<int> truth(10, 0);
  truth[9] = 1;
  std::vector<int> pred(10, 0);
  const auto cm = confusion_matrix(pred, truth, 2);
  // class0: f1 = 2*0.9*1/(1.9) ~ 0.947; class1: f1 = 0.
  EXPECT_NEAR(weighted_f1(cm), 0.9 * f1_of(cm, 0), 1e-12);
}

TEST(Metrics, EmptyInputIsSafe) {
  const auto cm = confusion_matrix({}, {}, 3);
  EXPECT_EQ(weighted_f1(cm), 0.0);
  EXPECT_EQ(accuracy(cm), 0.0);
}

// ---------- binning ----------

TEST(BinMapper, MonotoneAndInverse) {
  FeatureMatrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = static_cast<double>(i);
  }
  BinMapper mapper;
  mapper.fit(x, 16);
  std::uint16_t prev = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto b = mapper.bin(0, static_cast<double>(i));
    EXPECT_GE(b, prev);
    prev = b;
  }
  // Values <= upper_edge(b) must map to bins <= b.
  for (std::uint16_t b = 0; b < 15; ++b) {
    const double edge = mapper.upper_edge(0, b);
    if (std::isfinite(edge)) {
      EXPECT_LE(mapper.bin(0, edge), b);
      EXPECT_GT(mapper.bin(0, edge + 1e-9), b);
    }
  }
}

TEST(BinMapper, ConstantFeatureGetsOneBin) {
  FeatureMatrix x(50, 1);
  for (std::size_t i = 0; i < 50; ++i) x.at(i, 0) = 3.14;
  BinMapper mapper;
  mapper.fit(x, 16);
  EXPECT_EQ(mapper.bin(0, 3.14), 0);
  EXPECT_EQ(mapper.bin(0, -100.0), 0);
}

// ---------- gradient tree ----------

TEST(GradientTree, FitsStepFunction) {
  FeatureMatrix x(200, 1);
  std::vector<double> y(200), hess(200, 1.0);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = i < 100 ? 10.0 : 50.0;
  }
  BinMapper mapper;
  mapper.fit(x, 32);
  const auto binned = BinnedMatrix::build(mapper, x);
  std::vector<std::size_t> idx(200);
  for (std::size_t i = 0; i < 200; ++i) idx[i] = i;

  GradientTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  cfg.lambda = 0.0;
  tree.fit(binned, mapper, y, hess, idx, cfg);

  EXPECT_NEAR(tree.predict(x.row(10)), 10.0, 1.0);
  EXPECT_NEAR(tree.predict(x.row(150)), 50.0, 1.0);
}

TEST(GradientTree, RespectsMaxDepthZero) {
  FeatureMatrix x(50, 1);
  std::vector<double> y(50), hess(50, 1.0);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  BinMapper mapper;
  mapper.fit(x, 8);
  const auto binned = BinnedMatrix::build(mapper, x);
  std::vector<std::size_t> idx(50);
  for (std::size_t i = 0; i < 50; ++i) idx[i] = i;
  GradientTree tree;
  TreeConfig cfg;
  cfg.max_depth = 0;
  cfg.lambda = 0.0;
  tree.fit(binned, mapper, y, hess, idx, cfg);
  EXPECT_EQ(tree.nodes().size(), 1u);  // root leaf only
  EXPECT_NEAR(tree.predict(x.row(0)), 24.5, 1e-9);  // mean of 0..49
}

TEST(GradientTree, EmptyIndicesYieldZeroLeaf) {
  FeatureMatrix x(10, 1);
  BinMapper mapper;
  mapper.fit(x, 8);
  const auto binned = BinnedMatrix::build(mapper, x);
  GradientTree tree;
  std::vector<double> y(10, 1.0), hess(10, 1.0);
  tree.fit(binned, mapper, y, hess, {}, TreeConfig{});
  EXPECT_EQ(tree.predict(x.row(0)), 0.0);
}

TEST(GradientTree, GainAccumulatesOnSplitFeature) {
  FeatureMatrix x(100, 2);
  std::vector<double> y(100), hess(100, 1.0);
  Rng rng(1);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.uniform();       // informative
    x.at(i, 1) = rng.uniform();       // noise
    y[i] = x.at(i, 0) > 0.5 ? 100.0 : 0.0;
  }
  BinMapper mapper;
  mapper.fit(x, 32);
  const auto binned = BinnedMatrix::build(mapper, x);
  std::vector<std::size_t> idx(100);
  for (std::size_t i = 0; i < 100; ++i) idx[i] = i;
  GradientTree tree;
  TreeConfig cfg;
  cfg.max_depth = 3;
  tree.fit(binned, mapper, y, hess, idx, cfg);
  std::vector<double> gains(2, 0.0);
  tree.accumulate_gain(gains);
  EXPECT_GT(gains[0], gains[1] * 10.0);
}

// ---------- GDBT ----------

TEST(GbdtRegressor, FitsNonlinearFunction) {
  Rng rng(2);
  FeatureMatrix x(600, 2);
  std::vector<double> y(600);
  for (std::size_t i = 0; i < 600; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    x.at(i, 0) = a;
    x.at(i, 1) = b;
    y[i] = std::sin(a) * 10.0 + b * b * 5.0;
  }
  GbdtConfig cfg;
  cfg.n_estimators = 150;
  cfg.max_depth = 4;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  double err = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    err += std::fabs(model.predict(x.row(i)) - y[i]);
  }
  EXPECT_LT(err / 100.0, 1.5);  // y spans roughly [-10, 30]
}

TEST(GbdtRegressor, ImportanceIdentifiesInformativeFeature) {
  Rng rng(3);
  FeatureMatrix x(400, 3);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t f = 0; f < 3; ++f) x.at(i, f) = rng.uniform();
    y[i] = 50.0 * x.at(i, 1);  // only feature 1 matters
  }
  GbdtConfig cfg;
  cfg.n_estimators = 50;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  const auto imp = model.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[1], 0.9);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(GbdtRegressor, ConstantTargetPredictsConstant) {
  FeatureMatrix x(50, 2);
  std::vector<double> y(50, 42.0);
  GbdtConfig cfg;
  cfg.n_estimators = 10;
  GbdtRegressor model(cfg);
  model.fit(x, y);
  EXPECT_NEAR(model.predict(x.row(0)), 42.0, 1e-6);
}

TEST(GbdtClassifier, SeparatesThreeClasses) {
  Rng rng(4);
  FeatureMatrix x(600, 2);
  std::vector<int> y(600);
  for (std::size_t i = 0; i < 600; ++i) {
    const int c = static_cast<int>(i % 3);
    x.at(i, 0) = c * 10.0 + rng.normal(0.0, 1.0);
    x.at(i, 1) = rng.normal(0.0, 1.0);
    y[i] = c;
  }
  GbdtConfig cfg;
  cfg.n_estimators = 30;
  cfg.max_depth = 3;
  GbdtClassifier model(cfg);
  model.fit(x, y, 3);
  int correct = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    if (model.predict(x.row(i)) == y[i]) ++correct;
  }
  EXPECT_GT(correct, 570);
  const auto scores = model.decision_function(x.row(0));
  EXPECT_EQ(scores.size(), 3u);
}

TEST(GbdtClassifier, ImbalancedPriorRespected) {
  // 95% class 0 with useless features: prediction should be class 0.
  Rng rng(5);
  FeatureMatrix x(200, 1);
  std::vector<int> y(200, 0);
  for (std::size_t i = 0; i < 200; ++i) x.at(i, 0) = rng.uniform();
  for (std::size_t i = 0; i < 10; ++i) y[i] = 1;
  GbdtConfig cfg;
  cfg.n_estimators = 5;
  GbdtClassifier model(cfg);
  model.fit(x, y, 2);
  int zeros = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    if (model.predict(x.row(i)) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 40);
}

// ---------- Random Forest ----------

TEST(RandomForest, RegressionBeatsMeanBaseline) {
  Rng rng(6);
  FeatureMatrix x(500, 2);
  std::vector<double> y(500);
  double ysum = 0.0;
  for (std::size_t i = 0; i < 500; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 10.0);
    x.at(i, 1) = rng.uniform(0.0, 10.0);
    y[i] = 3.0 * x.at(i, 0) + x.at(i, 1);
    ysum += y[i];
  }
  const double ymean = ysum / 500.0;
  ForestConfig cfg;
  cfg.n_trees = 30;
  RandomForestRegressor model(cfg);
  model.fit(x, y);
  double model_err = 0.0, mean_err = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    model_err += std::fabs(model.predict(x.row(i)) - y[i]);
    mean_err += std::fabs(ymean - y[i]);
  }
  EXPECT_LT(model_err, mean_err * 0.35);
}

TEST(RandomForest, ClassifierMajorityOnSeparableData) {
  Rng rng(7);
  FeatureMatrix x(300, 2);
  std::vector<int> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    const int c = static_cast<int>(i % 2);
    x.at(i, 0) = c == 0 ? rng.normal(-3.0, 1.0) : rng.normal(3.0, 1.0);
    x.at(i, 1) = rng.normal(0.0, 1.0);
    y[i] = c;
  }
  ForestConfig cfg;
  cfg.n_trees = 20;
  RandomForestClassifier model(cfg);
  model.fit(x, y, 2);
  int correct = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    if (model.predict(x.row(i)) == y[i]) ++correct;
  }
  EXPECT_GT(correct, 280);
}

TEST(RandomForest, DeterministicGivenSeed) {
  Rng rng(8);
  FeatureMatrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.uniform();
    x.at(i, 1) = rng.uniform();
    y[i] = x.at(i, 0);
  }
  ForestConfig cfg;
  cfg.n_trees = 10;
  RandomForestRegressor a(cfg), b(cfg);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_DOUBLE_EQ(a.predict(x.row(3)), b.predict(x.row(3)));
}

// ---------- KNN ----------

TEST(Knn, ExactOnWellSeparatedClusters) {
  FeatureMatrix x(40, 2);
  std::vector<double> y(40);
  std::vector<int> yc(40);
  Rng rng(9);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool left = i < 20;
    x.at(i, 0) = (left ? -10.0 : 10.0) + rng.normal(0.0, 0.5);
    x.at(i, 1) = rng.normal(0.0, 0.5);
    y[i] = left ? 100.0 : 500.0;
    yc[i] = left ? 0 : 1;
  }
  KnnRegressor reg(KnnConfig{.k = 5});
  reg.fit(x, y);
  const std::vector<double> q_left{-10.0, 0.0}, q_right{10.0, 0.0};
  EXPECT_NEAR(reg.predict(q_left), 100.0, 1e-9);
  EXPECT_NEAR(reg.predict(q_right), 500.0, 1e-9);

  KnnClassifier cls(KnnConfig{.k = 5});
  cls.fit(x, yc, 2);
  EXPECT_EQ(cls.predict(q_left), 0);
  EXPECT_EQ(cls.predict(q_right), 1);
}

TEST(Knn, StandardizationMakesScalesComparable) {
  // Feature 0 has huge scale but is noise; feature 1 is informative.
  Rng rng(10);
  FeatureMatrix x(200, 2);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 1e6);
    x.at(i, 1) = i < 100 ? 0.0 : 1.0;
    y[i] = i < 100 ? 10.0 : 20.0;
  }
  KnnRegressor reg(KnnConfig{.k = 3});
  reg.fit(x, y);
  const std::vector<double> q{5e5, 1.0};
  EXPECT_NEAR(reg.predict(q), 20.0, 2.0);
}

TEST(Knn, MaxTrainSubsamplingStillWorks) {
  Rng rng(11);
  FeatureMatrix x(1000, 1);
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = x.at(i, 0) < 500.0 ? 1.0 : 2.0;
  }
  KnnRegressor reg(KnnConfig{.k = 5, .max_train = 100});
  reg.fit(x, y);
  const std::vector<double> q{100.0};
  EXPECT_NEAR(reg.predict(q), 1.0, 0.5);
}

TEST(Knn, EmptyModelPredictsZero) {
  KnnRegressor reg;
  const std::vector<double> q{1.0};
  EXPECT_EQ(reg.predict(q), 0.0);
}

// ---------- Ordinary Kriging ----------

TEST(Kriging, InterpolatesSmoothField) {
  Rng rng(12);
  FeatureMatrix x(150, 2);
  std::vector<double> y(150);
  const auto field = [](double a, double b) {
    return 100.0 + 50.0 * std::sin(a / 20.0) + 30.0 * std::cos(b / 15.0);
  };
  for (std::size_t i = 0; i < 150; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 100.0);
    x.at(i, 1) = rng.uniform(0.0, 100.0);
    y[i] = field(x.at(i, 0), x.at(i, 1));
  }
  OrdinaryKriging ok;
  ok.fit(x, y);
  double err = 0.0;
  int n = 0;
  for (double a = 10.0; a < 90.0; a += 20.0) {
    for (double b = 10.0; b < 90.0; b += 20.0) {
      const std::vector<double> q{a, b};
      err += std::fabs(ok.predict(q) - field(a, b));
      ++n;
    }
  }
  EXPECT_LT(err / n, 15.0);  // field spans ~160 units
}

TEST(Kriging, RejectsNonSpatialFeatures) {
  FeatureMatrix x(10, 3);
  std::vector<double> y(10, 1.0);
  OrdinaryKriging ok;
  EXPECT_THROW(ok.fit(x, y), std::invalid_argument);
}

TEST(Kriging, VariogramIsMonotoneNondecreasing) {
  Rng rng(13);
  FeatureMatrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 50.0);
    x.at(i, 1) = rng.uniform(0.0, 50.0);
    y[i] = x.at(i, 0);
  }
  OrdinaryKriging ok;
  ok.fit(x, y);
  EXPECT_GE(ok.sill(), 0.0);
  EXPECT_GE(ok.range(), 0.0);
}

TEST(Kriging, DegenerateFewPointsFallsBackToMean) {
  FeatureMatrix x(2, 2);
  x.at(0, 0) = 0.0;
  x.at(1, 0) = 1.0;
  std::vector<double> y{10.0, 20.0};
  OrdinaryKriging ok;
  ok.fit(x, y);
  const std::vector<double> q{0.5, 0.5};
  EXPECT_GT(ok.predict(q), 5.0);
  EXPECT_LT(ok.predict(q), 25.0);
}

// ---------- Harmonic Mean ----------

TEST(HarmonicMean, KnownValue) {
  const std::vector<double> hist{100.0, 400.0};
  HarmonicMeanPredictor hm(2);
  // HM(100, 400) = 2 / (1/100 + 1/400) = 160.
  EXPECT_NEAR(hm.predict_next(hist), 160.0, 1e-9);
}

TEST(HarmonicMean, WindowLimitsHistory) {
  const std::vector<double> hist{1.0, 1.0, 1.0, 200.0, 200.0};
  HarmonicMeanPredictor hm(2);
  EXPECT_NEAR(hm.predict_next(hist), 200.0, 1e-9);
}

TEST(HarmonicMean, ZeroObservationsClampedToFloor) {
  const std::vector<double> hist{0.0, 0.0};
  HarmonicMeanPredictor hm(2);
  EXPECT_NEAR(hm.predict_next(hist, 1.0), 1.0, 1e-9);
}

TEST(HarmonicMean, SubFloorPositiveObservationsNotClamped) {
  // Regression: a dead-zone history of legitimate 0.5 Mbps samples must
  // predict ~0.5, not be silently clamped up to the floor (1.0).
  const std::vector<double> hist{0.5, 0.5, 0.5};
  HarmonicMeanPredictor hm(3);
  EXPECT_NEAR(hm.predict_next(hist, 1.0), 0.5, 1e-12);
}

TEST(HarmonicMean, MixedZeroAndSubFloorUsesBoth) {
  // HM over {floor-substituted 1.0, real 0.5} = 2 / (1/1 + 1/0.5) = 2/3.
  const std::vector<double> hist{0.0, 0.5};
  HarmonicMeanPredictor hm(2);
  EXPECT_NEAR(hm.predict_next(hist, 1.0), 2.0 / 3.0, 1e-12);
}

TEST(HarmonicMean, TraceFirstElementSeeded) {
  const std::vector<double> trace{10.0, 20.0, 30.0};
  HarmonicMeanPredictor hm(5);
  const auto preds = hm.predict_trace(trace);
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_NEAR(preds[0], 10.0, 1e-9);
  EXPECT_NEAR(preds[1], 10.0, 1e-9);  // HM of {10}
}

TEST(HarmonicMean, DominatedByLowValues) {
  const std::vector<double> hist{1000.0, 10.0};
  HarmonicMeanPredictor hm(2);
  EXPECT_LT(hm.predict_next(hist), 50.0);  // conservative after a dip
}

// ---------- LU solver ----------

TEST(LuSolver, SolvesRandomSystems) {
  Rng rng(14);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 8;
    std::vector<double> a(n * n);
    std::vector<double> x_true(n);
    for (auto& v : a) v = rng.normal(0.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i * n + i] += 5.0;  // diagonally dominant => well-conditioned
      x_true[i] = rng.normal(0.0, 1.0);
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a[i * n + j] * x_true[j];
    }
    LuSolver lu;
    ASSERT_TRUE(lu.factorize(a, n));
    lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(b[i], x_true[i], 1e-9);
    }
  }
}

TEST(LuSolver, DetectsSingularMatrix) {
  // Two identical rows.
  std::vector<double> a{1.0, 2.0, 1.0, 2.0};
  LuSolver lu;
  EXPECT_FALSE(lu.factorize(a, 2));
  EXPECT_FALSE(lu.ok());
}

TEST(LuSolver, HandlesPermutationMatrix) {
  // Anti-diagonal: requires pivoting.
  std::vector<double> a{0.0, 1.0, 1.0, 0.0};
  LuSolver lu;
  ASSERT_TRUE(lu.factorize(a, 2));
  std::vector<double> b{3.0, 7.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 7.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

// ---------- latent-bug regressions ----------

TEST(GradientTree, BinnedPredictMatchesRawPredict) {
  Rng rng(321);
  FeatureMatrix x(300, 4);
  std::vector<double> y(300), hess(300, 1.0);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t f = 0; f < 4; ++f) x.at(i, f) = rng.uniform(-5.0, 5.0);
    y[i] = std::sin(x.at(i, 0)) + 0.5 * x.at(i, 2);
  }
  BinMapper mapper;
  mapper.fit(x, 32);
  const auto binned = BinnedMatrix::build(mapper, x);
  std::vector<std::size_t> idx(300);
  for (std::size_t i = 0; i < 300; ++i) idx[i] = i;

  GradientTree tree;
  TreeConfig cfg;
  cfg.max_depth = 5;
  tree.fit(binned, mapper, y, hess, idx, cfg);

  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(tree.predict(x.row(i)), tree.predict_binned(binned, i))
        << "row " << i;
  }
}

TEST(GbdtRegressor, EmptyTrainingSetIsANoop) {
  FeatureMatrix x(0, 3);
  GbdtConfig cfg;
  cfg.n_estimators = 5;
  cfg.subsample = 0.5;  // row_sample(0 rows) must return empty, not crash
  GbdtRegressor model(cfg);
  model.fit(x, {});
  const std::vector<double> q{1.0, 2.0, 3.0};
  EXPECT_EQ(model.predict(q), 0.0);
}

TEST(GbdtClassifier, EmptyTrainingSetIsANoop) {
  FeatureMatrix x(0, 3);
  GbdtConfig cfg;
  cfg.n_estimators = 5;
  GbdtClassifier model(cfg);
  model.fit(x, {}, 3);
  const std::vector<double> q{0.0, 0.0, 0.0};
  const int c = model.predict(q);
  EXPECT_GE(c, 0);
  EXPECT_LT(c, 3);
}

TEST(Kriging, EmptyTrainingSetFallsBackToZeroMean) {
  OrdinaryKriging ok;
  FeatureMatrix x(0, 2);
  EXPECT_NO_THROW(ok.fit(x, {}));
  const std::vector<double> q{44.98, -93.26};
  EXPECT_EQ(ok.predict(q), 0.0);
}

TEST(RandomForestRegressor, EmptyTrainingSetIsANoop) {
  ForestConfig cfg;
  cfg.n_trees = 3;
  RandomForestRegressor model(cfg);
  FeatureMatrix x(0, 2);
  model.fit(x, {});
  const std::vector<double> q{1.0, 2.0};
  EXPECT_EQ(model.predict(q), 0.0);
}

}  // namespace
}  // namespace lumos::ml
