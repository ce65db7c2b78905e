#include "analysis/loss_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "analysis/busy_period.hpp"
#include "analysis/mg1.hpp"
#include "analysis/splitting.hpp"
#include "util/contract.hpp"

namespace {

namespace analysis = tcw::analysis;

analysis::ProtocolModelConfig paper_config(double rho, double m) {
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  return cfg;
}

TEST(EffectiveWindowLoad, ScalesWithAcceptance) {
  const double nu_star = analysis::optimal_window_load();
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(1.0), nu_star);
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(0.5), 0.5 * nu_star);
  EXPECT_DOUBLE_EQ(analysis::effective_window_load(0.0), 0.0);
}

TEST(ServiceDistribution, NoSchedulingIsPureTransmission) {
  auto cfg = paper_config(0.5, 25.0);
  cfg.scheduling = analysis::SchedulingModel::None;
  const auto s = analysis::service_distribution(cfg, 1.0);
  EXPECT_DOUBLE_EQ(s.at(26), 1.0);  // M + 1 detection slot
  EXPECT_DOUBLE_EQ(s.mean(), 26.0);
}

TEST(ServiceDistribution, GeometricAddsMatchedMean) {
  auto cfg = paper_config(0.5, 25.0);
  const double nu = 1.0;
  const auto s = analysis::service_distribution(cfg, nu);
  EXPECT_NEAR(s.mean(), 26.0 + analysis::conditional_scheduling_mean(nu),
              1e-6);
  EXPECT_DOUBLE_EQ(s.at(25), 0.0);  // nothing faster than the transmission
}

TEST(ServiceDistribution, ExactConditionalAddsMatchedMean) {
  auto cfg = paper_config(0.5, 25.0);
  cfg.scheduling = analysis::SchedulingModel::ExactConditional;
  const double nu = 1.3;
  const auto s = analysis::service_distribution(cfg, nu);
  EXPECT_NEAR(s.mean(), 26.0 + analysis::conditional_scheduling_mean(nu),
              1e-6);
}

TEST(ServiceDistribution, ZeroLoadDegeneratesToTransmission) {
  auto cfg = paper_config(0.5, 25.0);
  const auto s = analysis::service_distribution(cfg, 0.0);
  EXPECT_DOUBLE_EQ(s.at(26), 1.0);
}

TEST(ServiceDistribution, FractionalMessageLengthRejected) {
  auto cfg = paper_config(0.5, 25.5);
  EXPECT_THROW(analysis::service_distribution(cfg, 1.0),
               tcw::ContractViolation);
}

TEST(ControlledLoss, AnchorsAtClosedFormForKZero) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto pt = analysis::controlled_loss_at(cfg, 0.0, 0.9);
  const double rho0 = cfg.lambda() * 26.0;
  EXPECT_NEAR(pt.p_loss, rho0 / (1.0 + rho0), 1e-6);
  EXPECT_NEAR(pt.sched_mean, 0.0, 1e-6);  // all arrivals balk: nu_eff ~ 0
}

TEST(ControlledLoss, FixpointIsInsensitiveToInitialGuess) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto lo = analysis::controlled_loss_at(cfg, 50.0, 0.0);
  const auto hi = analysis::controlled_loss_at(cfg, 50.0, 1.0);
  EXPECT_NEAR(lo.p_loss, hi.p_loss, 1e-7);
}

TEST(ControlledLoss, CurveIsMonotoneDecreasing) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto curve = analysis::controlled_loss_curve(
      cfg, {0.0, 25.0, 50.0, 100.0, 200.0, 400.0});
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].p_loss, curve[i - 1].p_loss + 1e-9) << i;
  }
  EXPECT_LT(curve.back().p_loss, 1e-4);  // rho < 1: loss dies out
}

TEST(ControlledLoss, HigherLoadLosesMore) {
  const auto grid = std::vector<double>{50.0, 100.0, 200.0};
  const auto low = analysis::controlled_loss_curve(paper_config(0.25, 25.0),
                                                   grid);
  const auto high = analysis::controlled_loss_curve(paper_config(0.75, 25.0),
                                                    grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(high[i].p_loss, low[i].p_loss) << i;
  }
}

TEST(ControlledLoss, LongerMessagesNeedProportionallyLargerK) {
  // At the same rho' and K measured in messages (K = c*M), loss should be
  // in the same ballpark; at equal absolute K, larger M loses more.
  const auto m25 = analysis::controlled_loss_at(paper_config(0.5, 25.0),
                                                100.0, 0.1);
  const auto m100 = analysis::controlled_loss_at(paper_config(0.5, 100.0),
                                                 100.0, 0.1);
  EXPECT_GT(m100.p_loss, m25.p_loss);
}

TEST(ControlledLoss, OverloadStillConverges) {
  const auto cfg = paper_config(1.5, 25.0);
  const auto pt = analysis::controlled_loss_at(cfg, 100.0, 0.5);
  EXPECT_GT(pt.p_loss, 0.3);  // must shed at least 1 - 1/rho
  EXPECT_LT(pt.p_loss, 1.0);
  EXPECT_LE(pt.iterations, cfg.fixpoint_max_iters);
}

TEST(ControlledLoss, SchedulingModelsAgreeClosely) {
  auto geo = paper_config(0.5, 25.0);
  auto exact = paper_config(0.5, 25.0);
  exact.scheduling = analysis::SchedulingModel::ExactConditional;
  const auto a = analysis::controlled_loss_at(geo, 75.0, 0.1);
  const auto b = analysis::controlled_loss_at(exact, 75.0, 0.1);
  EXPECT_NEAR(a.p_loss, b.p_loss, 0.01);
}

TEST(ControlledLoss, UnsortedGridRejected) {
  const auto cfg = paper_config(0.5, 25.0);
  EXPECT_THROW(analysis::controlled_loss_curve(cfg, {50.0, 25.0}),
               tcw::ContractViolation);
}

TEST(FcfsBaseline, WorseThanControlledAtEveryK) {
  const auto cfg = paper_config(0.5, 25.0);
  const auto controlled = analysis::controlled_loss_curve(
      cfg, {25.0, 50.0, 100.0, 200.0});
  for (const auto& pt : controlled) {
    const double fcfs = analysis::fcfs_nodiscard_loss(cfg, pt.K);
    EXPECT_GE(fcfs, pt.p_loss - 1e-6) << pt.K;
  }
}

TEST(FcfsBaseline, MonotoneDecreasing) {
  const auto cfg = paper_config(0.5, 25.0);
  double prev = 1.0;
  for (const double k : {0.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
    const double loss = analysis::fcfs_nodiscard_loss(cfg, k);
    EXPECT_LE(loss, prev + 1e-9);
    prev = loss;
  }
}

TEST(FcfsBaseline, UnstableQueueLosesEverything) {
  const auto cfg = paper_config(1.2, 25.0);
  EXPECT_DOUBLE_EQ(analysis::fcfs_nodiscard_loss(cfg, 500.0), 1.0);
}

class ControlledLossGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ControlledLossGridTest, LossIsAProbabilityEverywhere) {
  const auto [rho, m] = GetParam();
  const auto cfg = paper_config(rho, m);
  const auto curve = analysis::controlled_loss_curve(
      cfg, {0.0, m, 2 * m, 4 * m, 8 * m, 16 * m});
  for (const auto& pt : curve) {
    EXPECT_GE(pt.p_loss, 0.0);
    EXPECT_LE(pt.p_loss, 1.0);
    EXPECT_GE(pt.sched_mean, -1e-9);
    EXPECT_GT(pt.rho, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPanels, ControlledLossGridTest,
    ::testing::Values(std::make_tuple(0.25, 25.0), std::make_tuple(0.25, 100.0),
                      std::make_tuple(0.50, 25.0), std::make_tuple(0.50, 100.0),
                      std::make_tuple(0.75, 25.0),
                      std::make_tuple(0.75, 100.0)));

// The baseline curves build one table at the largest K and read every K
// off its prefix; each value must equal the per-K computation bit for bit.

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> per_k(double (*loss)(const analysis::ProtocolModelConfig&,
                                         double),
                          const analysis::ProtocolModelConfig& cfg,
                          const std::vector<double>& ks) {
  std::vector<double> out;
  for (const double k : ks) out.push_back(loss(cfg, k));
  return out;
}

/// LCFS loss through lcfs_waiting_cdf, which sizes its own busy-period
/// table to K + 2: the independent per-K path the curve replaced.
std::vector<double> lcfs_via_waiting_cdf(
    const analysis::ProtocolModelConfig& cfg, const std::vector<double>& ks) {
  const auto service = analysis::service_distribution(
      cfg, analysis::optimal_window_load());
  const bool stable =
      analysis::offered_intensity(service, cfg.lambda()) < 1.0;
  std::vector<double> out;
  for (const double k : ks) {
    out.push_back(stable ? 1.0 - analysis::lcfs_waiting_cdf(
                                     service, cfg.lambda(), k)
                         : 1.0);
  }
  return out;
}

void expect_curves_match_per_k(const analysis::ProtocolModelConfig& cfg,
                               const std::vector<double>& ks) {
  const auto fcfs = analysis::fcfs_nodiscard_loss_curve(cfg, ks);
  const auto lcfs = analysis::lcfs_nodiscard_loss_curve(cfg, ks);
  EXPECT_TRUE(same_bits(fcfs, per_k(analysis::fcfs_nodiscard_loss, cfg, ks)));
  EXPECT_TRUE(same_bits(lcfs, per_k(analysis::lcfs_nodiscard_loss, cfg, ks)));
  EXPECT_TRUE(same_bits(lcfs, lcfs_via_waiting_cdf(cfg, ks)));
}

class BaselineCurvePanelTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BaselineCurvePanelTest, CurvesBitMatchPerKOnPaperGrid) {
  const auto [rho, m] = GetParam();
  std::vector<double> ks;
  for (const double r : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    ks.push_back(r * m);
  }
  expect_curves_match_per_k(paper_config(rho, m), ks);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPanels, BaselineCurvePanelTest,
    ::testing::Values(std::make_tuple(0.25, 25.0), std::make_tuple(0.25, 100.0),
                      std::make_tuple(0.50, 25.0), std::make_tuple(0.50, 100.0),
                      std::make_tuple(0.75, 25.0),
                      std::make_tuple(0.75, 100.0)));

TEST(BaselineCurve, ZeroFractionalUnsortedAndDuplicateK) {
  expect_curves_match_per_k(paper_config(0.5, 25.0),
                            {100.0, 0.0, 12.5, 50.0, 12.5, 0.0, 200.0, 1.0});
}

TEST(BaselineCurve, UnstableQueueIsAllOnes) {
  const auto cfg = paper_config(1.2, 25.0);
  const std::vector<double> ks = {0.0, 12.5, 500.0};
  const std::vector<double> ones(ks.size(), 1.0);
  EXPECT_TRUE(same_bits(analysis::fcfs_nodiscard_loss_curve(cfg, ks), ones));
  EXPECT_TRUE(same_bits(analysis::lcfs_nodiscard_loss_curve(cfg, ks), ones));
  expect_curves_match_per_k(cfg, ks);
}

TEST(BaselineCurve, EmptyGridIsEmpty) {
  const auto cfg = paper_config(0.5, 25.0);
  EXPECT_TRUE(analysis::fcfs_nodiscard_loss_curve(cfg, {}).empty());
  EXPECT_TRUE(analysis::lcfs_nodiscard_loss_curve(cfg, {}).empty());
}

TEST(BaselineCurve, NegativeKRejected) {
  const auto cfg = paper_config(0.5, 25.0);
  EXPECT_THROW(analysis::fcfs_nodiscard_loss_curve(cfg, {10.0, -1.0}),
               tcw::ContractViolation);
  EXPECT_THROW(analysis::lcfs_nodiscard_loss_curve(cfg, {10.0, -1.0}),
               tcw::ContractViolation);
}

}  // namespace
