#include "core/best_response.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/payment.h"
#include "util/rng.h"

namespace olev::core {
namespace {

SectionCost make_cost(double beta = 8.0, double cap = 50.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(beta, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
}

TEST(BestResponse, RequiresStrictConvexity) {
  SectionCost linear(std::make_unique<LinearPricing>(1.0), OverloadCost{0.0},
                     olev::util::kw(50.0));
  LogSatisfaction u;
  const std::vector<double> b{0.0};
  EXPECT_THROW((void)best_response(u, linear, b, olev::util::kw(10.0)), std::logic_error);
}

TEST(BestResponse, RejectsNegativeCap) {
  LogSatisfaction u;
  const SectionCost z = make_cost();
  const std::vector<double> b{0.0};
  EXPECT_THROW((void)best_response(u, z, b, olev::util::kw(-1.0)), std::invalid_argument);
}

TEST(BestResponse, CornerAtZeroWhenPriceTooHigh) {
  // Marginal price at zero above U'(0) = 1: request nothing (Eq. 22 case 1).
  const SectionCost z = make_cost(/*beta=*/500.0, /*cap=*/10.0);
  LogSatisfaction u;
  const std::vector<double> b{20.0, 20.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(30.0));
  EXPECT_EQ(r.kind, BestResponse::Case::kCornerZero);
  EXPECT_DOUBLE_EQ(r.p_star, 0.0);
  EXPECT_DOUBLE_EQ(r.payment, 0.0);
  EXPECT_DOUBLE_EQ(r.utility, 0.0);
}

TEST(BestResponse, CornerAtCapWhenDemandHuge) {
  // Very strong satisfaction: the physical cap P_OLEV binds (Eq. 22 case 2).
  const SectionCost z = make_cost(/*beta=*/0.001, /*cap=*/100.0);
  LogSatisfaction u(1000.0);
  const std::vector<double> b{0.0, 0.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(5.0));
  EXPECT_EQ(r.kind, BestResponse::Case::kCornerCap);
  EXPECT_DOUBLE_EQ(r.p_star, 5.0);
}

TEST(BestResponse, InteriorSatisfiesFirstOrderCondition) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  // U'(p*) == Psi'(p*) == Z'(lambda*).
  EXPECT_NEAR(u.derivative(r.p_star),
              payment_derivative(z, b, olev::util::kw(r.p_star)), 1e-6);
}

TEST(BestResponse, InteriorBeatsNeighbors) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  auto f = [&](double p) { return u.value(p) - payment_of_total(z, b, olev::util::kw(p)); };
  EXPECT_NEAR(r.utility, f(r.p_star), 1e-9);
  for (double delta : {-5.0, -1.0, -0.1, 0.1, 1.0, 5.0}) {
    const double p = r.p_star + delta;
    if (p < 0.0 || p > 200.0) continue;
    EXPECT_LE(f(p), r.utility + 1e-9) << "delta=" << delta;
  }
}

TEST(BestResponse, GlobalMaximumAgainstGridScan) {
  const SectionCost z = make_cost();
  LogSatisfaction u(15.0);
  const std::vector<double> b{1.0, 3.0};
  const double p_max = 60.0;
  const BestResponse r = best_response(u, z, b, olev::util::kw(p_max));
  auto f = [&](double p) { return u.value(p) - payment_of_total(z, b, olev::util::kw(p)); };
  for (int i = 0; i <= 600; ++i) {
    const double p = p_max * i / 600.0;
    EXPECT_LE(f(p), r.utility + 1e-7) << "p=" << p;
  }
}

TEST(BestResponse, AllocationIsWaterFilled) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  const auto expected = water_fill(b, olev::util::kw(r.p_star));
  for (std::size_t c = 0; c < b.size(); ++c) {
    EXPECT_NEAR(r.allocation.row[c], expected.row[c], 1e-9);
  }
}

TEST(BestResponse, ZeroCapIsCornerZero) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{1.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(0.0));
  EXPECT_DOUBLE_EQ(r.p_star, 0.0);
}

TEST(BestResponse, ShrinksWhenOthersLoadGrows) {
  // The disincentive property the pricing policy is built for: more
  // congestion -> smaller optimal request.
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> light{1.0, 1.0};
  const std::vector<double> heavy{25.0, 25.0};
  const double p_light = best_response(u, z, light, olev::util::kw(500.0)).p_star;
  const double p_heavy = best_response(u, z, heavy, olev::util::kw(500.0)).p_star;
  EXPECT_GT(p_light, p_heavy);
}

TEST(BestResponse, MonotoneInSatisfactionWeight) {
  const SectionCost z = make_cost();
  const std::vector<double> b{3.0, 3.0};
  double prev = 0.0;
  for (double w : {1.0, 5.0, 20.0, 80.0}) {
    LogSatisfaction u(w);
    const double p = best_response(u, z, b, olev::util::kw(1000.0)).p_star;
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(BestResponse, RandomizedOptimality) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> b(sections);
    for (double& v : b) v = rng.uniform(0.0, 30.0);
    const double cap = rng.uniform(10.0, 80.0);
    const SectionCost z = make_cost(rng.uniform(1.0, 20.0), cap);
    LogSatisfaction u(rng.uniform(1.0, 50.0));
    const double p_max = rng.uniform(1.0, 150.0);
    const BestResponse r = best_response(u, z, b, olev::util::kw(p_max));
    ASSERT_GE(r.p_star, 0.0);
    ASSERT_LE(r.p_star, p_max + 1e-9);
    auto f = [&](double p) { return u.value(p) - payment_of_total(z, b, olev::util::kw(p)); };
    for (int i = 0; i <= 50; ++i) {
      const double p = p_max * i / 50.0;
      EXPECT_LE(f(p), r.utility + 1e-6)
          << "trial " << trial << " alternative p=" << p;
    }
  }
}

TEST(UtilityDerivative, MatchesComponents) {
  const SectionCost z = make_cost();
  LogSatisfaction u(10.0);
  const std::vector<double> b{2.0, 4.0};
  for (double p : {0.0, 1.0, 10.0}) {
    EXPECT_NEAR(utility_derivative(u, z, SortedLoads(b), olev::util::kw(p)),
                u.derivative(p) - payment_derivative(z, b, olev::util::kw(p)), 1e-12);
  }
}

}  // namespace
}  // namespace olev::core
