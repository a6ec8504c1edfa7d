#include "core/payment.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace olev::core {
namespace {

SectionCost make_cost(double cap = 50.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(8.0, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
}

TEST(ExternalityPayment, ZeroRowPaysNothing) {
  // Eq. (9) unbiasedness: xi_n(p_-n, 0) = 0.
  const SectionCost z = make_cost();
  const std::vector<double> b{3.0, 7.0, 1.0};
  const std::vector<double> zero(3, 0.0);
  EXPECT_DOUBLE_EQ(externality_payment(z, b, zero), 0.0);
}

TEST(ExternalityPayment, MatchesManualSum) {
  const SectionCost z = make_cost();
  const std::vector<double> b{2.0, 5.0};
  const std::vector<double> row{1.0, 3.0};
  const double expected = (z.value(3.0) - z.value(2.0)) +
                          (z.value(8.0) - z.value(5.0));
  EXPECT_NEAR(externality_payment(z, b, row), expected, 1e-12);
}

TEST(ExternalityPayment, LengthMismatchThrows) {
  const SectionCost z = make_cost();
  const std::vector<double> b{1.0, 2.0};
  const std::vector<double> row{1.0};
  EXPECT_THROW((void)externality_payment(z, b, row), std::invalid_argument);
}

TEST(ExternalityPayment, PositiveForPositiveRow) {
  const SectionCost z = make_cost();
  const std::vector<double> b{0.0, 0.0};
  const std::vector<double> row{1.0, 0.0};
  EXPECT_GT(externality_payment(z, b, row), 0.0);
}

TEST(PaymentOfTotal, ZeroRequestIsFree) {
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(payment_of_total(z, b, olev::util::kw(0.0)), 0.0);
}

TEST(PaymentOfTotal, StrictlyIncreasingInRequest) {
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0, 9.0};
  double prev = 0.0;
  for (double total = 1.0; total <= 60.0; total += 1.0) {
    const double payment = payment_of_total(z, b, olev::util::kw(total));
    EXPECT_GT(payment, prev) << "total=" << total;
    prev = payment;
  }
}

TEST(PaymentOfTotal, ConvexInRequest) {
  // Psi'' > 0: second differences positive.
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0, 9.0};
  constexpr double kStep = 2.0;
  double prev_diff = -1e18;
  for (double total = kStep; total <= 80.0; total += kStep) {
    const double diff = payment_of_total(z, b, olev::util::kw(total)) -
                        payment_of_total(z, b, olev::util::kw(total - kStep));
    EXPECT_GT(diff, prev_diff) << "total=" << total;
    prev_diff = diff;
  }
}

TEST(PaymentOfTotal, CheaperWhenOthersLoadIsLower) {
  // The decentivization property: the same request costs more on a more
  // congested system.
  const SectionCost z = make_cost();
  const std::vector<double> light{1.0, 1.0, 1.0};
  const std::vector<double> heavy{30.0, 30.0, 30.0};
  EXPECT_LT(payment_of_total(z, light, olev::util::kw(10.0)), payment_of_total(z, heavy, olev::util::kw(10.0)));
}

TEST(PaymentDerivative, EnvelopeMatchesFiniteDifference) {
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0, 9.0, 0.5};
  constexpr double kH = 1e-5;
  for (double total : {0.5, 3.0, 12.0, 40.0}) {
    const double numeric = (payment_of_total(z, b, olev::util::kw(total + kH)) -
                            payment_of_total(z, b, olev::util::kw(total - kH))) /
                           (2.0 * kH);
    EXPECT_NEAR(payment_derivative(z, b, olev::util::kw(total)), numeric, 1e-4)
        << "total=" << total;
  }
}

TEST(PaymentDerivative, AtZeroEqualsMarginalAtMinLoad) {
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0, 9.0};
  EXPECT_NEAR(payment_derivative(z, b, olev::util::kw(0.0)), z.derivative(2.0), 1e-12);
}

TEST(PaymentDerivative, IncreasingInTotal) {
  const SectionCost z = make_cost();
  const std::vector<double> b{4.0, 2.0};
  double prev = payment_derivative(z, b, olev::util::kw(0.0));
  for (double total = 2.0; total <= 50.0; total += 2.0) {
    const double d = payment_derivative(z, b, olev::util::kw(total));
    EXPECT_GE(d, prev - 1e-12);
    prev = d;
  }
}

TEST(PaymentOfTotal, WaterFilledSplitIsCheapestSplit) {
  // Eq. (11): the announced payment is the minimum externality over all
  // feasible splits of the same total.
  const SectionCost z = make_cost();
  const std::vector<double> b{6.0, 1.0, 3.0};
  const double total = 9.0;
  const double announced = payment_of_total(z, b, olev::util::kw(total));
  util::Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    double u1 = rng.uniform(0.0, total);
    double u2 = rng.uniform(0.0, total);
    if (u1 > u2) std::swap(u1, u2);
    const std::vector<double> alt{u1, u2 - u1, total - u2};
    EXPECT_GE(externality_payment(z, b, alt), announced - 1e-9);
  }
}

}  // namespace
}  // namespace olev::core
