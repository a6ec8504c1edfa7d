#include "core/best_response.h"

#include "core/payment.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest (tools/olev_rtcheck.py).  The virtual dispatch
// through Satisfaction / the pricing policy is sanctioned: every concrete
// override is itself a registered hot root, so the subtrees behind the
// indirect calls are checked too.
OLEV_HOT_ROOT("olev::core::best_response_into");
OLEV_RT_VCALL_OK("olev::core::best_response_into",
                 "Satisfaction/SectionCost dispatch; every override is a "
                 "registered hot root");
OLEV_RT_VCALL_OK("olev::core::utility_derivative",
                 "Satisfaction::derivative dispatch; every override is a "
                 "registered hot root");

#if OLEV_OBS_ENABLED
namespace {
// Eagerly-bound obs handles: namespace-scope dynamic initialization runs at
// load time, so the hot path carries no __cxa_guard_acquire or registry
// lock (a function-local static would put both on it).
obs::Counter& g_obs_solves =
    obs::Registry::instance().counter("core.best_response.solves");
// Corner solutions report 0 iterations; interior ones the bisection count.
obs::Histogram& g_obs_iterations = obs::Registry::instance().histogram(
    "core.best_response.iterations", {0, 8, 16, 24, 32, 40, 48, 64, 96});
}  // namespace
#endif

double utility_derivative(const Satisfaction& u, const SectionCost& z,
                          const SortedLoads& others_load, Kilowatts p) {
  return u.derivative(p.value()) - payment_derivative(z, others_load, p);
}

BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                           std::span<const double> others_load,
                           Kilowatts p_max_kw,
                           const BestResponseOptions& options) {
  BestResponse response;
  response.allocation.row.resize(others_load.size());
  const BestResponseScalars scalars =
      best_response_into(u, z, SortedLoads(others_load), p_max_kw,
                         response.allocation.row, options);
  response.p_star = scalars.p_star;
  response.allocation.level = scalars.level;
  response.allocation.active_sections = scalars.active_sections;
  response.payment = scalars.payment;
  response.utility = scalars.utility;
  response.iterations = scalars.iterations;
  response.kind = scalars.kind;
  return response;
}

BestResponseScalars best_response_into(const Satisfaction& u,
                                       const SectionCost& z,
                                       const SortedLoads& others_load,
                                       Kilowatts p_max_kw, std::span<double> row,
                                       const BestResponseOptions& options) {
  const double p_max = p_max_kw.value();
  if (p_max < 0.0) {
    util::hot_fail_invalid_argument("best_response: negative p_max");
  }
  OLEV_AUDIT_FINITE(p_max, "best_response: p_max");
  if (!z.strictly_convex()) {
    util::hot_fail_logic_error(
        "best_response: the best-response characterization requires a "
        "strictly convex section cost (Lemma IV.2)");
  }

  BestResponseScalars result;

  const double f_at_zero = utility_derivative(u, z, others_load, Kilowatts{});
  if (f_at_zero <= 0.0 || p_max == 0.0) {
    // Marginal price at zero already exceeds marginal satisfaction.
    result.p_star = 0.0;
    result.kind = BestResponse::Case::kCornerZero;
  } else {
    const double f_at_cap = utility_derivative(u, z, others_load, p_max_kw);
    if (f_at_cap >= 0.0) {
      result.p_star = p_max;
      result.kind = BestResponse::Case::kCornerCap;
    } else {
      // Interior: bisect the strictly decreasing F' on [0, p_max].
      double lo = 0.0;
      double hi = p_max;
      int it = 0;
      while (hi - lo > options.tolerance && it < options.max_iterations) {
        const double mid = 0.5 * (lo + hi);
        if (utility_derivative(u, z, others_load, Kilowatts{mid}) > 0.0) {
          lo = mid;
        } else {
          hi = mid;
        }
        ++it;
      }
      result.p_star = 0.5 * (lo + hi);
      result.iterations = it;
      result.kind = BestResponse::Case::kInterior;
    }
  }

  result.level = others_load.fill_into(Kilowatts{result.p_star}, row,
                                       &result.active_sections);
  result.payment = externality_payment(z, others_load.values(), row);
  result.utility = u.value(result.p_star) - result.payment;
  OLEV_OBS_ONLY(g_obs_solves.add(1); g_obs_iterations.observe(
      static_cast<double>(result.iterations));)
  OLEV_AUDIT_FINITE(result.p_star, "best_response: p_star");
  OLEV_AUDIT_FINITE(result.payment, "best_response: payment");
  OLEV_AUDIT_FINITE(result.utility, "best_response: utility");
  return result;
}

}  // namespace olev::core
