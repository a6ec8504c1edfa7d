// Lemma IV.3: the optimal power request of OLEV n against the announced
// payment function is
//
//   p* = 0                        if F'(0) < 0
//   p* = P_OLEV_n                 if F'(P_OLEV_n) > 0
//   p* : F'(p*) = 0               otherwise,
//
// with F(p) = U_n(p) - Psi_n(p) strictly concave, so F'(p) = U'_n(p) -
// Z'(lambda*(p)) is strictly decreasing and the interior root is unique.
// The solver uses clamped bisection on F' and then re-derives the row
// allocation by water-filling at p*.
#pragma once

#include <span>

#include "core/cost.h"
#include "core/satisfaction.h"
#include "core/water_filling.h"

namespace olev::core {

struct BestResponse {
  double p_star = 0.0;          ///< optimal total request
  WaterFillResult allocation;   ///< water-filled row at p_star
  double payment = 0.0;         ///< Psi_n(p_star)
  double utility = 0.0;         ///< F_n(p_star) = U_n - Psi_n
  int iterations = 0;
  enum class Case { kCornerZero, kCornerCap, kInterior } kind = Case::kInterior;
};

struct BestResponseOptions {
  double tolerance = 1e-9;
  int max_iterations = 200;
};

/// Solves Lemma IV.3 for one player.  `p_max` is P_OLEV_n (Eq. 2-3);
/// `others_load` is b.  Requires a strictly convex section cost.  Sorts b
/// once, so every bisection step finds the water level in O(log C).
[[nodiscard]] BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                                         std::span<const double> others_load,
                                         Kilowatts p_max,
                                         const BestResponseOptions& options = {});

/// Allocation-free result of best_response_into: everything BestResponse
/// carries except the row, which the caller owns.
struct BestResponseScalars {
  double p_star = 0.0;
  double level = 0.0;           ///< lambda* at p_star
  double payment = 0.0;
  double utility = 0.0;
  int active_sections = 0;
  int iterations = 0;
  BestResponse::Case kind = BestResponse::Case::kInterior;
};

/// Real-time core of the solver (util/hot.h): writes the row allocation at
/// p* into `row` (length must equal others_load.size()) and never touches
/// the allocator.  best_response delegates here, so results are
/// bit-identical.
[[nodiscard]] OLEV_HOT BestResponseScalars best_response_into(
    const Satisfaction& u, const SectionCost& z,
    const SortedLoads& others_load, Kilowatts p_max, std::span<double> row,
    const BestResponseOptions& options = {});

/// F'_n(p): marginal utility of requesting one more unit of power.
[[nodiscard]] double utility_derivative(const Satisfaction& u, const SectionCost& z,
                                        const SortedLoads& others_load,
                                        Kilowatts p);

}  // namespace olev::core
