// PowerSchedule: the N x C matrix p of Section IV-B -- p[n][c] is the power
// (kW) OLEV n draws from charging section c.  Row n is OLEV n's schedule
// p_n; column sum P_c is the total load on section c.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/hot.h"

namespace olev::core {

class PowerSchedule {
 public:
  PowerSchedule() = default;
  PowerSchedule(std::size_t players, std::size_t sections);

  std::size_t players() const { return players_; }
  std::size_t sections() const { return sections_; }

  double at(std::size_t n, std::size_t c) const { return data_[n * sections_ + c]; }
  void set(std::size_t n, std::size_t c, double v) { data_[n * sections_ + c] = v; }

  OLEV_HOT std::span<const double> row(std::size_t n) const;
  OLEV_HOT void set_row(std::size_t n, std::span<const double> values);

  /// p_n = sum_c p[n][c].
  double row_total(std::size_t n) const;
  /// P_c = sum_n p[n][c].
  double column_total(std::size_t c) const;
  /// All column totals (length C).
  std::vector<double> column_totals() const;
  /// Column totals excluding row n -- the b_c = sum_{j != n} p[j][c] vector
  /// every best response is computed against.
  std::vector<double> column_totals_excluding(std::size_t n) const;
  /// Same, written into a caller buffer of length C (util/hot.h: hot, never
  /// allocates).  Bit-identical to the allocating variant: same per-column
  /// fold over rows, same subtraction, same non-negativity clamp.
  OLEV_HOT void column_totals_excluding_into(std::size_t n,
                                             std::span<double> out) const;

  /// max_{n,c} |a - b| between two equally-shaped schedules.
  double max_abs_diff(const PowerSchedule& other) const;

  /// Sum of all entries.
  double total() const;

  std::span<const double> flat() const { return data_; }

 private:
  std::size_t players_ = 0;
  std::size_t sections_ = 0;
  std::vector<double> data_;
};

}  // namespace olev::core
