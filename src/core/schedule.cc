#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace olev::core {

// Real-time wall manifest: the row accessors and the b-vector fold are on
// every hot Game / engine update.
OLEV_HOT_ROOT("olev::core::PowerSchedule::row");
OLEV_HOT_ROOT("olev::core::PowerSchedule::set_row");
OLEV_HOT_ROOT("olev::core::PowerSchedule::column_totals_excluding_into");

PowerSchedule::PowerSchedule(std::size_t players, std::size_t sections)
    : players_(players), sections_(sections), data_(players * sections, 0.0) {}

std::span<const double> PowerSchedule::row(std::size_t n) const {
  if (n >= players_) util::hot_fail_out_of_range("PowerSchedule::row");
  return {data_.data() + n * sections_, sections_};
}

void PowerSchedule::set_row(std::size_t n, std::span<const double> values) {
  if (n >= players_) util::hot_fail_out_of_range("PowerSchedule::set_row");
  if (values.size() != sections_) {
    util::hot_fail_invalid_argument("PowerSchedule::set_row: wrong row length");
  }
  std::copy(values.begin(), values.end(), data_.begin() + n * sections_);
}

double PowerSchedule::row_total(std::size_t n) const {
  double sum = 0.0;
  for (double v : row(n)) sum += v;
  return sum;
}

double PowerSchedule::column_total(std::size_t c) const {
  if (c >= sections_) throw std::out_of_range("PowerSchedule::column_total");
  double sum = 0.0;
  for (std::size_t n = 0; n < players_; ++n) sum += at(n, c);
  return sum;
}

std::vector<double> PowerSchedule::column_totals() const {
  std::vector<double> totals(sections_, 0.0);
  for (std::size_t n = 0; n < players_; ++n) {
    const double* row_ptr = data_.data() + n * sections_;
    for (std::size_t c = 0; c < sections_; ++c) totals[c] += row_ptr[c];
  }
  return totals;
}

std::vector<double> PowerSchedule::column_totals_excluding(std::size_t n) const {
  std::vector<double> totals(sections_, 0.0);
  column_totals_excluding_into(n, totals);
  return totals;
}

void PowerSchedule::column_totals_excluding_into(std::size_t n,
                                                 std::span<double> out) const {
  if (out.size() != sections_) {
    util::hot_fail_invalid_argument(
        "PowerSchedule::column_totals_excluding_into: wrong length");
  }
  // Same fold as column_totals(): accumulate row-major so the summation
  // order (and hence the floating-point result) matches bit-for-bit.
  for (std::size_t c = 0; c < sections_; ++c) out[c] = 0.0;
  for (std::size_t m = 0; m < players_; ++m) {
    const double* row_ptr = data_.data() + m * sections_;
    for (std::size_t c = 0; c < sections_; ++c) out[c] += row_ptr[c];
  }
  const auto own = row(n);
  for (std::size_t c = 0; c < sections_; ++c) out[c] -= own[c];
  // Guard against negative dust from floating-point cancellation.
  for (std::size_t c = 0; c < sections_; ++c) out[c] = std::max(0.0, out[c]);
}

double PowerSchedule::max_abs_diff(const PowerSchedule& other) const {
  if (players_ != other.players_ || sections_ != other.sections_) {
    throw std::invalid_argument("PowerSchedule::max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

double PowerSchedule::total() const {
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum;
}

}  // namespace olev::core
