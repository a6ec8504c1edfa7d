#include "core/schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace olev::core {
namespace {

TEST(PowerSchedule, StartsZeroed) {
  PowerSchedule schedule(3, 4);
  EXPECT_EQ(schedule.players(), 3u);
  EXPECT_EQ(schedule.sections(), 4u);
  EXPECT_DOUBLE_EQ(schedule.total(), 0.0);
  for (std::size_t n = 0; n < 3; ++n) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(schedule.at(n, c), 0.0);
  }
}

TEST(PowerSchedule, SetAndGet) {
  PowerSchedule schedule(2, 2);
  schedule.set(0, 1, 5.0);
  schedule.set(1, 0, 3.0);
  EXPECT_DOUBLE_EQ(schedule.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(schedule.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(schedule.total(), 8.0);
}

TEST(PowerSchedule, RowViewAndSetRow) {
  PowerSchedule schedule(2, 3);
  const std::vector<double> row{1.0, 2.0, 3.0};
  schedule.set_row(0, row);
  const auto view = schedule.row(0);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[1], 2.0);
  EXPECT_DOUBLE_EQ(schedule.row_total(0), 6.0);
  EXPECT_DOUBLE_EQ(schedule.row_total(1), 0.0);
}

TEST(PowerSchedule, SetRowValidatesShape) {
  PowerSchedule schedule(2, 3);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(schedule.set_row(0, bad), std::invalid_argument);
  const std::vector<double> row{1.0, 2.0, 3.0};
  EXPECT_THROW(schedule.set_row(5, row), std::out_of_range);
  EXPECT_THROW(schedule.row(5), std::out_of_range);
}

TEST(PowerSchedule, ColumnTotals) {
  PowerSchedule schedule(2, 2);
  schedule.set(0, 0, 1.0);
  schedule.set(0, 1, 2.0);
  schedule.set(1, 0, 3.0);
  schedule.set(1, 1, 4.0);
  EXPECT_DOUBLE_EQ(schedule.column_total(0), 4.0);
  EXPECT_DOUBLE_EQ(schedule.column_total(1), 6.0);
  const auto totals = schedule.column_totals();
  EXPECT_DOUBLE_EQ(totals[0], 4.0);
  EXPECT_DOUBLE_EQ(totals[1], 6.0);
  EXPECT_THROW(schedule.column_total(9), std::out_of_range);
}

TEST(PowerSchedule, ColumnTotalsExcluding) {
  PowerSchedule schedule(3, 2);
  schedule.set(0, 0, 1.0);
  schedule.set(1, 0, 2.0);
  schedule.set(2, 0, 4.0);
  const auto excluding_1 = schedule.column_totals_excluding(1);
  EXPECT_DOUBLE_EQ(excluding_1[0], 5.0);
  EXPECT_DOUBLE_EQ(excluding_1[1], 0.0);
}

TEST(PowerSchedule, ColumnTotalsExcludingNeverNegative) {
  PowerSchedule schedule(1, 1);
  schedule.set(0, 0, 1.0);
  // Excluding the only contributor: exact zero, not -epsilon dust.
  EXPECT_DOUBLE_EQ(schedule.column_totals_excluding(0)[0], 0.0);
}

TEST(PowerSchedule, MaxAbsDiff) {
  PowerSchedule a(1, 2);
  PowerSchedule b(1, 2);
  a.set(0, 0, 1.0);
  b.set(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
  PowerSchedule wrong_shape(2, 2);
  EXPECT_THROW(a.max_abs_diff(wrong_shape), std::invalid_argument);
}

TEST(PowerSchedule, FlatSpansAllEntries) {
  PowerSchedule schedule(2, 2);
  schedule.set(1, 1, 7.0);
  const auto flat = schedule.flat();
  EXPECT_EQ(flat.size(), 4u);
  EXPECT_DOUBLE_EQ(flat[3], 7.0);
}

}  // namespace
}  // namespace olev::core
