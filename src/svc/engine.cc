#include "svc/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/payment.h"
#include "core/water_filling.h"
#include "obs/flight.h"
#include "util/hot.h"

namespace olev::svc {

OLEV_HOT_ROOT("olev::svc::PricingEngine::apply");

PricingEngine::PricingEngine(core::SectionCost cost, EngineConfig config)
    : cost_(std::move(cost)),
      config_(std::move(config)),
      caps_(std::move(config_.caps_kw)) {  // one copy of the N caps, here
  if (config_.players == 0 || config_.sections == 0) {
    throw std::invalid_argument("PricingEngine: players/sections must be > 0");
  }
  if (caps_.empty()) {
    caps_.assign(config_.players, std::numeric_limits<double>::infinity());
  } else if (caps_.size() != config_.players) {
    throw std::invalid_argument("PricingEngine: caps_kw size != players");
  }
  if (config_.mode == EngineMode::kMeanField) {
    row_totals_.assign(config_.players, 0.0);
  } else {
    schedule_ = core::PowerSchedule(config_.players, config_.sections);
  }
  // Size the apply() arenas once: after this constructor returns, the
  // serve path never touches the allocator (enforced by tools/olev_rtcheck.py
  // and, in audit builds, by the operator-new interposer).
  scratch_applied_.row.assign(config_.sections, 0.0);
  scratch_others_.assign(config_.sections, 0.0);
  scratch_sorted_.reserve(config_.sections);
}

const core::PowerSchedule& PricingEngine::schedule() const {
  if (config_.mode == EngineMode::kMeanField) {
    throw std::logic_error(
        "PricingEngine: a mean-field engine keeps no schedule matrix");
  }
  return schedule_;
}

std::span<const double> PricingEngine::state_kw() const {
  if (config_.mode == EngineMode::kMeanField) return row_totals_;
  return schedule_.flat();
}

void PricingEngine::restore_state(std::span<const double> state,
                                  std::uint64_t updates, double residual,
                                  bool converged, double total_load_kw) {
  if (state.size() != state_kw().size()) {
    throw std::invalid_argument(
        "PricingEngine: restore state size does not match the engine's "
        "mode and shape");
  }
  if (config_.mode == EngineMode::kMeanField) {
    row_totals_.assign(state.begin(), state.end());
  } else {
    for (std::size_t n = 0; n < config_.players; ++n) {
      schedule_.set_row(
          n, state.subspan(n * config_.sections, config_.sections));
    }
  }
  updates_ = static_cast<std::size_t>(updates);
  cycle_max_delta_ = residual;
  converged_ = converged;
  total_load_kw_ = total_load_kw;
}

std::vector<double> PricingEngine::others_load(std::size_t player) const {
  if (config_.mode == EngineMode::kMeanField) {
    const double sections = static_cast<double>(config_.sections);
    const double others = total_load_kw_ - row_totals_[player];
    return std::vector<double>(config_.sections, others / sections);
  }
  return schedule_.column_totals_excluding(player);
}

double PricingEngine::apply_exact(std::size_t player, double admitted) {
  // The paper's N-player update: exclusion scan, Lemma IV.1 fill, Eq. 8-9
  // payment.  SortedLoads::fill_into is property-tested bit-identical to
  // water_fill's row (tests/test_water_filling.cc), so the arena fill
  // reproduces the allocating solver's allocation exactly.
  const double previous = schedule_.row_total(player);
  schedule_.column_totals_excluding_into(player, scratch_others_);
  scratch_sorted_.reassign(scratch_others_);
  scratch_sorted_.fill_into(util::kw(admitted), scratch_applied_.row);
  schedule_.set_row(player, scratch_applied_.row);
  scratch_applied_.payment =
      core::externality_payment(cost_, scratch_others_, scratch_applied_.row);
  return std::abs(schedule_.row_total(player) - previous);
}

double PricingEngine::apply_mean_field(std::size_t player, double admitted) {
  // The aggregate-field update (core/mean_field.h): the player's row is its
  // flat share of the field and the payment is the flat-field externality.
  // O(1) state per player; the only O(C) work is the reply row.
  const double previous = row_totals_[player];
  total_load_kw_ += admitted - previous;
  const double sections = static_cast<double>(config_.sections);
  const double share = admitted / sections;
  // The stored total is the left-to-right fold of the C equal cells
  // (PowerSchedule::row_total of the flat row), not `admitted`: the
  // residual, the converged flag and T are defined on that fold.
  double total = 0.0;
  for (double& cell : scratch_applied_.row) {
    cell = share;
    total += share;
  }
  row_totals_[player] = total;
  scratch_applied_.payment =
      sections * (cost_.value(total_load_kw_ / sections) -
                  cost_.value((total_load_kw_ - admitted) / sections));
  return std::abs(total - previous);
}

const PricingEngine::Applied& PricingEngine::apply(std::size_t player,
                                                   double total_kw) {
  OLEV_HOT_REGION("svc.engine.apply");
  const double admitted = std::clamp(total_kw, 0.0, caps_[player]);
  const double moved = config_.mode == EngineMode::kMeanField
                           ? apply_mean_field(player, admitted)
                           : apply_exact(player, admitted);

  cycle_max_delta_ = std::max(cycle_max_delta_, moved);
  ++updates_;
  if (updates_ % config_.players == 0 && !converged_) {
    if (cycle_max_delta_ < config_.epsilon) {
      converged_ = true;
      // The flight-recorder record path is allocation/lock-free (its own
      // hot root), so calling it from inside this one is wall-legal.
      obs::flight::record(obs::flight::Event::kRoundConverge,
                          static_cast<std::uint64_t>(updates_),
                          std::bit_cast<std::uint64_t>(cycle_max_delta_));
    } else {
      cycle_max_delta_ = 0.0;
    }
  }
  return scratch_applied_;
}

}  // namespace olev::svc
