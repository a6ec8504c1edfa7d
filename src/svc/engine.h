// The grid-side update of the paper's asynchronous best-response process
// (Section IV-D), as an online, incrementally-updated game state.
//
// Each applied request is one player update: the grid clamps the request to
// the player's admission cap, water-fills the admitted total against the
// other players' current load (Lemma IV.1), charges the externality payment
// (Eq. 8-9) and closes a player cycle once every row moved by less than
// epsilon.  Theorem IV.1 guarantees the sequence of such updates converges
// to the unique socially optimal schedule no matter how requests
// interleave, which is exactly what lets the service batch them: a batch is
// applied sequentially, each entry against the then-current state.
//
// This is the one implementation of that update.  The socket service
// (svc/service.h) and the V2I bus driver (svc/distributed.h) both apply
// every request through PricingEngine::apply, so a grid-paced olevd session
// and run_distributed_game agree bit-for-bit by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cost.h"
#include "core/schedule.h"
#include "core/water_filling.h"
#include "util/hot.h"

namespace olev::svc {

/// Which pricing arithmetic the engine runs per update.
///
/// kExact is the paper's N-player update (column_totals_excluding +
/// water_fill + externality payment, O(N * C) per update through the
/// exclusion scan).  kMeanField prices the update against the aggregate
/// field instead (core/mean_field.h): the row is the flat T-share spread
/// p / C and the payment is the flat-field externality
/// C * [Z(T/C) - Z((T - p)/C)], O(C) per update with no dependence on N --
/// the serving mode that scales olevd to millions of bound players.  A
/// mean-field engine keeps one row total per player plus the aggregate T,
/// never the N x C matrix: every row is flat, so its total is all the state
/// the update reads.
enum class EngineMode { kExact, kMeanField };

struct EngineConfig {
  std::size_t players = 0;
  std::size_t sections = 0;
  /// Convergence threshold on the max row-total change over one N-update
  /// cycle (the DistributedConfig::epsilon contract).
  double epsilon = 1e-7;
  /// Per-player admission caps in kW; empty = unlimited (the trusted
  /// run_distributed_game mode).  Requests are clamped, never rejected.
  std::vector<double> caps_kw;
  EngineMode mode = EngineMode::kExact;
};

class PricingEngine {
 public:
  PricingEngine(core::SectionCost cost, EngineConfig config);

  struct Applied {
    std::vector<double> row;  ///< water-filled allocation p_{n,c}
    double payment = 0.0;     ///< externality payment at this update
  };

  /// One player update: clamp, water-fill, commit, charge.  `player` must be
  /// < players() and `total_kw` finite (the service validates before
  /// calling).  Real-time hot root (util/hot.h): the returned reference
  /// points at a pre-sized member arena, valid until the next apply() --
  /// after construction, updates never touch the allocator.
  OLEV_HOT const Applied& apply(std::size_t player, double total_kw);

  /// b for `player` under the current schedule -- the payment-function
  /// announcement of Section IV-D.  In mean-field mode this is the flat
  /// field excluding the player's own share, (T - p_n)/C on every section.
  std::vector<double> others_load(std::size_t player) const;

  EngineMode mode() const { return config_.mode; }

  std::size_t players() const { return config_.players; }
  std::size_t sections() const { return config_.sections; }
  /// The dense N x C schedule.  Exact mode only: a mean-field engine keeps
  /// no matrix, so this throws std::logic_error there (read state_kw()).
  const core::PowerSchedule& schedule() const;
  /// The per-player state a snapshot carries: in exact mode the row-major
  /// N x C schedule, in mean-field mode the N row totals p_n.
  std::span<const double> state_kw() const;
  const core::SectionCost& cost() const { return cost_; }

  /// True once a full player cycle moved every row total by < epsilon.
  bool converged() const { return converged_; }
  /// Convergence residual: the max row-total change seen so far in the
  /// current player cycle (compared against epsilon at each cycle boundary).
  /// Exposed for the admin plane's engine snapshot.
  double residual() const { return cycle_max_delta_; }
  std::size_t updates() const { return updates_; }
  /// Round-robin cursor for grid-paced announcements (updates mod players).
  std::size_t cursor() const { return updates_ % config_.players; }
  /// Resolved per-player admission caps (empty config = +infinity entries);
  /// exported into snapshots so a resume can verify shape compatibility.
  const std::vector<double>& caps_kw() const { return caps_; }
  /// Mean-field running aggregate T (0 in exact mode).  Snapshot state: it
  /// must be restored bit-exact, not recomputed, to keep a resumed
  /// mean-field session's payments bit-identical (persist/snapshot.h).
  double total_load_kw() const { return total_load_kw_; }

  /// Restores mid-game state captured by a persist::EngineSnapshot: the
  /// per-player state (state_kw()'s layout) plus the convergence
  /// bookkeeping.  The engine must have the snapshot's mode and shape: a
  /// state of any other size than state_kw().size() throws
  /// std::invalid_argument.  Cold path: runs once at boot, before any
  /// apply(), and may allocate freely.
  void restore_state(std::span<const double> state, std::uint64_t updates,
                     double residual, bool converged, double total_load_kw);

 private:
  /// Both fill scratch_applied_ in place, commit the player's new row and
  /// return |new row total - old row total|; apply() hands out the reference.
  double apply_exact(std::size_t player, double admitted);
  double apply_mean_field(std::size_t player, double admitted);

  core::SectionCost cost_;
  EngineConfig config_;
  core::PowerSchedule schedule_;     ///< exact mode only (mean-field: empty)
  std::vector<double> row_totals_;   ///< mean-field mode only: p_n per player
  std::vector<double> caps_;
  // --- pre-sized hot-path arenas (sized once in the constructor) ---
  Applied scratch_applied_;          ///< row pre-sized to C
  std::vector<double> scratch_others_;  ///< b of the updating player
  core::SortedLoads scratch_sorted_;    ///< reserved to C sections
  std::size_t updates_ = 0;
  double cycle_max_delta_ = 0.0;
  bool converged_ = false;
  double total_load_kw_ = 0.0;  ///< mean-field mode: running aggregate T
};

}  // namespace olev::svc
