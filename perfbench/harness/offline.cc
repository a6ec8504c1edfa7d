// offline-solve: cold equilibrium solves in this process, one thread.
//
// A seeded stream of Section V scenarios is built once (set-up), then the
// games are solved round-robin, each from a zero schedule by Game::run, for
// the measured window.  Every fixed point is checked (Lemma IV.1 rows,
// Eq. 8-9 payments, convergence), repeat solves of one scenario must hit
// the same bits, and a seeded subset is checked against the centralized
// welfare maximizer (Theorem IV.1).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/central.h"
#include "core/game.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Distinct scenarios, solved round-robin.
constexpr std::size_t kConfigs = 256;
/// OLEVs per scenario: the paper's largest Section V point.
constexpr std::size_t kOlevs = 50;
/// Target congestion degree range of the scenario stream.
constexpr double kDegreeMin = 0.5;
constexpr double kDegreeMax = 1.1;
/// Scenario-set builds behind setup_s, at least: one before the window,
/// one after each solve slice, and the rest after the window.
constexpr std::size_t kSetupReps = 25;
/// Fixed points checked against the central optimum per run, and the
/// relative welfare gap allowed (Theorem IV.1).
constexpr int kOracleChecks = 2;
constexpr double kOracleTolerance = 1e-6;
constexpr std::size_t kSliceSolves = 1000;
/// Failed solves named one by one in the report; the rest are counted.
constexpr std::size_t kReportedFailures = 8;

/// FNV-1a over the bytes of a run of doubles.
std::uint64_t fnv1a(std::uint64_t hash, const double* data, std::size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t digest(const core::GameResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, r.schedule.flat().data(), r.schedule.flat().size());
  h = fnv1a(h, r.payments.data(), r.payments.size());
  return h;
}

/// Empty when the fixed point passes every output check.
std::string check_fixed_point(const core::GameResult& r,
                              const core::Scenario& scenario) {
  if (!r.converged) return "did not converge";
  const std::vector<double>& p_max = scenario.p_max();
  for (std::size_t n = 0; n < r.schedule.players(); ++n) {
    double total = 0.0;
    for (const double v : r.schedule.row(n)) {
      if (!std::isfinite(v) || v < 0.0) return "row entry negative or non-finite";
      total += v;
    }
    const double tol = 1e-9 * std::max(1.0, p_max[n]);
    if (total > p_max[n] + tol) return "row sum exceeds P_OLEV (Lemma IV.1)";
    if (std::abs(total - r.requests[n]) > tol) {
      return "row sum != request (Lemma IV.1)";
    }
    if (!std::isfinite(r.payments[n]) || r.payments[n] < 0.0) {
      return "payment negative or non-finite (Eq. 8-9)";
    }
  }
  return {};
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::vector<core::ScenarioConfig> scenario_configs(std::uint64_t seed,
                                                   std::size_t count) {
  std::vector<core::ScenarioConfig> configs;
  for (std::size_t k = 0; k < count; ++k) {
    Rand rng(mix_seed(seed, 1000 + k));
    core::ScenarioConfig c;
    c.num_olevs = kOlevs;
    c.num_sections = kSections;
    c.velocity = util::mph(rng.below(2) == 0 ? 60.0 : 80.0);
    c.pricing = core::PricingKind::kNonlinear;
    c.target_degree = rng.uniform(kDegreeMin, kDegreeMax);
    c.seed = rng.next();
    configs.push_back(c);
  }
  return configs;
}

void run_offline(double seconds, std::uint64_t seed, RunReport& report,
                 bool spans) {
  const std::vector<core::ScenarioConfig> configs =
      scenario_configs(seed, kConfigs);

  // Set-up: build the scenario set and its games.  The set is rebuilt in
  // place once per solve slice, so setup_s samples the same stretch of the
  // host as the solves rather than its first second, and a rebuilt
  // scenario must solve to the same bits.  Each solve slice, with the
  // build that opens it, runs on the next CPU in turn.
  CpuRotation rotation;
  std::vector<double> setup_s;
  std::vector<core::Scenario> scenarios;
  std::vector<core::Game> games;
  auto build = [&] {
    games.clear();
    scenarios.clear();
    scenarios.reserve(configs.size());
    games.reserve(configs.size());
    const std::int64_t t0 = now_ns();
    for (const core::ScenarioConfig& c : configs) {
      scenarios.push_back(core::Scenario::build(c));
      games.push_back(scenarios.back().make_game());
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  rotation.next();
  build();

  // Measured window: cold solves, round-robin over the scenario set.
  std::vector<double> solve_us;
  std::vector<double> span_us;  ///< time spent recording each solve's span
  std::vector<std::uint64_t> first_digest(configs.size(), 0);
  std::vector<double> first_welfare(configs.size(), 0.0);
  std::size_t failed = 0;
  double busy_s = 0.0;
  const std::int64_t window_end =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < window_end || i < configs.size(); ++i) {
    if (i % kSliceSolves == 0) {
      rotation.next();
      if (i > 0) build();
    }
    const std::size_t k = i % configs.size();
    const std::int64_t t0 = now_ns();
    const core::GameResult result = games[k].run();
    const std::int64_t t1 = now_ns();
    solve_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (spans) {
      report.spans.add({"core.game.run", "", i + 1, t0, t1});
      span_us.push_back(static_cast<double>(now_ns() - t1) / 1e3);
    }
    busy_s += static_cast<double>(t1 - t0) * 1e-9;

    std::string why = check_fixed_point(result, scenarios[k]);
    const std::uint64_t d = digest(result);
    if (why.empty()) {
      if (first_digest[k] == 0) {
        first_digest[k] = d;
        first_welfare[k] = result.welfare;
      } else if (first_digest[k] != d) {
        why = "fixed point of a repeated scenario changed bits";
      }
    }
    if (!why.empty() && ++failed <= kReportedFailures) {
      report.fail_check("scenario " + std::to_string(k) + ": " + why);
    }
  }
  while (setup_s.size() < kSetupReps) {
    rotation.next();
    build();
  }
  if (failed > kReportedFailures) {
    report.fail_check(std::to_string(failed) + " solves failed output checks");
  }

  // Theorem IV.1 on a seeded subset: the asynchronous game's fixed point
  // attains the centralized optimum's welfare.
  Rand pick(mix_seed(seed, 77));
  JsonObject oracle;
  for (int c = 0; c < kOracleChecks; ++c) {
    const std::size_t k = pick.below(configs.size());
    const core::Scenario& s = scenarios[k];
    const auto satisfactions = s.clone_satisfactions();
    const core::CentralResult central = core::maximize_welfare(
        satisfactions, s.p_max(), s.cost(), kSections);
    const double gap = std::abs(first_welfare[k] - central.welfare) /
                       std::max(1.0, std::abs(central.welfare));
    JsonObject entry;
    entry.num("game_welfare", first_welfare[k])
        .num("central_welfare", central.welfare)
        .num("relative_gap", gap)
        .boolean("central_converged", central.converged);
    oracle.object("scenario_" + std::to_string(k), entry);
    if (!(gap <= kOracleTolerance)) {
      report.fail_check("scenario " + std::to_string(k) +
                        ": welfare gap to the central optimum " +
                        std::to_string(gap) + " > " +
                        std::to_string(kOracleTolerance));
    }
  }

  std::uint64_t run_digest = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : first_digest) {
    run_digest ^= d;
    run_digest *= 0x100000001b3ULL;
  }
  report.details.str("fixed_point_digest", hex(run_digest))
      .num("oracle_tolerance", kOracleTolerance)
      .object("oracle", oracle)
      .integer("solves", static_cast<long long>(solve_us.size()));

  const std::size_t n = solve_us.size();
  report.attempted = static_cast<long long>(n);
  report.failed = static_cast<long long>(failed);
  report.metrics.add("setup_s", median(setup_s), "s", setup_s.size());
  report.details.nums("setup_reps_s", setup_s);
  // Percentiles are taken per slice of kSliceSolves consecutive solves
  // (about 0.4 s, on one CPU), then averaged over the slices.  A host stall
  // of tens of ms holds up a few dozen solves, which barely moves a slice's
  // p50 or p90, so no slice needs trimming.  The host does switch a CPU
  // between a fast and a ~1.5x slower state for whole slices.  A plain
  // mean follows the share of slow slices in proportion; an interquartile
  // mean ignores that share below a quarter and moves twice as fast above
  // it.  p99 (in the record only) keeps the interquartile mean, as a stall
  // does move it.
  std::vector<double> slice_p50, slice_p90, slice_p99;
  for (std::size_t begin = 0; begin < n; begin += kSliceSolves) {
    if (n - begin < kSliceSolves && begin > 0) break;  // short tail slice
    std::vector<double> slice(solve_us.begin() + begin,
                              solve_us.begin() + std::min(n, begin + kSliceSolves));
    slice_p50.push_back(percentile(slice, 50.0));
    slice_p90.push_back(percentile(slice, 90.0));
    slice_p99.push_back(percentile(slice, 99.0));
  }
  const auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };
  report.metrics.add("p50_us", mean(slice_p50), "us", n);
  report.metrics.add("p90_us", mean(slice_p90), "us", n);
  report.details.num("p99_us", interquartile_mean(slice_p99))
      .nums("slice_p50_us", slice_p50)
      .nums("slice_p90_us", slice_p90);
  report.metrics.add("max_rps", static_cast<double>(n) / busy_s, "1/s", n);
  report.metrics.add("ok_frac",
                     static_cast<double>(n - failed) / static_cast<double>(n),
                     "ratio", n);
  if (spans) {
    // Recorded between solves, outside every timed region: this is what
    // tracing costs the process, not something added to p50_us.
    report.metrics.add("trace.overhead_p50_us", percentile(span_us, 50.0),
                       "us", span_us.size());
  }
  report.metrics.add("rss_mb",
                     static_cast<double>(proc_status_kb(0, "VmHWM")) / 1024.0,
                     "MB", 1);
}

}  // namespace perfbench
