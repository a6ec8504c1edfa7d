// The traced run's layer probes.  Each probe calls one module's public
// entry points on inputs generated from the run's seed (or captured from
// the offline solves), times the calls from here, and records one span per
// timed pass.  Nothing inside src/ is instrumented for this.  A probe runs
// only in the traced run of the workload that loads its layer; the other
// workloads report its metrics as 0, like any layer they bypass.

#include <unistd.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/best_response.h"
#include "core/cost.h"
#include "core/game.h"
#include "core/payment.h"
#include "core/water_filling.h"
#include "net/message.h"
#include "persist/journal.h"
#include "svc/engine.h"
#include "svc/frame.h"
#include "util/quantity.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Scenarios of the offline stream driven by the core probes.
constexpr std::size_t kCoreScenarios = 8;

/// olevd's default section cost (tools/olevd.cpp): nonlinear V with
/// beta = 5, alpha = 0.875, P_ref = P_line = 40 kW, overload weight 1.
core::SectionCost olevd_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, util::kw(40.0));
}

struct Stream {
  std::vector<std::uint32_t> player;
  std::vector<double> kw;
};

Stream make_stream(std::uint64_t seed, std::size_t n, std::size_t players) {
  Rand rng(seed);
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.player.push_back(static_cast<std::uint32_t>(rng.below(players)));
    s.kw.push_back(rng.uniform(kKwMin, kKwMax));
  }
  return s;
}

/// Times `passes` calls of `pass` (each doing `calls` operations) and
/// returns the median per-operation time in ns; one span per pass.
template <typename F>
double time_passes(RunReport& report, const char* span, int passes,
                   std::size_t calls, F&& pass) {
  std::vector<double> per_call;
  for (int i = 0; i < passes; ++i) {
    const std::int64_t t0 = now_ns();
    pass();
    const std::int64_t t1 = now_ns();
    report.spans.add({span, "probe", 0, t0, t1});
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

// Keeps a value alive so the timed call is not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// svc/engine, exact arithmetic at N = 4096: O(N * C) exclusion scan.
void probe_exact_engine(const ProbeParams& p, RunReport& report) {
  svc::EngineConfig config;
  config.players = 4096;
  config.sections = kSections;
  svc::PricingEngine engine(olevd_cost(), config);
  const Stream s = make_stream(mix_seed(p.seed, 501), 2500, 4096);
  for (std::size_t i = 0; i < 500; ++i) keep(engine.apply(s.player[i], s.kw[i]));
  std::size_t next = 500;
  const double ns = time_passes(report, "probe.engine.apply_exact", 20, 100,
                                [&] {
                                  for (int k = 0; k < 100; ++k, ++next) {
                                    keep(engine.apply(s.player[next], s.kw[next]));
                                  }
                                });
  report.metrics.add("engine.apply_exact_ns", ns, "ns", 2000);
}

// svc/engine, mean-field arithmetic at N = 10^6: construction dominates
// olevd's set-up and resident set; apply is O(C).
void probe_meanfield_engine(const ProbeParams& p, RunReport& report) {
  std::vector<double> construct_s;
  std::vector<double> resident_mb;
  std::unique_ptr<svc::PricingEngine> engine;
  for (int rep = 0; rep < 3; ++rep) {
    engine.reset();
    svc::EngineConfig config;
    config.players = 1'000'000;
    config.sections = kSections;
    config.mode = svc::EngineMode::kMeanField;
    const long rss0 = proc_status_kb(0, "VmRSS");
    const std::int64_t t0 = now_ns();
    engine = std::make_unique<svc::PricingEngine>(olevd_cost(), config);
    const std::int64_t t1 = now_ns();
    const long rss1 = proc_status_kb(0, "VmRSS");
    report.spans.add({"probe.engine.construct_meanfield", "probe", 0, t0, t1});
    construct_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    resident_mb.push_back(static_cast<double>(rss1 - rss0) / 1024.0);
  }
  report.metrics.add("engine.construct_s", median(construct_s), "s",
                     construct_s.size());
  report.metrics.add("engine.resident_mb", median(resident_mb), "MB",
                     resident_mb.size());
  const Stream s = make_stream(mix_seed(p.seed, 502), 200'000, 1'000'000);
  for (std::size_t i = 0; i < 100'000; ++i) keep(engine->apply(s.player[i], s.kw[i]));
  std::size_t next = 100'000;
  const double ns = time_passes(report, "probe.engine.apply_meanfield", 20,
                                5000, [&] {
                                  for (int k = 0; k < 5000; ++k, ++next) {
                                    keep(engine->apply(s.player[next], s.kw[next]));
                                  }
                                });
  report.metrics.add("engine.apply_meanfield_ns", ns, "ns", 100'000);
}

void probe_codec(const ProbeParams& p, RunReport& report) {
  // Requests as olevd receives them; replies as it sends them (rows from
  // exact-engine updates).
  const Stream s = make_stream(mix_seed(p.seed, 503), 4096, 4096);
  std::vector<std::vector<std::uint8_t>> requests;
  Rand rng(mix_seed(p.seed, 504));
  for (std::size_t i = 0; i < s.player.size(); ++i) {
    net::PowerRequestMsg msg;
    msg.player = s.player[i];
    msg.round = i;
    msg.total_kw = s.kw[i];
    msg.trace.trace_id = rng.next() | 1;
    msg.trace.client_send_us = static_cast<std::int64_t>(rng.below(1ULL << 40));
    requests.push_back(net::serialize(msg));
  }
  svc::EngineConfig config;
  config.players = 256;
  config.sections = kSections;
  svc::PricingEngine engine(olevd_cost(), config);
  std::vector<net::Message> replies;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < 256; ++i) {
    const auto& applied = engine.apply(i, s.kw[i]);
    net::ScheduleMsg msg;
    msg.player = static_cast<std::uint32_t>(i);
    msg.round = i;
    msg.row_kw = applied.row;
    msg.payment = applied.payment;
    msg.trace_id = rng.next() | 1;
    msg.phases = {3, 5, 7, 11};
    replies.emplace_back(msg);
    frames.push_back(svc::encode_frame(replies.back()));
  }

  const double deser = time_passes(report, "probe.net.deserialize_request", 15,
                                   requests.size(), [&] {
                                     for (const auto& bytes : requests) {
                                       keep(net::deserialize(bytes));
                                     }
                                   });
  report.metrics.add("net.deserialize_request_ns", deser, "ns",
                     15 * requests.size());
  const int passes = 15;
  const double ser = time_passes(report, "probe.net.serialize_schedule", passes,
                                 replies.size(), [&] {
                                   for (const auto& m : replies) {
                                     keep(net::serialize(m));
                                   }
                                 });
  report.metrics.add("net.serialize_schedule_ns", ser, "ns",
                     passes * replies.size());
  const double enc = time_passes(report, "probe.frame.encode", passes,
                                 replies.size(), [&] {
                                   for (const auto& m : replies) {
                                     keep(svc::encode_frame(m));
                                   }
                                 });
  report.metrics.add("frame.encode_ns", enc, "ns", passes * replies.size());
  const double dec = time_passes(report, "probe.frame.decode", passes,
                                 frames.size(), [&] {
                                   svc::FrameDecoder decoder;
                                   for (const auto& f : frames) {
                                     decoder.feed(f);
                                     keep(decoder.next());
                                   }
                                 });
  report.metrics.add("frame.decode_ns", dec, "ns", passes * frames.size());
  report.metrics.add("net.reply_bytes", static_cast<double>(frames[0].size()),
                     "bytes", frames.size());
}

void probe_journal(const ProbeParams& p, RunReport& report) {
  const std::string path =
      p.workdir + "/probe-journal-" + std::to_string(getpid()) + ".bin";
  persist::JournalHeader header;
  header.mode = 1;
  header.players = 4096;
  header.sections = kSections;
  header.epsilon = 1e-7;
  header.caps_kw.assign(4096, std::numeric_limits<double>::infinity());
  const Stream s = make_stream(mix_seed(p.seed, 505), 4096, 4096);
  double ns = 0.0;
  {
    persist::JournalWriter writer(path, header, persist::FsyncPolicy::kNone);
    std::uint64_t round = 0;
    ns = time_passes(report, "probe.persist.journal_append", 25, 8192, [&] {
      for (int k = 0; k < 8192; ++k, ++round) {
        persist::JournalRecord record;
        record.ts_us = static_cast<std::int64_t>(round);
        record.player = s.player[round % 4096];
        record.round = round;
        record.total_kw = s.kw[round % 4096];
        record.trace_id = round + 1;
        writer.append(record);
      }
    });
  }
  unlink(path.c_str());
  report.metrics.add("persist.journal_append_ns", ns, "ns", 25 * 8192);
}

/// One b vector seen by a recomputing player update, with what the
/// update chose for it.
struct Captured {
  std::size_t scenario = 0;
  std::size_t player = 0;
  std::vector<double> b;
  double p_star = 0.0;
};

void probe_core(const ProbeParams& p, RunReport& report) {
  const std::vector<core::ScenarioConfig> configs =
      scenario_configs(p.seed, kCoreScenarios);
  std::vector<core::Scenario> scenarios;
  for (const auto& c : configs) scenarios.push_back(core::Scenario::build(c));

  // Counts from complete cold solves (Game::run); exact repeats per seed.
  double updates = 0.0;
  core::CacheCounters caches;
  for (const core::Scenario& s : scenarios) {
    core::Game game = s.make_game();
    const core::GameResult r = game.run();
    updates += static_cast<double>(r.updates);
    caches.response_cache_hits += r.caches.response_cache_hits;
    caches.response_recomputes += r.caches.response_recomputes;
    caches.section_cost_reuses += r.caches.section_cost_reuses;
    caches.section_cost_refreshes += r.caches.section_cost_refreshes;
  }
  report.metrics.add("core.updates_per_solve",
                     updates / static_cast<double>(scenarios.size()), "count",
                     scenarios.size());
  report.metrics.add("core.response_hit_ratio", caches.response_hit_ratio(),
                     "ratio",
                     caches.response_cache_hits + caches.response_recomputes);
  report.metrics.add("core.section_reuse_ratio", caches.section_reuse_ratio(),
                     "ratio",
                     caches.section_cost_reuses + caches.section_cost_refreshes);

  // Game::update_player, driven round-robin exactly as Game::run drives it,
  // each call timed and split by whether the response cache answered.
  std::vector<double> hit_ns, recompute_ns;
  std::vector<Captured> captured;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    core::Game game = scenarios[k].make_game();
    const std::size_t n_players = game.players();
    const double epsilon = scenarios[k].config().game.epsilon;
    double cycle_max = 0.0;
    for (std::size_t u = 0; u < 200'000; ++u) {
      const std::size_t player = u % n_players;
      std::vector<double> b;
      if (captured.size() < 4000 && u % 3 == 0) {
        b = game.schedule().column_totals_excluding(player);
      }
      const std::size_t hits = game.cache_counters().response_cache_hits;
      const std::int64_t t0 = now_ns();
      const double delta = game.update_player(player);
      const std::int64_t t1 = now_ns();
      const bool hit = game.cache_counters().response_cache_hits != hits;
      (hit ? hit_ns : recompute_ns).push_back(static_cast<double>(t1 - t0));
      if (!b.empty() && !hit) {
        captured.push_back(
            {k, player, std::move(b), game.schedule().row_total(player)});
      }
      cycle_max = std::max(cycle_max, delta);
      if (player + 1 == n_players) {
        if (cycle_max < epsilon) break;
        cycle_max = 0.0;
      }
    }
    // A cold solve stops at the fixed point, before any b repeats, so it
    // never hits the response cache.  One more cycle at the fixed point
    // does, and times the hit path.
    for (std::size_t player = 0; player < n_players; ++player) {
      const std::size_t hits = game.cache_counters().response_cache_hits;
      const std::int64_t t0 = now_ns();
      keep(game.update_player(player));
      const std::int64_t t1 = now_ns();
      if (game.cache_counters().response_cache_hits != hits) {
        hit_ns.push_back(static_cast<double>(t1 - t0));
      }
    }
  }
  report.metrics.add("core.update_recompute_ns", median(recompute_ns), "ns",
                     recompute_ns.size());
  report.metrics.add("core.update_hit_ns", median(hit_ns), "ns", hit_ns.size());

  // The kernel pieces below update_player, on the captured b vectors.
  std::vector<std::vector<std::unique_ptr<core::Satisfaction>>> sats;
  for (const core::Scenario& s : scenarios) sats.push_back(s.clone_satisfactions());
  core::SortedLoads sorted;
  sorted.reserve(kSections);
  std::vector<double> row(kSections);
  const double fill = time_passes(report, "probe.core.water_fill", 7,
                                  captured.size(), [&] {
                                    for (const Captured& c : captured) {
                                      sorted.reassign(c.b);
                                      keep(sorted.fill_into(util::kw(c.p_star), row));
                                    }
                                  });
  report.metrics.add("core.water_fill_ns", fill, "ns", 7 * captured.size());

  std::vector<core::SortedLoads> presorted(captured.size());
  for (std::size_t i = 0; i < captured.size(); ++i) presorted[i].assign(captured[i].b);
  const double br = time_passes(
      report, "probe.core.best_response", 7, captured.size(), [&] {
        for (std::size_t i = 0; i < captured.size(); ++i) {
          const Captured& c = captured[i];
          const core::Scenario& s = scenarios[c.scenario];
          keep(core::best_response_into(*sats[c.scenario][c.player], s.cost(),
                                        presorted[i],
                                        util::kw(s.p_max()[c.player]), row));
        }
      });
  report.metrics.add("core.best_response_ns", br, "ns", 7 * captured.size());

  std::vector<std::vector<double>> rows(captured.size());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    rows[i] = presorted[i].fill(util::kw(captured[i].p_star)).row;
  }
  const double pay = time_passes(
      report, "probe.core.payment", 7, captured.size(), [&] {
        for (std::size_t i = 0; i < captured.size(); ++i) {
          keep(core::externality_payment(scenarios[captured[i].scenario].cost(),
                                         captured[i].b, rows[i]));
        }
      });
  report.metrics.add("core.payment_ns", pay, "ns", 7 * captured.size());
}

/// Reports a bypassed layer's metrics as zero work.
void add_zeros(RunReport& report,
               std::initializer_list<std::pair<const char*, const char*>> metrics) {
  for (const auto& [name, unit] : metrics) report.metrics.add(name, 0.0, unit, 0);
}

}  // namespace

void run_probes(const ProbeParams& p, RunReport& report) {
  if (p.engine == "exact") {
    probe_exact_engine(p, report);
  } else {
    add_zeros(report, {{"engine.apply_exact_ns", "ns"}});
  }
  if (p.engine == "meanfield") {
    probe_meanfield_engine(p, report);
  } else {
    add_zeros(report, {{"engine.apply_meanfield_ns", "ns"},
                       {"engine.construct_s", "s"},
                       {"engine.resident_mb", "MB"}});
  }
  if (!p.engine.empty()) {
    probe_codec(p, report);
  } else {
    add_zeros(report, {{"net.deserialize_request_ns", "ns"},
                       {"net.serialize_schedule_ns", "ns"},
                       {"frame.encode_ns", "ns"},
                       {"frame.decode_ns", "ns"},
                       {"net.reply_bytes", "bytes"}});
  }
  if (p.journal) {
    probe_journal(p, report);
  } else {
    add_zeros(report, {{"persist.journal_append_ns", "ns"}});
  }
  if (p.engine.empty()) {
    probe_core(p, report);
  } else {
    add_zeros(report, {{"core.update_recompute_ns", "ns"},
                       {"core.update_hit_ns", "ns"},
                       {"core.water_fill_ns", "ns"},
                       {"core.best_response_ns", "ns"},
                       {"core.payment_ns", "ns"},
                       {"core.updates_per_solve", "count"},
                       {"core.response_hit_ratio", "ratio"},
                       {"core.section_reuse_ratio", "ratio"}});
  }
}

}  // namespace perfbench
