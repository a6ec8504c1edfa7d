// The benchmark's three workload drivers and the traced run's layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/scenario.h"

namespace olev::net {}
namespace olev::persist {}
namespace olev::svc {}

namespace perfbench {

namespace core = olev::core;
namespace net = olev::net;
namespace persist = olev::persist;
namespace svc = olev::svc;
namespace util = olev::util;

/// Charging sections C, on every workload and probe.
constexpr std::size_t kSections = 100;
/// Request sizes, uniform in [kKwMin, kKwMax) kW.
constexpr double kKwMin = 1.0;
constexpr double kKwMax = 120.0;

/// An olevd serving workload, driven open-loop from this one process.  Only
/// what differs between the serving workloads is a parameter; the rest
/// (connections, admin polling, warm-up and rung lengths) is fixed in
/// serve.cc.
struct ServeParams {
  std::string olevd;             ///< path of the olevd binary
  std::string engine;            ///< "exact" or "meanfield"
  std::size_t players = 0;
  bool journal = false;          ///< --journal in workdir, fsync none
  std::string workdir;           ///< scratch files (journal, traces)
  double rate = 0.0;             ///< fixed offered rate, requests/s
  std::vector<double> ladder;    ///< max_rps rungs above `rate`, ascending
  double limit_us = 0.0;         ///< p99 latency limit of a passing rung
  double lateness_limit_us = 0.0;  ///< generator lateness p99 bound
  int setup_spawns = 0;          ///< olevd spawns behind setup_s
  double seconds = 0.0;          ///< --seconds; every phase is a share of it
  double fixed_frac = 0.0;       ///< share of `seconds` in the scored window
  std::uint64_t seed = 0;
  bool trace = false;
};

void run_serve(const ServeParams& params, RunReport& report);

/// In-process cold solves of seeded Section V scenarios; the scenario shape
/// and the checks are fixed in offline.cc.  `spans` records one span per
/// solve (the traced run).
void run_offline(double seconds, std::uint64_t seed, RunReport& report,
                 bool spans);

/// The first `count` configs of offline-solve's seeded scenario stream:
/// N=50, C=100 (the paper's largest Section V point), 60 or 80 mph,
/// nonlinear pricing, a target congestion degree uniform in [0.5, 1.1).
std::vector<core::ScenarioConfig> scenario_configs(std::uint64_t seed,
                                                   std::size_t count);

/// Traced-run layer probes: each times one module's public entry point on
/// inputs generated from the seed, in this process, with spans around the
/// calls.  A probe runs only on the workload that loads its layer; the
/// others report its metrics as 0.
struct ProbeParams {
  std::string workdir;
  std::uint64_t seed = 0;
  std::string engine;  ///< the serving workload's engine; empty offline
  bool journal = false;
};

void run_probes(const ProbeParams& params, RunReport& report);

}  // namespace perfbench
