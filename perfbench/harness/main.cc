// olev_perfbench: one benchmark run of one workload, in one process.
//
//   olev_perfbench --kind serve|offline --seed N --seconds S --trace 0|1
//                  --out result.json --workdir DIR [serving options]
//
// The serving options are all required: --olevd --engine --players
// --journal --rate --ladder --limit-us --lateness-limit-us --setup-spawns
// --fixed-frac.  offline-solve takes none.  perfbench/run.py builds this
// binary, passes the workload's options from perfbench/workloads.json,
// and turns the result file into the benchmark's
// report.  The result file holds every metric with its unit and sample
// count, every output-check outcome and the run's failure breakdown.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using Args = std::map<std::string, std::string>;

/// Takes a required option out of `args`; what is left at the end is an
/// option no workload has.
std::string take(Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  std::string value = it->second;
  args.erase(it);
  return value;
}

double take_num(Args& args, const std::string& key) {
  return std::stod(take(args, key));
}

std::vector<double> take_list(Args& args, const std::string& key) {
  std::vector<double> out;
  std::stringstream in(take(args, key));
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

/// Layers the offline workload never enters: reported as zero work.
void add_bypassed_serving_layers(perfbench::RunReport& report) {
  for (const char* name :
       {"svc.admit_p50_us", "svc.queue_p50_us", "svc.queue_p99_us",
        "svc.batch_p50_us", "svc.batch_p99_us", "svc.solve_p50_us",
        "svc.solve_p99_us", "svc.unaccounted_p50_us", "svc.admin_p50_us",
        "svc.admin_p99_us"}) {
    report.metrics.add(name, 0.0, "us", 0);
  }
  report.metrics.add("persist.journal_records", 0.0, "count", 0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "olev_perfbench: unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    const std::string kind = take(args, "kind");
    const auto seed = static_cast<std::uint64_t>(std::stoull(take(args, "seed")));
    const double seconds = take_num(args, "seconds");
    const bool trace = take(args, "trace") == "1";
    const std::string out_path = take(args, "out");
    const std::string workdir = take(args, "workdir");

    if (kind != "serve" && kind != "offline") {
      throw std::invalid_argument("unknown --kind " + kind);
    }
    perfbench::ServeParams p;
    if (kind == "serve") {
      p.olevd = take(args, "olevd");
      p.engine = take(args, "engine");
      p.players = static_cast<std::size_t>(std::stoull(take(args, "players")));
      p.journal = take(args, "journal") == "1";
      p.workdir = workdir;
      p.rate = take_num(args, "rate");
      p.ladder = take_list(args, "ladder");
      p.limit_us = take_num(args, "limit-us");
      p.lateness_limit_us = take_num(args, "lateness-limit-us");
      p.setup_spawns = static_cast<int>(take_num(args, "setup-spawns"));
      p.seconds = seconds;
      p.fixed_frac = take_num(args, "fixed-frac");
      p.seed = seed;
      p.trace = trace;
    }
    if (!args.empty()) {
      throw std::invalid_argument("unknown option --" + args.begin()->first);
    }

    perfbench::RunReport report;
    perfbench::ProbeParams probes;
    probes.workdir = workdir;
    probes.seed = seed;
    if (kind == "serve") {
      probes.engine = p.engine;
      probes.journal = p.journal;
      perfbench::run_serve(p, report);
    } else {
      perfbench::run_offline(seconds, seed, report, trace);
      if (trace) add_bypassed_serving_layers(report);
    }

    if (trace) {
      perfbench::run_probes(probes, report);
      const std::string trace_path = workdir + "/trace-" + kind + "-" +
                                     std::to_string(seed) + ".json";
      report.spans.write_chrome_trace(trace_path, 200'000);
      report.details.str("trace_file", trace_path)
          .integer("spans", static_cast<long long>(report.spans.size()));
    }

    perfbench::JsonObject out;
    std::string problems = "[";
    for (std::size_t i = 0; i < report.problems.size(); ++i) {
      if (i > 0) problems += ',';
      problems += perfbench::json_string(report.problems[i]);
    }
    problems += ']';
    out.boolean("correct", report.correct)
        .boolean("valid", report.valid)
        .integer("attempted", report.attempted)
        .integer("failed", report.failed)
        .raw("problems", problems)
        .object("metrics", report.metrics.to_json())
        .object("details", report.details);
    std::FILE* file = std::fopen(out_path.c_str(), "w");
    if (file == nullptr) throw std::runtime_error("cannot write " + out_path);
    std::fputs(out.dump().c_str(), file);
    std::fputc('\n', file);
    if (std::fclose(file) != 0) throw std::runtime_error("write failed");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "olev_perfbench: %s\n", error.what());
    return 2;
  }
}
