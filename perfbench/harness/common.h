// Shared pieces of the benchmark harness: the workload's own seeded random
// stream, clocks, percentile estimators, /proc readers, a minimal JSON
// writer and the in-memory span recorder of the traced run.
//
// Inputs are generated here, not with the library's util::Rng, so a change
// to the program under test can never change the benchmark's inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- random

/// splitmix64: small, fast, and fully specified, so a seed means the same
/// inputs on every compiler and standard library.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                     ///< [0, 1)
  double uniform(double lo, double hi);  ///< [lo, hi)
  std::uint64_t below(std::uint64_t n);  ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Mixes a base seed with a stream number into an independent seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream);

// ---------------------------------------------------------------- clocks

std::int64_t now_ns();  ///< CLOCK_MONOTONIC

// ---------------------------------------------------------------- stats

/// Linear-interpolated percentile (q in [0, 100]); sorts `v` in place.
/// 0 for an empty vector.
double percentile(std::vector<double>& v, double q);
/// Percentile of integer-valued samples (olevd echoes whole microseconds):
/// each integer k stands for the interval [k - 0.5, k + 0.5) and the
/// estimate interpolates inside it, so a median of quantized samples keeps
/// its digits instead of snapping to the integer grid.  Sorts `v` in place.
double percentile_quantized(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// Interquartile mean: the mean of the middle half of `v` (all of it when
/// it has fewer than 4 values).  Robust to a quarter of outliers on each
/// side, and unlike the median it does not jump between the two modes of a
/// bimodal set.  0 for an empty vector.
double interquartile_mean(std::vector<double> v);

// ---------------------------------------------------------------- CPUs

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
/// Pins a thread or process (0 = the calling thread) to one CPU.
void pin_to(int cpu, pid_t pid = 0);

/// Moves the calling thread round-robin over the allowed CPUs, one step
/// per call to next(), and restores the original CPU mask on destruction.
/// A `partner` process (olevd) moves in step on the following CPU, so the
/// two never share one.  The reference VM's vCPUs differ in speed by up to
/// 2x for minutes at a time (contention on the host), so a measurement
/// that stayed on the vCPUs it started on would measure those vCPUs;
/// rotating makes every run sample all of them.
class CpuRotation {
 public:
  explicit CpuRotation(pid_t partner = 0);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;  ///< the mask restored on destruction
  pid_t partner_;
  std::size_t step_ = 0;
};

// ---------------------------------------------------------------- /proc

/// A "Vm*" field of /proc/<pid>/status in kB (pid 0 = this process);
/// -1 when unreadable.
long proc_status_kb(pid_t pid, std::string_view field);

// ---------------------------------------------------------------- JSON

/// Append-only JSON object writer: values are written in insertion order.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, long long value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& nums(std::string_view key, const std::vector<double>& values);
  /// `json` must already be a valid JSON value.
  JsonObject& raw(std::string_view key, std::string_view json);
  JsonObject& object(std::string_view key, const JsonObject& value);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

std::string json_string(std::string_view text);

// ---------------------------------------------------------------- metrics

/// One measured metric of a run: value, unit and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples);
  const std::vector<Metric>& all() const { return metrics_; }
  JsonObject to_json() const;

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------- spans

/// In-memory span store of the traced run, written out once at the end in
/// Chrome trace-event format.  Spans of one request share its trace id;
/// `parent` names the enclosing span.
struct Span {
  std::string name;
  std::string parent;
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  void add(Span span) { spans_.push_back(std::move(span)); }
  std::size_t size() const { return spans_.size(); }
  /// Writes at most `max_spans` spans; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path,
                          std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------- report

/// What one workload run hands back to main(): the scored operations, every
/// output-check outcome, and the metrics of its mode (end-to-end untraced,
/// per-layer traced).
struct RunReport {
  MetricSet metrics;
  long long attempted = 0;  ///< scored operations (warm-up excluded)
  long long failed = 0;     ///< of those, failed or refused
  bool correct = true;      ///< every output check in every phase passed
  bool valid = true;        ///< the generator kept to its schedule
  std::vector<std::string> problems;  ///< why correct/valid is false
  JsonObject details;       ///< failure breakdown, sample counts, digests
  SpanRecorder spans;

  void fail_check(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

}  // namespace perfbench
