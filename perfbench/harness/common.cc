#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace perfbench {
namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- random

std::uint64_t Rand::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rand::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rand::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rand::below(std::uint64_t n) {
  return next() % n;  // modulo bias < n / 2^64: nil for the ranges used here
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream) {
  Rand r(base ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  r.next();
  return r.next();
}

// ---------------------------------------------------------------- clocks

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------- stats

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double percentile_quantized(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q / 100.0 * static_cast<double>(v.size());
  std::size_t below = 0;
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const std::size_t count = j - i;
    if (static_cast<double>(below + count) >= target) {
      return v[i] - 0.5 +
             (target - static_cast<double>(below)) /
                 static_cast<double>(count);
    }
    below += count;
    i = j;
  }
  return v.back() + 0.5;
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---------------------------------------------------------------- CPUs

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to(int cpu, pid_t pid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(pid, sizeof(set), &set);
}

CpuRotation::CpuRotation(pid_t partner)
    : cpus_(allowed_cpus()), partner_(partner) {}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
  if (partner_ > 0) sched_setaffinity(partner_, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  const std::size_t k = step_++;
  pin_to(cpus_[k % cpus_.size()]);
  if (partner_ > 0) pin_to(cpus_[(k + 1) % cpus_.size()], partner_);
}

// ---------------------------------------------------------------- /proc

long proc_status_kb(pid_t pid, std::string_view field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

// ---------------------------------------------------------------- JSON

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_string(k);
  body_ += ':';
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, long long value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::nums(std::string_view k,
                             const std::vector<double>& values) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += json_number(values[i]);
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::object(std::string_view k, const JsonObject& value) {
  return raw(k, value.dump());
}

// ---------------------------------------------------------------- metrics

void MetricSet::add(std::string name, double value, std::string unit,
                    std::size_t samples) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

JsonObject MetricSet::to_json() const {
  JsonObject out;
  for (const Metric& m : metrics_) {
    JsonObject entry;
    entry.num("value", m.value).str("unit", m.unit).integer(
        "samples", static_cast<long long>(m.samples));
    out.object(m.name, entry);
  }
  return out;
}

// ---------------------------------------------------------------- spans

bool SpanRecorder::write_chrome_trace(const std::string& path,
                                      std::size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  const std::size_t count = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.str("trace_id", std::to_string(s.trace_id)).str("parent", s.parent);
    JsonObject event;
    event.str("name", s.name)
        .str("ph", "X")
        .num("ts", static_cast<double>(s.start_ns) / 1e3)
        .num("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .integer("pid", 1)
        .integer("tid", static_cast<long long>(s.trace_id % 64))
        .object("args", args);
    std::fputs(event.dump().c_str(), file);
    std::fputs(i + 1 < count ? ",\n" : "\n", file);
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
