// Open-loop serving workloads against a real olevd process.
//
// Threads in this process: one generator event loop (keeps the arrival
// schedule, stamps and checks every reply) and one admin poller (sleeps
// between `health` polls).  With olevd's single serving thread that is
// three threads, within the 4 CPUs of the reference machine.  The
// generator and olevd step round the CPUs together every 250 ms, on
// neighbouring CPUs (CpuRotation).
//
// Arrivals are a Poisson process conditioned on its count: a phase of T
// seconds at rate R holds exactly round(R * T) requests at sorted uniform
// times.  Every request is timed from when it was due, so a stall in the
// server (or in the generator) is charged to every request it delays.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/message.h"
#include "svc/admin.h"
#include "svc/frame.h"
#include "svc/socket.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// RETRY_LATER resends, 1 ms apart: 100 ms of refusals, longer than the
/// host stalls that fill olevd's queue at high rates, before a request
/// counts as failed.
constexpr int kMaxRetries = 100;
constexpr std::int64_t kRetryBackoffNs = 1'000'000;
constexpr std::int64_t kDrainTimeoutNs = 3'000'000'000;  ///< per phase
/// A max_rps rung stops sending once its oldest unanswered request is this
/// many latency limits old: the server is not keeping up.  A host stall of
/// a few tens of ms must not trigger it, so it is far above the limit.
constexpr double kAbortAgeLimits = 50.0;
/// Requests per time slice of a phase's percentiles (>= 10 beyond a p99).
constexpr std::size_t kSliceRequests = 1000;
/// Second tries for missed max_rps rungs, per ladder.
constexpr int kRungRetries = 2;
/// The generator and olevd move to the next CPUs this often (CpuRotation).
constexpr std::int64_t kRotateNs = 250'000'000;
/// Data connections to olevd; the admin poller adds one more.
constexpr std::size_t kConnections = 3;
/// Admin `health` polls per second, beside the pricing traffic.
constexpr double kAdminHz = 200.0;
/// Shares of --seconds: the unscored warm-up and one max_rps rung (the
/// scored fixed window's share is a workload option).
constexpr double kWarmupFrac = 0.05;
constexpr double kRungFrac = 0.075;

// ------------------------------------------------------------------ olevd

/// One olevd child process.  Spawned with its stdout on a pipe; the ready
/// line is read with a blocking read, so setup time is spawn -> ready with
/// no polling interval in it.
class Olevd {
 public:
  Olevd(const std::string& binary, const std::vector<std::string>& args,
        bool admin) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    std::vector<std::string> argv_store{binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::int64_t start = now_ns();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];

    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("olevd exited before its ready line");
      }
      text.append(buf, static_cast<std::size_t>(n));
      const std::size_t listen = text.find("olevd: listening on 127.0.0.1:");
      if (listen != std::string::npos && ready_ns_ == 0 &&
          text.find('\n', listen) != std::string::npos) {
        ready_ns_ = now_ns() - start;
        port_ = static_cast<std::uint16_t>(
            std::stoul(text.substr(listen + 30)));
      }
      const std::size_t adm = text.find("olevd: admin on 127.0.0.1:");
      if (adm != std::string::npos &&
          text.find('\n', adm) != std::string::npos) {
        admin_port_ = static_cast<std::uint16_t>(
            std::stoul(text.substr(adm + 26)));
      }
      if (ready_ns_ != 0 && (!admin || admin_port_ != 0)) break;
    }
  }

  Olevd(const Olevd&) = delete;
  Olevd& operator=(const Olevd&) = delete;

  ~Olevd() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::uint16_t admin_port() const { return admin_port_; }
  double ready_s() const { return static_cast<double>(ready_ns_) * 1e-9; }

  /// SIGTERM (graceful drain), read stdout to EOF, reap.  Returns the
  /// remaining stdout (the "drained." summary line) and the exit status.
  std::string stop(int& status) {
    kill(pid_, SIGTERM);
    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return text;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::int64_t ready_ns_ = 0;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
};

/// Value of `key=<u64>` in olevd's drained summary line; -1 when absent.
long long summary_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(" " + key + "=");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size() + 2));
}

/// Value of `"key":<number>` in a one-line admin JSON reply; -1 if absent.
long long json_field(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size() + 3));
}

// ------------------------------------------------------------------ phases

enum class Outcome : std::uint8_t {
  kPending = 0,
  kOk,
  kExpired,         ///< DEADLINE_EXPIRED
  kRetryExhausted,  ///< RETRY_LATER beyond kMaxRetries
  kDraining,
  kRejected,        ///< BAD_REQUEST / MALFORMED for a request we built
  kBadReply,        ///< reply failed an output check
  kTimeout,         ///< no answer by the end of the phase's drain
};

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kPending: return "pending";
    case Outcome::kOk: return "ok";
    case Outcome::kExpired: return "deadline_expired";
    case Outcome::kRetryExhausted: return "retry_exhausted";
    case Outcome::kDraining: return "draining";
    case Outcome::kRejected: return "rejected";
    case Outcome::kBadReply: return "bad_reply";
    case Outcome::kTimeout: return "timeout";
  }
  return "?";
}

struct Request {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;  ///< first send; 0 = not sent
  std::int64_t done_ns = 0;
  std::uint64_t trace_id = 0;
  double kw = 0.0;
  std::uint32_t player = 0;
  std::uint32_t conn = 0;
  std::size_t frame_offset = 0;
  std::uint32_t frame_bytes = 0;
  int retries = 0;
  Outcome outcome = Outcome::kPending;
  net::PhaseTimings phases;
};

struct Phase {
  std::uint64_t base_round = 0;
  std::int64_t duration_ns = 0;
  std::vector<Request> requests;
  std::vector<std::uint8_t> frames;  ///< pre-encoded request frames
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t outcome_counts[8] = {};
  bool aborted = false;
  std::size_t inflight_at_close = 0;  ///< outstanding when sending stopped
  double window_s = 0.0;      ///< first due -> last answer
  std::vector<double> latency_us;    ///< from due, ok replies
  std::vector<double> lateness_us;   ///< first send - due, every send
  std::vector<double> backlog;       ///< outstanding, sampled each ms
  std::vector<double> slice_p50_us, slice_p90_us;  ///< per time slice
  // Every percentile is the interquartile mean over equal time slices of
  // the phase, each holding about kSliceRequests requests: the reference
  // VM loses a CPU to its host for 1-30 ms about once a second and runs
  // 20-30% slow for seconds at a time, and such a stall should spoil the
  // slices it lands in, not the phase's figures.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double lateness_p99_us = 0.0;
};

/// The client side of one olevd: its data connections and one event loop
/// that both keeps the arrival schedule and drains replies.  The loop
/// spins (non-blocking send/recv, no sleeping), so a reply is stamped when
/// it lands rather than when a parked thread is rescheduled, and a due
/// request leaves within microseconds.
class Generator {
 public:
  /// `rotation` (may be null) moves this thread and olevd to the next
  /// CPUs every kRotateNs while a phase runs.
  Generator(std::uint16_t port, CpuRotation* rotation) : rotation_(rotation) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      svc::Socket sock = svc::connect_to("127.0.0.1", port, 5.0);
      svc::set_nonblocking(sock.fd(), true);
      sockets_.push_back(std::move(sock));
      decoders_.emplace_back(svc::kDefaultMaxFrameBytes);
    }
    closed_.assign(kConnections, false);
    buffer_.resize(1 << 16);
  }

  /// Builds a phase: round(rate * duration_s) requests at sorted uniform
  /// times, players uniform over the universe, sizes uniform in
  /// [kKwMin, kKwMax).
  Phase make_phase(std::uint64_t seed, double rate, double duration_s,
                   std::size_t players) {
    Phase phase;
    phase.base_round = next_round_;
    phase.duration_ns = static_cast<std::int64_t>(duration_s * 1e9);
    const auto count = static_cast<std::size_t>(std::llround(rate * duration_s));
    next_round_ += count;
    phase.requests.resize(count);
    Rand rng(seed);
    std::vector<double> offsets(count);
    for (double& t : offsets) t = rng.uniform(0.0, duration_s);
    std::sort(offsets.begin(), offsets.end());
    for (std::size_t i = 0; i < count; ++i) {
      Request& r = phase.requests[i];
      r.due_ns = static_cast<std::int64_t>(offsets[i] * 1e9);  // relative
      r.player = static_cast<std::uint32_t>(rng.below(players));
      r.kw = rng.uniform(kKwMin, kKwMax);
      r.trace_id = rng.next() | 1;  // 0 means untraced on the wire
      r.conn = static_cast<std::uint32_t>(i % sockets_.size());
      // client_send_us carries the relative due time; olevd treats it as
      // opaque and only echoes it into its journal.
      net::PowerRequestMsg msg;
      msg.player = r.player;
      msg.round = phase.base_round + i;
      msg.total_kw = r.kw;
      msg.trace.trace_id = r.trace_id;
      msg.trace.client_send_us = r.due_ns / 1000;
      const std::vector<std::uint8_t> frame = svc::encode_frame(msg);
      r.frame_offset = phase.frames.size();
      r.frame_bytes = static_cast<std::uint32_t>(frame.size());
      phase.frames.insert(phase.frames.end(), frame.begin(), frame.end());
    }
    return phase;
  }

  /// Runs `phase` from now: sends on schedule, waits for every answer (or
  /// the drain timeout), and summarizes.  `abort_age_ns` > 0 stops sending
  /// once the oldest unanswered request is that old (an overloaded ladder
  /// rung).
  PhaseResult run(Phase& phase, std::int64_t abort_age_ns) {
    const std::size_t count = phase.requests.size();
    const std::int64_t start = now_ns() + 1'000'000;
    for (Request& r : phase.requests) r.due_ns += start;
    phase_ = &phase;
    sent_ = 0;
    done_ = 0;

    PhaseResult result;
    std::int64_t next_sample = start;
    std::size_t next = 0;
    std::size_t oldest = 0;  ///< first request not yet answered
    std::int64_t drain_deadline = 0;
    for (;;) {
      const std::int64_t t = now_ns();
      if (rotation_ != nullptr && t >= next_rotation_) {
        rotation_->next();
        next_rotation_ = t + kRotateNs;
      }
      if (next < count && !result.aborted) {
        Request& r = phase.requests[next];
        if (t >= r.due_ns) {
          while (oldest < next &&
                 phase.requests[oldest].outcome != Outcome::kPending) {
            ++oldest;
          }
          if (abort_age_ns > 0 && oldest < next &&
              t - phase.requests[oldest].due_ns > abort_age_ns) {
            result.aborted = true;
          } else {
            r.send_ns = t;
            ++sent_;
            ++next;
            write_frame(r);
            if (t >= next_sample) {
              result.backlog.push_back(static_cast<double>(sent_ - done_));
              next_sample = t + 1'000'000;
            }
            continue;  // keep up with a burst of due requests first
          }
        }
      } else if (drain_deadline == 0) {
        // The schedule is done; what is still in flight is awaited, not
        // dropped, so every sent request ends as a success or a failure.
        result.inflight_at_close = sent_ - done_;
        drain_deadline = t + kDrainTimeoutNs;
      } else if (done_ == sent_ || t > drain_deadline) {
        break;
      }
      while (!retries_.empty() && retries_.front().second <= t) {
        write_frame(phase.requests[retries_.front().first]);
        retries_.pop_front();
      }
      pump();
    }
    phase_ = nullptr;
    retries_.clear();

    result.attempted = sent_;
    std::int64_t last_done = start;
    const std::size_t slices = std::max<std::size_t>(4, count / kSliceRequests);
    std::vector<std::vector<double>> slice_latency(slices), slice_lateness(slices);
    for (std::size_t i = 0; i < sent_; ++i) {
      Request& r = phase.requests[i];
      if (r.outcome == Outcome::kPending) r.outcome = Outcome::kTimeout;
      ++result.outcome_counts[static_cast<int>(r.outcome)];
      const std::size_t slice = std::min<std::size_t>(
          slices - 1, static_cast<std::size_t>((r.due_ns - start) *
                                               static_cast<std::int64_t>(slices) /
                                               std::max<std::int64_t>(1, phase.duration_ns)));
      const double late_us = static_cast<double>(r.send_ns - r.due_ns) / 1e3;
      result.lateness_us.push_back(late_us);
      slice_lateness[slice].push_back(late_us);
      if (r.outcome == Outcome::kOk) {
        ++result.ok;
        const double us = static_cast<double>(r.done_ns - r.due_ns) / 1e3;
        result.latency_us.push_back(us);
        slice_latency[slice].push_back(us);
        last_done = std::max(last_done, r.done_ns);
      } else {
        ++result.failed;
      }
    }
    result.window_s = static_cast<double>(last_done - start) * 1e-9;
    std::vector<double>& slice_p50 = result.slice_p50_us;
    std::vector<double>& slice_p90 = result.slice_p90_us;
    std::vector<double> slice_p99, slice_late;
    for (std::size_t k = 0; k < slices; ++k) {
      // An aborted phase leaves its later slices empty; they hold no data.
      if (!slice_latency[k].empty()) {
        slice_p50.push_back(percentile(slice_latency[k], 50.0));
        slice_p90.push_back(percentile(slice_latency[k], 90.0));
        slice_p99.push_back(percentile(slice_latency[k], 99.0));
      }
      if (!slice_lateness[k].empty()) {
        slice_late.push_back(percentile(slice_lateness[k], 99.0));
      }
    }
    // interquartile_mean takes copies: the slices stay in time order.
    result.p50_us = interquartile_mean(slice_p50);
    result.p90_us = interquartile_mean(slice_p90);
    result.p99_us = interquartile_mean(slice_p99);
    result.lateness_p99_us = interquartile_mean(slice_late);
    return result;
  }

  /// Output-check failures seen across all phases, with a few examples.
  std::size_t check_failures() const { return check_failures_; }
  const std::vector<std::string>& check_samples() const { return check_samples_; }
  std::size_t late_replies() const { return late_replies_; }
  std::size_t retry_later() const { return retry_later_; }
  std::size_t frames_sent() const { return frames_sent_; }

 private:
  void write_frame(const Request& r) {
    const int fd = sockets_[r.conn].fd();
    const std::uint8_t* data = phase_->frames.data() + r.frame_offset;
    std::size_t left = r.frame_bytes;
    while (left > 0) {
      const ssize_t n = send(fd, data, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) {
          pump();  // olevd is pushing back; keep draining its replies
          continue;
        }
        throw std::runtime_error("send to olevd failed");
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    ++frames_sent_;
  }

  /// Non-blocking read of every connection; handles each complete frame.
  void pump() {
    for (std::size_t i = 0; i < sockets_.size(); ++i) {
      if (closed_[i]) continue;
      for (;;) {
        const ssize_t n =
            recv(sockets_[i].fd(), buffer_.data(), buffer_.size(), MSG_DONTWAIT);
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        if (n <= 0) {
          note_check_failure("olevd closed a data connection");
          closed_[i] = true;
          break;
        }
        const std::int64_t t = now_ns();
        svc::FrameDecoder& decoder = decoders_[i];
        if (!decoder.feed({buffer_.data(), static_cast<std::size_t>(n)})) {
          note_check_failure("oversized frame from olevd");
          closed_[i] = true;
          break;
        }
        while (auto payload = decoder.next()) {
          net::Message message;
          try {
            message = net::deserialize(*payload);
          } catch (const std::exception&) {
            note_check_failure("garbled frame from olevd");
            continue;
          }
          handle(message, t);
        }
      }
    }
  }

  void finish(Request& r, Outcome o, std::int64_t t) {
    r.done_ns = t;
    r.outcome = o;
    ++done_;
  }

  void note_check_failure(const std::string& why) {
    ++check_failures_;
    if (check_samples_.size() < 8) check_samples_.push_back(why);
  }

  /// Validates one ScheduleMsg against the request it answers: player and
  /// trace-id echo (the round echo found the request); a finite,
  /// non-negative row of C entries that sums to the request (Lemma IV.1,
  /// no caps configured); a finite, non-negative externality payment
  /// (Eq. 8-9).  Empty when every check passes.
  std::string check_schedule(const net::ScheduleMsg& s, const Request& r) const {
    if (s.player != r.player) return "player echo mismatch";
    if (s.trace_id != r.trace_id) return "trace_id echo mismatch";
    if (s.row_kw.size() != kSections) return "row length != sections";
    double total = 0.0;
    for (const double v : s.row_kw) {
      if (!std::isfinite(v) || v < 0.0) return "row entry negative or non-finite";
      total += v;
    }
    const double tol = 1e-9 * std::max(1.0, r.kw);
    if (total > r.kw + tol) return "row sum exceeds request (Lemma IV.1)";
    if (total < r.kw - tol) return "row sum below request (Lemma IV.1)";
    if (!std::isfinite(s.payment) || s.payment < 0.0) {
      return "payment negative or non-finite (Eq. 8-9)";
    }
    return {};
  }

  /// The pending request a reply's round echo names.  A round before the
  /// live phase answers a request that already timed out (and counted as
  /// failed); anything else that matches no pending request fails the
  /// output check.
  Request* lookup(std::uint64_t round, const char* what) {
    if (phase_ == nullptr || round < phase_->base_round) {
      ++late_replies_;
      return nullptr;
    }
    if (round >= phase_->base_round + phase_->requests.size()) {
      note_check_failure(std::string(what) + " for a round never sent");
      return nullptr;
    }
    Request& r = phase_->requests[round - phase_->base_round];
    if (r.send_ns == 0 || r.outcome != Outcome::kPending) {
      note_check_failure(std::string(what) +
                         " for a round not sent or already answered");
      return nullptr;
    }
    return &r;
  }

  void handle(const net::Message& message, std::int64_t t) {
    if (const auto* s = std::get_if<net::ScheduleMsg>(&message)) {
      Request* r = lookup(s->round, "schedule");
      if (r == nullptr) return;
      const std::string why = check_schedule(*s, *r);
      if (!why.empty()) {
        note_check_failure(why);
        finish(*r, Outcome::kBadReply, t);
        return;
      }
      r->phases = s->phases;
      finish(*r, Outcome::kOk, t);
      return;
    }
    if (const auto* c = std::get_if<net::ControlMsg>(&message)) {
      if (c->code == net::ControlCode::kConverged ||
          c->code == net::ControlCode::kSessionResumed) {
        return;  // informational
      }
      Request* r = lookup(c->round, "control");
      if (r == nullptr) return;
      switch (c->code) {
        case net::ControlCode::kRetryLater:
          ++retry_later_;
          if (r->retries++ >= kMaxRetries) {
            finish(*r, Outcome::kRetryExhausted, t);
          } else {
            retries_.emplace_back(
                static_cast<std::size_t>(c->round - phase_->base_round),
                t + kRetryBackoffNs);
          }
          return;
        case net::ControlCode::kDeadlineExpired:
          finish(*r, Outcome::kExpired, t);
          return;
        case net::ControlCode::kDraining:
          finish(*r, Outcome::kDraining, t);
          return;
        default:
          note_check_failure("request rejected as bad or malformed");
          finish(*r, Outcome::kRejected, t);
          return;
      }
    }
    note_check_failure("unexpected message type from olevd");
  }

  CpuRotation* rotation_;
  std::int64_t next_rotation_ = 0;
  std::vector<svc::Socket> sockets_;
  std::vector<svc::FrameDecoder> decoders_;
  std::vector<bool> closed_;
  std::vector<std::uint8_t> buffer_;
  Phase* phase_ = nullptr;
  std::size_t sent_ = 0;
  std::size_t done_ = 0;
  std::deque<std::pair<std::size_t, std::int64_t>> retries_;
  std::size_t check_failures_ = 0;
  std::vector<std::string> check_samples_;
  std::size_t late_replies_ = 0;
  std::size_t retry_later_ = 0;
  std::size_t frames_sent_ = 0;
  std::uint64_t next_round_ = 1;
};

// ------------------------------------------------------------------ admin

/// Polls `health` at a fixed low rate on its own connection; round trips
/// are kept only while `recording` is set.
class AdminPoller {
 public:
  AdminPoller(std::uint16_t port, double hz)
      : client_(svc::AdminClient::connect("127.0.0.1", port, 5.0)),
        interval_ns_(hz > 0.0 ? static_cast<std::int64_t>(1e9 / hz) : 0) {
    if (interval_ns_ > 0) thread_ = std::thread([this] { loop(); });
  }
  AdminPoller(const AdminPoller&) = delete;
  AdminPoller& operator=(const AdminPoller&) = delete;
  ~AdminPoller() { halt(); }

  void halt() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void record(bool on) { recording_.store(on); }
  std::vector<double> take_rtts() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(rtts_us_);
  }
  std::size_t failures() const { return failures_.load(); }
  /// A one-off command on the poller's connection (after halt()).
  std::string request(const std::string& command) {
    return client_.request(command, 5.0);
  }

 private:
  void loop() {
    std::int64_t next = now_ns();
    while (!stop_.load()) {
      next += interval_ns_;
      const std::int64_t wait = next - now_ns();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      const std::int64_t t0 = now_ns();
      std::string reply;
      try {
        reply = client_.request("health", 5.0);
      } catch (const std::exception&) {
        ++failures_;
        return;
      }
      const std::int64_t t1 = now_ns();
      if (reply.find("\"status\":\"serving\"") == std::string::npos) {
        ++failures_;
      } else if (recording_.load()) {
        std::lock_guard<std::mutex> lock(mutex_);
        rtts_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
  }

  svc::AdminClient client_;
  std::int64_t interval_ns_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  std::atomic<std::size_t> failures_{0};
  std::mutex mutex_;
  std::vector<double> rtts_us_;  ///< guarded by mutex_
  std::thread thread_;           ///< last: uses every member above
};

std::vector<std::string> olevd_args(const ServeParams& p,
                                    const std::string& journal_path) {
  std::vector<std::string> args = {
      "--port", "0", "--admin-port", "0", "--engine", p.engine,
      "--players", std::to_string(p.players), "--sections",
      std::to_string(kSections), "--batch-window-us", "0"};
  if (!journal_path.empty()) {
    args.insert(args.end(),
                {"--journal", journal_path, "--journal-fsync", "none"});
  }
  return args;
}

/// Backlog stayed flat: the median outstanding count of the rung's second
/// half is within 1.5x (+4) of its first half.  Medians, so one host stall
/// does not read as a growing queue.
bool backlog_flat(const std::vector<double>& backlog) {
  if (backlog.size() < 4) return true;
  const std::size_t half = backlog.size() / 2;
  const std::vector<double> first(backlog.begin(), backlog.begin() + half);
  const std::vector<double> second(backlog.begin() + half, backlog.end());
  return median(second) <= 1.5 * median(first) + 4.0;
}

void add_outcomes(JsonObject& out, const PhaseResult& r) {
  for (int o = 1; o < 8; ++o) {
    if (r.outcome_counts[o] > 0) {
      out.integer(outcome_name(static_cast<Outcome>(o)),
                  static_cast<long long>(r.outcome_counts[o]));
    }
  }
}

JsonObject phase_json(const PhaseResult& r, double rate) {
  JsonObject out;
  out.num("rate", rate)
      .integer("attempted", static_cast<long long>(r.attempted))
      .integer("ok", static_cast<long long>(r.ok))
      .integer("failed", static_cast<long long>(r.failed))
      .boolean("aborted", r.aborted)
      .integer("inflight_at_close", static_cast<long long>(r.inflight_at_close))
      .num("p50_us", r.p50_us)
      .num("p90_us", r.p90_us)
      .num("p99_us", r.p99_us)
      .num("lateness_p99_us", r.lateness_p99_us)
      .num("window_s", r.window_s);
  std::vector<double> lat = r.latency_us;
  out.num("p99_whole_window_us", percentile(lat, 99.0));
  JsonObject outcomes;
  add_outcomes(outcomes, r);
  out.object("outcomes", outcomes);
  return out;
}

struct PhaseSpec {
  std::string name;
  double rate;
  double seconds;
  std::int64_t abort_age_ns;  ///< 0 = never abort
};

/// Request spans of the scored window, and the per-layer numbers they give:
/// each request span's children are olevd's echoed phases.  olevd reports
/// durations only, so the children are laid end to end, centred in the
/// request span.  The request's self time (its duration minus its
/// children) is the unaccounted part: encode, write(2) and the wire.
///
/// The spans are built after the window from stamps every run takes, so
/// tracing adds nothing to a request's latency.  trace.overhead_p50_us is
/// what it does cost: the median time to record one request's spans.
void trace_requests(const Phase& phase, const PhaseResult& result,
                    RunReport& report) {
  std::vector<double> admit, queue, batch, solve, self_us, record_us;
  for (std::size_t i = 0; i < result.attempted; ++i) {
    const Request& r = phase.requests[i];
    if (r.outcome != Outcome::kOk) continue;
    const std::int64_t children_ns =
        1000LL * (static_cast<std::int64_t>(r.phases.admit_us) +
                  r.phases.queue_us + r.phases.batch_us + r.phases.solve_us);
    const std::int64_t total_ns = r.done_ns - r.send_ns;
    const std::int64_t record_start = now_ns();
    report.spans.add({"client.request", "", r.trace_id, r.send_ns, r.done_ns});
    std::int64_t at =
        r.send_ns + std::max<std::int64_t>(0, (total_ns - children_ns) / 2);
    const std::pair<const char*, std::uint32_t> children[] = {
        {"svc.admit", r.phases.admit_us},
        {"svc.queue", r.phases.queue_us},
        {"svc.batch", r.phases.batch_us},
        {"svc.solve", r.phases.solve_us}};
    for (const auto& [name, us] : children) {
      const std::int64_t end = at + 1000LL * us;
      report.spans.add({name, "client.request", r.trace_id, at, end});
      at = end;
    }
    record_us.push_back(static_cast<double>(now_ns() - record_start) / 1e3);
    admit.push_back(r.phases.admit_us);
    queue.push_back(r.phases.queue_us);
    batch.push_back(r.phases.batch_us);
    solve.push_back(r.phases.solve_us);
    self_us.push_back(static_cast<double>(total_ns - children_ns) / 1e3);
  }
  const std::size_t n = admit.size();
  MetricSet& m = report.metrics;
  m.add("svc.admit_p50_us", percentile_quantized(admit, 50.0), "us", n);
  m.add("svc.queue_p50_us", percentile_quantized(queue, 50.0), "us", n);
  m.add("svc.queue_p99_us", percentile_quantized(queue, 99.0), "us", n);
  m.add("svc.batch_p50_us", percentile_quantized(batch, 50.0), "us", n);
  m.add("svc.batch_p99_us", percentile_quantized(batch, 99.0), "us", n);
  m.add("svc.solve_p50_us", percentile_quantized(solve, 50.0), "us", n);
  m.add("svc.solve_p99_us", percentile_quantized(solve, 99.0), "us", n);
  m.add("svc.unaccounted_p50_us", percentile(self_us, 50.0), "us", n);
  m.add("trace.overhead_p50_us", percentile(record_us, 50.0), "us", n);
}

/// Why a max_rps rung misses; empty when it passes.
std::string rung_miss(const PhaseResult& r, const ServeParams& p) {
  if (r.aborted) return "aborted: oldest request too old";
  if (r.failed > 0) return "failed requests";
  if (r.p99_us > p.limit_us) return "p99 over limit";
  if (!backlog_flat(r.backlog)) return "backlog grew";
  if (r.lateness_p99_us > p.lateness_limit_us) return "generator behind";
  return {};
}

}  // namespace

void run_serve(const ServeParams& p, RunReport& report) {
  const std::string journal_path =
      p.journal ? p.workdir + "/journal-" + std::to_string(getpid()) + ".bin"
                : std::string();
  const std::vector<std::string> args = olevd_args(p, journal_path);

  // Set-up: spawn -> ready line, several times.  The first half of the
  // spawns come before the load, and the last of them serves; the rest come
  // after it, so setup_s samples both ends of the run.
  std::vector<double> setup_s;
  std::unique_ptr<Olevd> server;
  const int spawns_before = (p.setup_spawns + 1) / 2;
  for (int s = 0; s < spawns_before; ++s) {
    server.reset();
    server = std::make_unique<Olevd>(p.olevd, args, true);
    setup_s.push_back(server->ready_s());
  }

  std::uint64_t stream = 0;
  std::size_t ok_all = 0;
  std::size_t attempted_all = 0;
  JsonObject phases_json;
  {
    CpuRotation rotation(server->pid());
    Generator gen(server->port(), &rotation);
    AdminPoller admin(server->admin_port(), kAdminHz);
    auto run_phase = [&](const PhaseSpec& spec) {
      Phase phase = gen.make_phase(mix_seed(p.seed, ++stream), spec.rate,
                                   spec.seconds, p.players);
      PhaseResult result = gen.run(phase, spec.abort_age_ns);
      attempted_all += result.attempted;
      ok_all += result.ok;
      phases_json.object(spec.name, phase_json(result, spec.rate));
      return std::make_pair(std::move(phase), std::move(result));
    };
    // A scored window at the fixed rate.  If the generator fell behind its
    // schedule the window is not scored and runs again (twice at most);
    // the attempts stay in the record.
    auto scored_window = [&](const std::string& name, double seconds) {
      for (int attempt = 1;; ++attempt) {
        admin.record(true);
        const std::string label =
            attempt == 1 ? name : name + "_retry" + std::to_string(attempt);
        auto phase = run_phase({label, p.rate, seconds, 0});
        admin.record(false);
        const PhaseResult& r = phase.second;
        if (r.lateness_p99_us <= p.lateness_limit_us) return phase;
        const std::string why = name + ": generator lateness p99 " +
                                std::to_string(r.lateness_p99_us) + " us > " +
                                std::to_string(p.lateness_limit_us) + " us";
        if (attempt == 3) {
          report.valid = false;
          report.problems.push_back(why);
          return phase;
        }
        admin.take_rtts();
      }
    };

    // Warm-up: same rate, not scored (its replies are still checked).
    const double rung_s = kRungFrac * p.seconds;
    run_phase({"warmup", p.rate, kWarmupFrac * p.seconds, 0});
    auto [fixed_phase, fixed] = scored_window("fixed", p.fixed_frac * p.seconds);
    report.attempted = static_cast<long long>(fixed.attempted);
    report.failed = static_cast<long long>(fixed.failed);

    if (!p.trace) {
      std::vector<double> admin_rtt = admin.take_rtts();
      report.metrics.add("p50_us", fixed.p50_us, "us", fixed.latency_us.size());
      // The tail metric is p90, not p99: at 1300 req/s a slice of 1000
      // requests spans 0.8 s, so nearly every slice holds a host stall and
      // its p99 measures the stall (run-to-run spread 0.5 on the reference
      // VM).  p99 stays in the record and still judges the max_rps rungs.
      report.metrics.add("p90_us", fixed.p90_us, "us", fixed.latency_us.size());
      report.details.num("p99_us", fixed.p99_us)
          .num("lateness_p99_us", fixed.lateness_p99_us)
          .nums("slice_p50_us", fixed.slice_p50_us)
          .nums("slice_p90_us", fixed.slice_p90_us)
          .integer("lateness_samples",
                   static_cast<long long>(fixed.lateness_us.size()))
          .num("admin_p50_us", percentile(admin_rtt, 50.0))
          .num("admin_p99_us", percentile(admin_rtt, 99.0))
          .integer("admin_samples", static_cast<long long>(admin_rtt.size()));

      // max_rps: climb the ladder -- the fixed rate, then the workload's
      // rungs -- until a rung misses.  The fixed window is the first rung's
      // first try.  One slow stretch of the host should not end the climb,
      // so a missed rung gets a second try (kRungRetries per ladder).  When
      // the final miss is a p99 over the limit, the rate where p99 crosses
      // the limit is interpolated (ln p99 linear in rate) between the last
      // passing rung and the missing one, so the figure is not quantized to
      // the rungs; any other miss reports the last passing rung's offered
      // rate.  Not its completion rate: that divides by the time to the
      // last answer, so one reply held up by the host at the end of a
      // passing rung would pull the figure down.
      std::vector<double> rates{p.rate};
      rates.insert(rates.end(), p.ladder.begin(), p.ladder.end());
      const auto abort_age_ns =
          static_cast<std::int64_t>(kAbortAgeLimits * p.limit_us * 1e3);
      double best_rate = 0.0;
      double best_p99 = 0.0;
      std::size_t samples = 0;
      std::string stop_reason = "ladder exhausted";
      int retries_left = kRungRetries;
      for (std::size_t k = 0; k < rates.size(); ++k) {
        const double rate = rates[k];
        std::string name =
            k == 0 ? "fixed" : "rung_" + std::to_string(static_cast<long long>(rate));
        PhaseResult rung = k == 0 ? std::move(fixed)
                                  : run_phase({name, rate, rung_s, abort_age_ns}).second;
        samples += rung.latency_us.size();
        std::string miss = rung_miss(rung, p);
        if (!miss.empty() && retries_left > 0) {
          --retries_left;
          name += "_retry";
          rung = run_phase({name, rate, rung_s, abort_age_ns}).second;
          samples += rung.latency_us.size();
          miss = rung_miss(rung, p);
        }
        if (miss.empty()) {
          best_rate = rate;
          best_p99 = rung.p99_us;
          continue;
        }
        stop_reason = name + ": " + miss;
        if (miss == "p99 over limit" && best_rate > 0.0) {
          const double frac = std::log(p.limit_us / best_p99) /
                              std::log(rung.p99_us / best_p99);
          best_rate += frac * (rate - best_rate);
        }
        break;
      }
      report.metrics.add("max_rps", best_rate, "1/s", samples);
      report.details.str("ladder_stop", stop_reason);
    } else {
      std::vector<double> admin_rtt = admin.take_rtts();
      trace_requests(fixed_phase, fixed, report);
      report.metrics.add("svc.admin_p50_us", percentile(admin_rtt, 50.0), "us",
                         admin_rtt.size());
      report.metrics.add("svc.admin_p99_us", percentile(admin_rtt, 99.0), "us",
                         admin_rtt.size());
    }

    // Admin plane at the end of the run: the server's own counters.
    admin.halt();
    if (admin.failures() > 0) {
      report.fail_check("admin health poll failed or reported not serving");
    }
    const std::string metrics_json = admin.request("metrics");
    const std::string engine_json = admin.request("engine");
    report.details.raw("admin_metrics", metrics_json)
        .raw("admin_engine", engine_json);

    // The write-ahead journal holds exactly the admitted requests: every
    // frame sent (retries included) minus the RETRY_LATER refusals.
    const long long admitted = static_cast<long long>(gen.frames_sent()) -
                               static_cast<long long>(gen.retry_later());
    const long long journaled = json_field(engine_json, "journal_records");
    report.details.integer("admitted", admitted)
        .integer("journal_records", journaled);
    if (p.journal && journaled != admitted) {
      report.fail_check("journal_records " + std::to_string(journaled) +
                        " != admitted requests " + std::to_string(admitted));
    }
    if (p.trace) {
      report.metrics.add("persist.journal_records",
                         static_cast<double>(std::max(0LL, journaled)),
                         "count", 1);
    }
    if (gen.check_failures() > 0) {
      std::string why = std::to_string(gen.check_failures()) +
                        " replies failed output checks";
      for (const std::string& s : gen.check_samples()) why += "; " + s;
      report.fail_check(why);
    }
    report.details.integer("frames_sent",
                           static_cast<long long>(gen.frames_sent()))
        .integer("retry_later_replies",
                 static_cast<long long>(gen.retry_later()))
        .integer("late_replies", static_cast<long long>(gen.late_replies()));
  }

  // Peak RSS of olevd, then a graceful drain; its summary line must agree
  // with what this side counted.
  const long hwm_kb = proc_status_kb(server->pid(), "VmHWM");
  int status = 0;
  const std::string summary = server->stop(status);
  if (!journal_path.empty()) unlink(journal_path.c_str());
  for (int s = spawns_before; s < p.setup_spawns; ++s) {
    const Olevd spare(p.olevd, args, true);
    setup_s.push_back(spare.ready_s());
  }
  if (!journal_path.empty()) unlink(journal_path.c_str());
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.fail_check("olevd did not exit cleanly after SIGTERM");
  }
  const long long served = summary_field(summary, "served");
  const long long expired = summary_field(summary, "expired");
  const long long malformed = summary_field(summary, "malformed");
  report.details.integer("olevd_served", served)
      .integer("olevd_expired", expired)
      .integer("olevd_malformed", malformed);
  if (served != static_cast<long long>(ok_all)) {
    report.fail_check("olevd served " + std::to_string(served) +
                      " requests, client validated " + std::to_string(ok_all));
  }
  if (malformed != 0) report.fail_check("olevd counted malformed frames");
  report.details.object("phases", phases_json)
      .integer("attempted_all_phases", static_cast<long long>(attempted_all));

  const auto scored = static_cast<double>(report.attempted);
  if (!p.trace) {
    report.metrics.add("setup_s", median(setup_s), "s", setup_s.size());
    report.details.nums("setup_spawns_s", setup_s);
    report.metrics.add(
        "ok_frac",
        scored == 0.0 ? 0.0
                      : (scored - static_cast<double>(report.failed)) / scored,
        "ratio", static_cast<std::size_t>(report.attempted));
    report.metrics.add("rss_mb", static_cast<double>(hwm_kb) / 1024.0, "MB",
                       1);
  } else {
    report.details.num("setup_s", median(setup_s));
  }
}

}  // namespace perfbench
