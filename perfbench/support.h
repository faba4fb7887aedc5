// Support code for the rangesyn benchmark harness: clocks, the fixed
// reference loop that corrects construction timings for host speed, the
// in-memory span tracer, percentile helpers, exact range-sum oracles, and
// the guard that owns a spawned `rangesyn serve` daemon.
//
// Nothing here is part of the program under test; it only calls the
// library's public functions and the daemon's command line.

#ifndef RANGESYN_PERFBENCH_SUPPORT_H_
#define RANGESYN_PERFBENCH_SUPPORT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/result.h"
#include "core/status.h"

namespace perfbench {

/// A correctness check failed. The run reports correct=false and exits 1
/// after the daemon (if any) has been drained.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void Fail(const std::string& what);
void Require(bool condition, const std::string& what);
void RequireOk(const rangesyn::Status& status, const std::string& what);
template <typename T>
T Take(rangesyn::Result<T> result, const std::string& what) {
  RequireOk(result.status(), what);
  return std::move(result).value();
}

/// Monotonic nanoseconds.
int64_t NowNs();

/// After `seconds`, kills the running daemon (if any) and exits with code
/// 3, so a run stuck in the program still ends.
void InstallWatchdog(unsigned seconds);

// ---------------------------------------------------------------------------
// Reference loop.
//
// A fixed amount of single-threaded integer, floating-point and L1-resident
// memory work, compiled into the benchmark only. It runs while the program
// is idle, next to each timed construction operation; dividing the
// operation's time by the reference loop's time (relative to its nominal
// time) removes most of the host's speed-regime swings. See README.md.

/// Nominal reference-loop time, milliseconds: what the loop takes on the
/// reference host in its fast regime. Corrected times read as seconds at
/// that nominal speed.
inline constexpr double kRefNominalMs = 2.0;

/// Runs the loop once and returns its wall time in nanoseconds.
int64_t RunRefLoop();

/// Times operations between reference-loop runs. Usage:
///   RefClock ref;            // runs the first loop
///   ... op ...; double corrected = ref.Correct(raw_ns);  // runs the next
class RefClock {
 public:
  RefClock();
  /// Runs the reference loop after an operation that took `raw_ns`, and
  /// returns the operation's time corrected by the mean of the loops on
  /// either side of it, in nanoseconds at nominal host speed.
  double Correct(int64_t raw_ns);
  /// Every reference-loop time seen, nanoseconds.
  const std::vector<int64_t>& samples() const { return samples_; }

 private:
  std::vector<int64_t> samples_;
};

// ---------------------------------------------------------------------------
// Loopback echo reference.
//
// A TCP connection over 127.0.0.1 to an echo thread in the harness: the
// same kernel path (write, poll wakeup, read, cross-thread handoff) that
// dominates a small request to the daemon, with no program code on it.

class EchoReference {
 public:
  EchoReference();
  ~EchoReference();
  EchoReference(const EchoReference&) = delete;
  EchoReference& operator=(const EchoReference&) = delete;
  /// Runs round trips of a 40-byte message for `duration_ns` and returns
  /// each round trip's time in nanoseconds.
  std::vector<double> RttNs(int64_t duration_ns);

 private:
  int client_fd_ = -1;
  int server_fd_ = -1;
  std::thread echo_;
};

// ---------------------------------------------------------------------------
// Spans.

/// One traced interval. `parent` is an index into the tracer's spans or -1;
/// spans of one request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
  /// Optional payload size (bytes for CRC spans, ranges for eval spans).
  int64_t amount = 0;
};

/// In-memory span recorder. Inactive tracers record nothing, so the
/// untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool active) : active_(active) {
    if (active_) spans_.reserve(1 << 20);
  }
  bool active() const { return active_; }
  /// Opens a span and returns its index (-1 when inactive).
  int32_t Begin(const char* name, int32_t parent = -1, int64_t request = -1);
  void End(int32_t id, int64_t amount = 0);
  /// Records an already-measured interval.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent = -1, int64_t request = -1, int64_t amount = 0);
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of `amount` and of durations over spans called `name`.
  void Totals(const std::string& name, double* amount, double* ns) const;
  /// Per-name self time (duration minus the part covered by children),
  /// summed, in nanoseconds.
  std::map<std::string, double> SelfTimes() const;
  /// Writes every span as Chrome trace-event JSON to `path`.
  void WriteJson(const std::string& path) const;

 private:
  bool active_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Exact oracles, computed apart from the program.

/// Integer prefix sums P[0..n] of counts (1-based positions).
class ExactSums {
 public:
  explicit ExactSums(const std::vector<int64_t>& counts);
  int64_t n() const { return static_cast<int64_t>(p_.size()) - 1; }
  /// Exact s[a, b], 1 <= a <= b <= n.
  int64_t Sum(int64_t a, int64_t b) const { return p_[b] - p_[a - 1]; }
  int64_t Total() const { return p_.back(); }
  /// The one-bucket (global average) estimate of s[a, b].
  double OneBucket(int64_t a, int64_t b) const {
    return static_cast<double>(Total()) * static_cast<double>(b - a + 1) /
           static_cast<double>(n());
  }

 private:
  std::vector<int64_t> p_;
};

// ---------------------------------------------------------------------------
// The daemon under test.

/// Drain summary printed by `rangesyn serve` on exit.
struct DrainSummary {
  std::map<std::string, uint64_t> fields;
  uint64_t Get(const std::string& key) const;
};

/// Owns one `rangesyn serve` process. The destructor (and Stop) sends
/// SIGTERM, waits for the graceful drain, and reaps the process, so no
/// daemon outlives the harness even when a check throws.
class Daemon {
 public:
  /// Spawns `binary serve <args> --port-file=<port_file>` with stdout
  /// captured, then waits for the port file. Records the spawn time.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& port_file);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  int64_t spawn_ns() const { return spawn_ns_; }
  /// Spawn to port file, seconds.
  double listen_s() const { return listen_s_; }

  /// SIGTERM, wait for exit (SIGKILL after a grace period), parse the
  /// drain summary. Fails the run if the daemon did not drain cleanly.
  DrainSummary Stop();

 private:
  void WaitForPort(const std::string& port_file);
  /// Whether the process has a SIGTERM handler installed (/proc SigCgt).
  bool CatchesSigterm() const;
  void Terminate();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  int64_t spawn_ns_ = 0;
  double listen_s_ = 0;
  int exit_status_ = 0;
  std::string output_;
};

}  // namespace perfbench

#endif  // RANGESYN_PERFBENCH_SUPPORT_H_
