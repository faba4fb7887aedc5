#include "support.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

void Fail(const std::string& what) { throw CheckFailure(what); }

void Require(bool condition, const std::string& what) {
  if (!condition) Fail(what);
}

void RequireOk(const rangesyn::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::ostringstream os;
    os << what << ": " << status;
    Fail(os.str());
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// The daemon the watchdog kills; set while one runs.
std::atomic<pid_t> g_daemon_pid{-1};

void OnWatchdog(int /*signum*/) {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) kill(pid, SIGKILL);
  static const char kMsg[] = "perfbench: watchdog expired, run stuck\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  _exit(3);
}

}  // namespace

void InstallWatchdog(unsigned seconds) {
  signal(SIGALRM, OnWatchdog);
  alarm(seconds);
}

// ---------------------------------------------------------------------------

namespace {

// Iteration count giving about kRefNominalMs on the reference host.
constexpr int kRefIters = 1 << 19;

}  // namespace

int64_t RunRefLoop() {
  // A 4 KiB table keeps the memory traffic in L1; the xorshift chain and
  // the dependent multiply-add keep integer and floating-point units busy
  // the way the DP inner loops do. The seed is read through a volatile so
  // the compiler cannot fold the loop.
  static volatile uint64_t seed = 0x9e3779b97f4a7c15ULL;
  std::array<double, 512> table{};
  uint64_t x = seed;
  double acc = 1.0;
  const int64_t start = NowNs();
  for (int i = 0; i < kRefIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& slot = table[x & 511];
    slot = slot * 0.5 + static_cast<double>(x >> 40) * 1e-6;
    acc = std::min(acc * 1.0000001 + slot, 1e12);
  }
  const int64_t end = NowNs();
  seed = x ^ static_cast<uint64_t>(acc);
  return end - start;
}

RefClock::RefClock() { samples_.push_back(RunRefLoop()); }

double RefClock::Correct(int64_t raw_ns) {
  const int64_t before = samples_.back();
  samples_.push_back(RunRefLoop());
  const double ref_ns = 0.5 * static_cast<double>(before + samples_.back());
  return static_cast<double>(raw_ns) * (kRefNominalMs * 1e6) / ref_ns;
}

// ---------------------------------------------------------------------------

EchoReference::EchoReference() {
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  Require(listen_fd >= 0 &&
              bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0 &&
              listen(listen_fd, 1) == 0 &&
              getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
          "echo reference: listen failed");
  client_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  Require(client_fd_ >= 0 &&
              connect(client_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
          "echo reference: connect failed");
  server_fd_ = accept(listen_fd, nullptr, nullptr);
  close(listen_fd);
  Require(server_fd_ >= 0, "echo reference: accept failed");
  const int one = 1;
  setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  setsockopt(server_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // lint: waive(LINT-004) echo thread, joined in the destructor
  echo_ = std::thread([fd = server_fd_] {
    char buf[64];
    while (true) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, 100) < 0) break;
      const ssize_t got = read(fd, buf, sizeof(buf));
      if (got <= 0) break;
      if (write(fd, buf, static_cast<size_t>(got)) != got) break;
    }
  });
}

EchoReference::~EchoReference() {
  shutdown(client_fd_, SHUT_RDWR);
  echo_.join();
  close(client_fd_);
  close(server_fd_);
}

std::vector<double> EchoReference::RttNs(int64_t duration_ns) {
  std::vector<double> rtt;
  char buf[64] = {0};
  const int64_t until = NowNs() + duration_ns;
  while (NowNs() < until) {
    const int64_t t0 = NowNs();
    Require(write(client_fd_, buf, 40) == 40, "echo reference: write");
    size_t got = 0;
    while (got < 40) {
      pollfd p{client_fd_, POLLIN, 0};
      poll(&p, 1, 100);
      const ssize_t r = read(client_fd_, buf + got, 40 - got);
      Require(r > 0, "echo reference: read");
      got += static_cast<size_t>(r);
    }
    rtt.push_back(static_cast<double>(NowNs() - t0));
  }
  return rtt;
}

// ---------------------------------------------------------------------------

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t request) {
  if (!active_) return -1;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

void Tracer::End(int32_t id, int64_t amount) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  spans_[static_cast<size_t>(id)].amount = amount;
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, int64_t request, int64_t amount) {
  if (!active_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, amount});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void Tracer::Totals(const std::string& name, double* amount,
                    double* ns) const {
  *amount = 0;
  *ns = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    *amount += static_cast<double>(s.amount);
    *ns += static_cast<double>(s.end_ns - s.start_ns);
  }
}

std::map<std::string, double> Tracer::SelfTimes() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (int32_t c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      cover.emplace_back(std::max(k.start_ns, s.start_ns),
                         std::min(k.end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
       << "\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"amount\":" << s.amount
       << "}}";
  }
  os << "]}\n";
  if (!os) Fail("could not write trace file " + path);
}

// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

ExactSums::ExactSums(const std::vector<int64_t>& counts)
    : p_(counts.size() + 1, 0) {
  for (size_t i = 0; i < counts.size(); ++i) {
    Require(counts[i] >= 0, "negative count in a generated input");
    Require(p_[i] <= INT64_MAX - counts[i], "input volume overflows int64");
    p_[i + 1] = p_[i] + counts[i];
  }
}

// ---------------------------------------------------------------------------

uint64_t DrainSummary::Get(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) Fail("drain summary lacks field '" + key + "'");
  return it->second;
}

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& port_file) {
  std::remove(port_file.c_str());
  std::vector<std::string> argv_strings = {binary, "serve"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  argv_strings.push_back("--port-file=" + port_file);
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  Require(pipe2(pipe_fds, O_CLOEXEC) == 0, "pipe2 failed");
  spawn_ns_ = NowNs();
  pid_ = fork();
  if (pid_ == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  Require(pid_ > 0, "fork failed");
  g_daemon_pid.store(pid_);
  std::cerr << "perfbench: daemon pid " << pid_ << "\n";

  // Poll for the port file; the daemon writes it atomically once it
  // listens. A failure here must still stop the daemon: the destructor
  // does not run for a throwing constructor.
  try {
    WaitForPort(port_file);
  } catch (...) {
    Terminate();
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    throw;
  }
}

void Daemon::WaitForPort(const std::string& port_file) {
  const int64_t deadline = spawn_ns_ + 120'000'000'000LL;
  while (true) {
    std::ifstream in(port_file);
    int port = 0;
    if (in && (in >> port) && port > 0) {
      listen_s_ = static_cast<double>(NowNs() - spawn_ns_) / 1e9;
      port_ = static_cast<uint16_t>(port);
      break;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_daemon_pid.store(-1);
      Fail("daemon exited before listening");
    }
    Require(NowNs() < deadline, "daemon did not write its port file");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Daemon::CatchesSigterm() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) == 0) {
      const uint64_t mask = std::stoull(line.substr(7), nullptr, 16);
      return (mask >> (SIGTERM - 1)) & 1;
    }
  }
  return false;
}

void Daemon::Terminate() {
  if (pid_ <= 0) return;
  // `rangesyn serve` installs its SIGTERM handler only after it writes the
  // port file and serves; a SIGTERM before that kills it undrained (see
  // CHANGES.md). Wait, bounded, until the handler is in place.
  const int64_t handler_deadline = NowNs() + 5'000'000'000LL;
  while (!CatchesSigterm() && NowNs() < handler_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  int status = 0;
  bool reaped = false;
  while (NowNs() < deadline) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    status = -1;
  }
  exit_status_ = status;
  g_daemon_pid.store(-1);
  char buf[4096];
  while (true) {
    const ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got <= 0) break;
    output_.append(buf, static_cast<size_t>(got));
  }
  close(out_fd_);
  out_fd_ = -1;
  const bool drained = status == 0 &&
                       output_.find("drained cleanly") != std::string::npos;
  std::cerr << "perfbench: daemon pid " << pid_ << " stopped (exit status "
            << status << ", " << (drained ? "drained cleanly" : "NOT drained")
            << ")\n";
  pid_ = -1;
}

DrainSummary Daemon::Stop() {
  Terminate();
  Require(exit_status_ == 0, "daemon did not exit cleanly after SIGTERM");
  Require(output_.find("drained cleanly") != std::string::npos,
          "daemon did not report a clean drain");
  DrainSummary summary;
  const size_t at = output_.find("serve.summary");
  Require(at != std::string::npos, "daemon printed no drain summary");
  std::istringstream line(output_.substr(at, output_.find('\n', at) - at));
  std::string token;
  line >> token;
  while (line >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    summary.fields[token.substr(0, eq)] =
        std::stoull(token.substr(eq + 1));
  }
  return summary;
}

Daemon::~Daemon() {
  Terminate();
  if (out_fd_ >= 0) close(out_fd_);
}

}  // namespace perfbench
