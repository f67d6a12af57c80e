// remote: a home process forked by the benchmark exports four locations
// (8 B and 64 KiB, each over orwl+shm:// and orwl:// on tcp loopback);
// this process is the client and drives them from its one thread. An op
// is one round: one write cycle on each of the four locations.
//
// The home reports back over a pipe what it holds at the end, so the
// check compares the home's view with the client's: every counter equals
// the increments issued, the home granted exactly the cycles the client
// completed, and both 64 KiB payloads match what the client last wrote.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "dist/registry.hpp"
#include "dist/remote.hpp"
#include "dist/shm_transport.hpp"
#include "dist/tcp_transport.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"
#include "support/rng.hpp"
#include "topo/detect.hpp"

namespace perfbench {

namespace {

using namespace orwl;

constexpr std::size_t kLarge = 65536;
constexpr std::size_t kLargeWords = kLarge / sizeof(std::uint64_t);

/// The four locations, in the order a round visits them. Each registry
/// (one per transport) exports one small and one large location.
struct Kind {
  const char* name;
  bool shm;
  std::size_t bytes;
  const char* export_name;
  const char* acquire_span;
  const char* release_span;
};
constexpr Kind kKinds[4] = {
    {"shm8", true, 8, "cell8", "dist.shm8.acquire", "dist.shm8.release"},
    {"tcp8", false, 8, "cell8", "dist.tcp8.acquire", "dist.tcp8.release"},
    {"shm64k", true, kLarge, "cell64k", "dist.shm64k.acquire",
     "dist.shm64k.release"},
    {"tcp64k", false, kLarge, "cell64k", "dist.tcp64k.acquire",
     "dist.tcp64k.release"},
};

/// Home -> benchmark, once serving (error[0] != 0 when set-up failed).
struct HomeReady {
  char tcp_address[64];
  char error[160];
};

/// Home -> benchmark, at the end of the run.
struct HomeReport {
  std::array<std::uint64_t, 4> counter;
  std::array<std::uint64_t, 2> checksum;  ///< of the two 64 KiB payloads
  std::uint64_t grants_sent;
  std::uint64_t orphans_reclaimed;
  double cpu_s;  ///< between the start and stop commands
  double peak_rss_mb;
  std::uint64_t threads;
};

// Benchmark -> home commands; EOF on the pipe tells the home to exit.
constexpr char kStartClock = 'S';
constexpr char kStopClock = 'T';
constexpr char kReport = 'E';

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, c, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    c += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Read exactly n bytes; false on EOF, error or timeout.
bool read_all(int fd, void* p, std::size_t n, int timeout_ms) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    const ssize_t r = ::read(fd, c, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    c += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Four zeroed in-process locations sized like kKinds.
std::vector<std::unique_ptr<rt::Location>> make_locations() {
  std::vector<std::unique_ptr<rt::Location>> locs;
  for (std::size_t k = 0; k < 4; ++k) {
    locs.push_back(std::make_unique<rt::Location>(k, 0, k));
    locs[k]->scale(kKinds[k].bytes);
    std::memset(locs[k]->data(), 0, locs[k]->size());
  }
  return locs;
}

/// Body of the forked home process.
int home_main(int ctl, int res, const std::string& shm_base) {
  HomeReady ready{};
  bool ready_sent = false;
  try {
    const auto locs = make_locations();
    // Declared after the locations: stopped and destroyed before them.
    dist::Registry shm_reg, tcp_reg;
    for (std::size_t k = 0; k < 4; ++k) {
      (kKinds[k].shm ? shm_reg : tcp_reg)
          .export_location(kKinds[k].export_name, locs[k].get());
    }
    shm_reg.serve(
        std::make_unique<dist::ShmServerTransport>(shm_base, 1024));
    auto tcp = std::make_unique<dist::TcpServerTransport>(0);
    std::snprintf(ready.tcp_address, sizeof ready.tcp_address, "%s",
                  tcp->address().c_str());
    tcp_reg.serve(std::move(tcp));
    ready_sent = true;
    if (!write_all(res, &ready, sizeof ready)) return 1;

    Usage start, stop;
    char cmd = 0;
    while (read_all(ctl, &cmd, 1, -1)) {
      if (cmd == kStartClock) start = Usage::now();
      if (cmd == kStopClock) stop = Usage::now();
      if (cmd != kReport) continue;
      HomeReport r{};
      // Read through the home queue: a client release still in flight is
      // ordered before these reads.
      for (std::size_t k = 0; k < 4; ++k) {
        rt::Handle h;
        h.insert_standalone(*locs[k], rt::AccessMode::Read);
        h.acquire();
        const auto bytes = h.read_map();
        std::memcpy(&r.counter[k], bytes.data(), sizeof(std::uint64_t));
        if (k >= 2) r.checksum[k - 2] = checks::payload_checksum(bytes);
        h.release();
      }
      const dist::Registry::Stats s1 = shm_reg.stats(), s2 = tcp_reg.stats();
      r.grants_sent = s1.grants_sent + s2.grants_sent;
      r.orphans_reclaimed = s1.orphans_reclaimed + s2.orphans_reclaimed;
      r.cpu_s = stop.cpu_s - start.cpu_s;
      r.peak_rss_mb = Usage::now().peak_rss_mb;
      r.threads = current_threads();
      if (!write_all(res, &r, sizeof r)) return 1;
    }
    shm_reg.stop();
    tcp_reg.stop();
    return 0;
  } catch (const std::exception& e) {
    // After set-up the benchmark waits for a report, not this message;
    // the pipe's EOF tells it the home is gone.
    if (!ready_sent) {
      std::snprintf(ready.error, sizeof ready.error, "%s", e.what());
      write_all(res, &ready, sizeof ready);
    }
    std::fprintf(stderr, "perfbench home: %s\n", e.what());
    return 1;
  }
}

/// The forked home process. The destructor runs on every path out of
/// the workload, a failed check or an exception included: it closes the
/// command pipe (the home stops serving and exits), reaps the process
/// (killing it after a grace period), and unlinks every shm segment the
/// two sides can have created under the base name.
///
/// A watchdog thread covers the home dying first. A client blocked on a
/// grant over shm would wait for it forever (the shm transport has no
/// liveness check), so the watchdog reaps the home, unlinks the segments
/// and ends the benchmark with exit code 1.
class HomeProcess {
 public:
  explicit HomeProcess(std::string shm_base) : base_(std::move(shm_base)) {
    int ctl[2], res[2];
    if (::pipe2(ctl, O_CLOEXEC) != 0) throw std::runtime_error("pipe");
    if (::pipe2(res, O_CLOEXEC) != 0) {
      ::close(ctl[0]);
      ::close(ctl[1]);
      throw std::runtime_error("pipe");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(ctl[1]);
      ::close(res[0]);
      ::_exit(home_main(ctl[0], res[1], base_));
    }
    ::close(ctl[0]);
    ::close(res[1]);
    if (pid_ < 0) {
      ::close(ctl[1]);
      ::close(res[0]);
      throw std::runtime_error("fork failed");
    }
    ctl_ = ctl[1];
    res_ = res[0];
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
    if (pidfd >= 0 && ::pipe2(stop_, O_CLOEXEC) == 0) {
      watchdog_ = std::thread([this, pidfd] {
        pollfd fds[2] = {{pidfd, POLLIN, 0}, {stop_[0], POLLIN, 0}};
        while (::poll(fds, 2, -1) < 0 && errno == EINTR) {
        }
        ::close(pidfd);
        if (fds[1].revents != 0) return;  // the run ended first
        std::fprintf(stderr, "perfbench remote: home process died\n");
        ::waitpid(pid_, nullptr, 0);
        unlink_segments();
        ::_exit(1);
      });
    } else if (pidfd >= 0) {
      ::close(pidfd);
    }
  }

  ~HomeProcess() {
    if (watchdog_.joinable()) {
      const char c = 0;
      write_all(stop_[1], &c, 1);
      watchdog_.join();
    }
    for (int fd : stop_) {
      if (fd >= 0) ::close(fd);
    }
    if (ctl_ >= 0) ::close(ctl_);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) ::usleep(10000);
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    if (res_ >= 0) ::close(res_);
    unlink_segments();
  }

  HomeProcess(const HomeProcess&) = delete;
  HomeProcess& operator=(const HomeProcess&) = delete;

  /// Block until the home serves both transports; returns the tcp address.
  std::string wait_ready() {
    HomeReady r{};
    if (!read_all(res_, &r, sizeof r, 30000)) {
      throw std::runtime_error("home process did not start");
    }
    if (r.error[0] != 0) {
      throw std::runtime_error(std::string("home process: ") + r.error);
    }
    return r.tcp_address;
  }

  void command(char c) {
    if (!write_all(ctl_, &c, 1)) {
      throw std::runtime_error("home process is gone");
    }
  }

  HomeReport report() {
    command(kReport);
    HomeReport r{};
    if (!read_all(res_, &r, sizeof r, 30000)) {
      throw std::runtime_error("home process sent no report");
    }
    return r;
  }

 private:
  /// Listen segment "/<base>" and per-connection "/<base>.c<id>"; the
  /// benchmark opens one shm connection, the spare ids cover retries.
  void unlink_segments() const {
    ::shm_unlink(("/" + base_).c_str());
    for (int id = 0; id < 8; ++id) {
      ::shm_unlink(("/" + base_ + ".c" + std::to_string(id)).c_str());
    }
  }

  std::string base_;
  pid_t pid_ = -1;
  int ctl_ = -1;
  int res_ = -1;
  int stop_[2] = {-1, -1};  ///< written once to stop the watchdog
  std::thread watchdog_;
};

/// The reference the traced run compares against: the same round on four
/// in-process locations, no wire. Median ms per round.
double in_process_round_ms() {
  const auto locs = make_locations();
  std::vector<double> v;
  for (int r = 0; r < 2001; ++r) {
    const auto t0 = Clock::now();
    for (auto& loc : locs) write_cycle(*loc);
    v.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return quantile(v, 0.5);
}

}  // namespace

Run run_remote(const Args& args, Tracer& tracer) {
  Run run;
  const auto t_detect = Clock::now();
  const topo::Topology host = topo::detect_host();
  const double detect_ms = seconds_between(t_detect, Clock::now()) * 1e3;
  tracer.span("topo.detect_host", "setup", t_detect, Clock::now(), 0);

  // Forked before this process starts any thread.
  const auto t_home = Clock::now();
  const std::string shm_base = "orwl-perfbench-" + std::to_string(::getpid());
  HomeProcess home(shm_base);
  const std::string tcp_address = home.wait_ready();
  auto shm_client = dist::Client::connect("orwl+shm://" + shm_base);
  auto tcp_client = dist::Client::connect("orwl://" + tcp_address);
  std::array<rt::Location*, 4> locs{};
  for (std::size_t k = 0; k < 4; ++k) {
    locs[k] = &(kKinds[k].shm ? *shm_client : *tcp_client)
                   .attach(kKinds[k].export_name);
  }
  tracer.span("dist.connect", "setup", t_home, Clock::now(), 0);

  // What the client wrote into the two large payloads, word for word.
  std::array<std::vector<std::uint64_t>, 2> shadow{
      std::vector<std::uint64_t>(kLargeWords, 0),
      std::vector<std::uint64_t>(kLargeWords, 0)};
  support::SplitMix64 rng(args.seed);
  std::array<std::array<std::vector<double>, 3>, 4> samples;  // acq/rel/cycle

  std::optional<ThreadSampler> sampler;
  if (args.trace) sampler.emplace();
  home.command(kStartClock);
  const Usage u0 = Usage::now();
  const auto phase0 = Clock::now();
  std::uint64_t rounds = 0;
  try {
    do {
      const std::uint64_t id = rounds + 1;
      const auto t0 = Clock::now();
      if (rounds == 0) run.setup_s = seconds_between(process_start(), t0);
      for (std::size_t k = 0; k < 4; ++k) {
        rt::Handle h;
        h.insert_standalone(*locs[k], rt::AccessMode::Write);
        const auto a0 = Clock::now();
        h.acquire();
        const auto a1 = Clock::now();
        auto* w = h.write_map_as<std::uint64_t>();
        if (w[0] != rounds) run.correct = false;
        w[0] = rounds + 1;
        if (kKinds[k].bytes == kLarge) {
          auto& s = shadow[k - 2];
          const std::size_t i = 1 + rng.below(kLargeWords - 1);
          if (w[i] != s[i]) run.correct = false;
          s[0] = rounds + 1;
          s[i] = w[i] = rng();
        }
        const auto r0 = Clock::now();
        h.release();
        if (args.trace) {
          const auto r1 = Clock::now();
          tracer.span(kKinds[k].acquire_span, "remote.round", a0, a1, id);
          tracer.span(kKinds[k].release_span, "remote.round", r0, r1, id);
          samples[k][0].push_back(seconds_between(a0, a1) * 1e6);
          samples[k][1].push_back(seconds_between(r0, r1) * 1e6);
          samples[k][2].push_back(seconds_between(a0, r1) * 1e6);
        }
      }
      const auto t1 = Clock::now();
      tracer.span("remote.round", "op", t0, t1, id);
      run.op_s.push_back(seconds_between(t0, t1));
      ++rounds;
    } while (seconds_between(phase0, Clock::now()) < args.seconds);
  } catch (const std::exception& e) {
    // A lost connection fails the round in flight; the check below then
    // fails too, since the home's counters fall short.
    std::fprintf(stderr, "perfbench remote: %s\n", e.what());
    ++run.failed;
    run.correct = false;
  }
  const Usage u1 = Usage::now();
  std::size_t threads_peak = 0;
  if (sampler) threads_peak = sampler->peak();
  sampler.reset();
  home.command(kStopClock);
  shm_client->close();
  tcp_client->close();
  const HomeReport rep = home.report();

  checks::RemoteTally tally;
  tally.rounds = rounds;
  tally.cycles = 4 * rounds;
  tally.home_counter = rep.counter;
  tally.grants_sent = rep.grants_sent;
  for (std::size_t j = 0; j < 2; ++j) {
    tally.client_checksum[j] = checks::payload_checksum(
        std::as_bytes(std::span<const std::uint64_t>(shadow[j])));
  }
  tally.home_checksum = rep.checksum;
  if (!checks::remote_ok(tally) || rep.orphans_reclaimed != 0) {
    run.correct = false;
  }

  run.attempted = rounds + run.failed;
  run.items = static_cast<double>(tally.cycles);
  run.usage = u1 - u0;
  run.usage.cpu_s += rep.cpu_s;
  run.peak_rss_mb = u1.peak_rss_mb + rep.peak_rss_mb;
  if (!args.trace) return run;

  // ---- traced run: per-layer metrics --------------------------------------
  auto& L = run.layers;
  const double n = static_cast<double>(std::max<std::uint64_t>(rounds, 1));
  const double op_ms = quantile(run.op_s, 0.5) * 1e3;
  const double seq_ms = in_process_round_ms();
  // Client and home exchange every payload both ways once per round.
  tm::CommMatrix m(2);
  double bytes_per_round = 0;
  for (const Kind& k : kKinds) bytes_per_round += 2.0 * k.bytes;
  m.set(0, 1, bytes_per_round);
  m.set(1, 0, bytes_per_round);
  L.push_back({"topo.detect_ms", detect_ms, "ms"});
  L.push_back({"treematch.place_ms", tree_match_ms(host, m, 1), "ms"});
  L.push_back({"apps.seq_ms", seq_ms, "ms"});
  L.push_back({"apps.speedup_vs_seq", seq_ms / op_ms, "x"});
  L.push_back({"runtime.handoff_intra_ns", handoff_intra_ns(), "ns"});
  add_runtime_metrics(run, nullptr, rounds);
  L.push_back({"dist.grants_sent_per_op",
               static_cast<double>(rep.grants_sent) / n, "count"});
  L.push_back({"dist.home_threads", static_cast<double>(rep.threads),
               "count"});
  L.push_back({"os.threads_peak", static_cast<double>(threads_peak),
               "count"});
  L.push_back({"os.voluntary_switches_per_op",
               static_cast<double>(run.usage.voluntary) / n, "count"});
  L.push_back({"os.involuntary_switches_per_op",
               static_cast<double>(run.usage.involuntary) / n, "count"});
  L.push_back({"trace.op_p50_ms", op_ms, "ms"});
  L.push_back({"trace.op_p90_ms", quantile(run.op_s, 0.9) * 1e3, "ms"});
  L.push_back({"dist.home_cpu_ms_per_op", rep.cpu_s * 1e3 / n, "ms"});
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string p = std::string("dist.") + kKinds[k].name;
    L.push_back({p + ".acquire_p50_us", quantile(samples[k][0], 0.5), "us"});
    L.push_back({p + ".release_p50_us", quantile(samples[k][1], 0.5), "us"});
    L.push_back({p + ".cycle_p99_us", quantile(samples[k][2], 0.99), "us"});
  }
  return run;
}

}  // namespace perfbench
