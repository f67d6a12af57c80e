// Shared pieces of the end-to-end benchmark: arguments, the run record
// every workload fills, the span recorder of the traced run, and the
// process-level probes (CPU time, context switches, threads, RSS).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/program.hpp"
#include "topo/topology.hpp"
#include "treematch/comm_matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set during static initialisation of main.cpp: the reference point of
/// setup_s ("process start to the first timed op").
Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its two files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Spans kept in memory and written once, at the end, as Chrome
/// trace-event JSON. One trace id per op (0 = set-up and probes).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(process_start()) {}

  void span(const char* name, const char* parent, Clock::time_point t0,
            Clock::time_point t1, std::uint64_t trace_id) {
    if (!on_) return;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, parent, ns_since_origin(t0),
                      ns_since_origin(t1) - ns_since_origin(t0), trace_id});
  }

  /// Spans past kMaxSpans are counted, not kept: a remote run makes about
  /// a million, and the per-layer metrics come from full sample vectors.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Write the spans as {"traceEvents": [...]}; throws on an I/O error.
  void write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 100000;
  struct Span {
    const char* name;
    const char* parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t trace_id;
  };
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// getrusage(RUSAGE_SELF) fields the benchmark reads. Covers every thread
/// of the process, joined ones included.
struct Usage {
  double cpu_s = 0;  ///< user + system
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
  double peak_rss_mb = 0;  ///< VmHWM of /proc/self/status

  static Usage now();
  Usage operator-(const Usage& o) const {
    return {cpu_s - o.cpu_s, voluntary - o.voluntary,
            involuntary - o.involuntary, peak_rss_mb};
  }
  Usage& operator+=(const Usage& o) {
    cpu_s += o.cpu_s;
    voluntary += o.voluntary;
    involuntary += o.involuntary;
    return *this;
  }
};

/// Threads of this process right now (/proc/self/task entries).
std::size_t current_threads();

/// Samples current_threads() every 2 ms while alive (traced runs only);
/// its own thread is not counted.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  std::size_t peak() const noexcept { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;
};

/// Everything one workload run produces; main.cpp turns it into metrics.
struct Run {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  std::vector<double> op_s;  ///< wall time of each timed op
  double items = 0;          ///< work items completed by the timed ops
  Usage usage;               ///< summed over the timed ops
  double peak_rss_mb = 0;
  /// Per-layer metrics, traced run only. The names in kLayerMetrics
  /// (main.cpp) are printed; the rest go to the layers file only.
  std::vector<Metric> layers;
};

/// Median and other quantiles by linear interpolation between order
/// statistics (q in [0, 1]). The input is copied.
double quantile(std::vector<double> v, double q);

/// Median wall time of `repeats` calls of fn, in ms.
template <class Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return quantile(v, 0.5);
}

/// Algorithm 1 on `m` onto the host, median ms of 21 calls.
double tree_match_ms(const orwl::topo::Topology& host,
                     const orwl::tm::CommMatrix& m,
                     std::size_t control_threads);

/// The paper's configuration, with every ProgramOptions field set so no
/// inherited ORWL_* variable can change what is measured: placement on,
/// owner data transfer, no online re-placement, full stealing.
orwl::rt::ProgramOptions placed_options(const orwl::topo::Topology& host,
                                        std::size_t num_tasks);

/// One write cycle (standalone handle, acquire, bump word 0, release).
void write_cycle(orwl::rt::Location& loc);

/// Uncontended write cycle on an in-process rt::Location, median ns.
double handoff_intra_ns();

/// Fill the runtime.* metrics from ProgramStats summed over `ops` ops, or
/// with -1 ("not exposed on this path") when `stats` is null.
void add_runtime_metrics(Run& run, const orwl::rt::ProgramStats* stats,
                         std::uint64_t ops);

Run run_stencil(const Args& args, Tracer& tracer);
Run run_pipeline(const Args& args, Tracer& tracer);
Run run_graph(const Args& args, Tracer& tracer);
Run run_remote(const Args& args, Tracer& tracer);

}  // namespace perfbench
