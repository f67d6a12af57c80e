// End-to-end benchmark of the ORWL runtime: runs one workload for a
// fixed time in this (fresh) process, checks every op's output, and
// prints the run context and then, as the last line, one JSON object
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). See README.md for the workloads and
// metrics; run.py builds this binary and forwards its arguments.
//
//   perfbench --workload stencil|pipeline|graph|remote --seed N
//             --seconds S --trace 0|1 [--out DIR] [--start-ns T]
#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "topo/detect.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Reference point of setup_s: the static-initialisation time, or the
/// exec time run.py passes with --start-ns.
Clock::time_point g_process_start = Clock::now();

/// Per-layer metrics every workload reports in the traced run's result
/// line; a layer a workload does not exercise reads 0 (a count of work
/// that did not happen) or -1 (a counter its program path does not
/// expose). Workload-specific latencies, which have no value elsewhere,
/// are written to the layers file only.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"topo.detect_ms", "ms"},
    {"treematch.place_ms", "ms"},
    {"apps.seq_ms", "ms"},
    {"apps.speedup_vs_seq", "x"},
    {"runtime.handoff_intra_ns", "ns"},
    {"runtime.handoffs_per_op", "count"},
    {"runtime.inline_grant_share", "share"},
    {"runtime.shard_steals_per_op", "count"},
    {"runtime.threads_bound", "count"},
    {"runtime.futex_waits_per_op", "count"},
    {"runtime.futex_wakes_per_op", "count"},
    {"runtime.arena_bytes", "bytes"},
    {"runtime.arena_refills_per_op", "count"},
    {"runtime.arena_magazine_hits_per_op", "count"},
    {"dist.grants_sent_per_op", "count"},
    {"dist.home_threads", "count"},
    {"os.threads_peak", "count"},
    {"os.voluntary_switches_per_op", "count"},
    {"os.involuntary_switches_per_op", "count"},
    {"trace.op_p50_ms", "ms"},
    {"trace.op_p90_ms", "ms"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stencil|pipeline|graph|remote --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--start-ns T]\n",
               what.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("bad argument '" + key + "'");
    }
    kv[key.substr(2)] = argv[++i];
  }
  Args a;
  try {
    a.workload = kv.at("workload");
    a.seed = std::stoull(kv.at("seed"));
    a.seconds = std::stod(kv.at("seconds"));
    a.trace = std::stoi(kv.at("trace")) != 0;
  } catch (const std::exception&) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  a.out_dir = kv.count("out") ? kv["out"] : "perfbench/out";
  if (kv.count("start-ns")) {
    g_process_start = Clock::time_point(
        std::chrono::nanoseconds(std::stoll(kv["start-ns"])));
  }
  if (!(a.seconds > 0)) usage_error("--seconds must be positive");
  return a;
}

/// Record every ORWL_* variable, then remove it: the workloads set their
/// ProgramOptions explicitly, and knobs without a ProgramOptions field
/// (ORWL_FUTEX, ORWL_ARENA, ORWL_TOPOLOGY, ...) fall back to their
/// defaults instead of silently changing what is measured.
std::vector<std::pair<std::string, std::string>> isolate_orwl_env() {
  std::vector<std::pair<std::string, std::string>> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("ORWL_", 0) != 0) continue;
    const auto eq = kv.find('=');
    found.emplace_back(kv.substr(0, eq),
                       eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  for (const auto& [k, v] : found) ::unsetenv(k.c_str());
  return found;
}

std::string context_json(
    const Args& a, const std::vector<std::pair<std::string, std::string>>&
                       env) {
  std::string orwl_env = "{";
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (i > 0) orwl_env += ", ";
    orwl_env += json_string(env[i].first) + ": " + json_string(env[i].second);
  }
  orwl_env += "}";
  std::ostringstream os;
  os << "{\"workload\": " << json_string(a.workload)
     << ", \"seed\": " << a.seed << ", \"seconds\": " << json_number(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"topology\": " << json_string(orwl::topo::detect_host().summary())
     << ", \"orwl_env_cleared\": " << orwl_env << "}";
  return os.str();
}

/// Items per second at the interquartile mean op time: the mean of the
/// middle half of the sorted op times (a quarter trimmed from each end).
/// On a shared host the slowest ops are mostly other tenants' doing, and
/// a mean over all ops moved several times as far between runs as this.
double iqm_items_per_s(const Run& r) {
  std::vector<double> v = r.op_s;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  const double iqm_s = sum / static_cast<double>(hi - lo);
  return r.items / static_cast<double>(v.size()) / iqm_s;
}

std::vector<Metric> end_to_end(const Run& r) {
  const double ops = static_cast<double>(r.op_s.size());
  return {
      {"setup_s", r.setup_s, "s"},
      {"op_p50_ms", quantile(r.op_s, 0.5) * 1e3, "ms"},
      {"items_per_s", iqm_items_per_s(r), "items/s"},
      {"cpu_ms_per_op", r.usage.cpu_s * 1e3 / ops, "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> printed_layers(const Run& r) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = std::find_if(r.layers.begin(), r.layers.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == r.layers.end()) {
      throw std::logic_error(std::string("workload did not report ") + name);
    }
    out.push_back({name, it->value, unit});
  }
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

Usage Usage::now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.voluntary = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.involuntary = static_cast<std::uint64_t>(ru.ru_nivcsw);
  // VmHWM is this process's own peak. ru_maxrss also keeps the peak of
  // the image before exec (run.py's Python interpreter), which can be
  // larger than the whole remote client.
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        u.peak_rss_mb = static_cast<double>(kb) / 1024.0;
        break;
      }
    }
    std::fclose(f);
  }
  return u;
}

std::size_t current_threads() {
  std::size_t n = 0;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    ::closedir(d);
  }
  return n;
}

ThreadSampler::ThreadSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const std::size_t n = current_threads() - 1;
          if (n > peak_.load()) peak_.store(n);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace_id\": "
                  "%llu, \"parent\": \"%s\"}}",
                  i == 0 ? "" : ",\n", s.name, s.start_ns / 1e3,
                  s.dur_ns / 1e3, static_cast<unsigned long long>(s.trace_id),
                  s.parent);
    f << buf;
  }
  f << "\n], \"otherData\": {\"dropped_spans\": " << dropped_ << "}}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const auto env = isolate_orwl_env();
  // A peer that died must surface as a failed send, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);

  Run (*workload)(const Args&, Tracer&) = nullptr;
  if (args.workload == "stencil") workload = run_stencil;
  if (args.workload == "pipeline") workload = run_pipeline;
  if (args.workload == "graph") workload = run_graph;
  if (args.workload == "remote") workload = run_remote;
  if (workload == nullptr) usage_error("unknown workload " + args.workload);

  try {
    Tracer tracer(args.trace);
    const Run run = workload(args, tracer);
    const std::string context = context_json(args, env);
    std::printf("{\"context\": %s}\n", context.c_str());

    const std::vector<Metric> metrics =
        args.trace ? printed_layers(run) : end_to_end(run);
    if (args.trace) {
      const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed);
      ::mkdir(args.out_dir.c_str(), 0755);
      tracer.write(stem + "-trace.json");
      write_text(stem + "-layers.json",
                 "{\"context\": " + context +
                     ", \"dropped_spans\": " +
                     std::to_string(tracer.dropped()) +
                     ", \"metrics\": " + metrics_json(run.layers) + "}\n");
      std::fprintf(stderr, "perfbench: wrote %s-trace.json and -layers.json\n",
                   stem.c_str());
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        run.correct ? "true" : "false",
        static_cast<unsigned long long>(run.attempted),
        static_cast<unsigned long long>(run.failed),
        metrics_json(metrics).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
