// The three in-process workloads (stencil, pipeline, graph) and the
// helpers they share with remote.cpp. Each op calls one apps:: entry
// point on inputs generated before the timed phase; everything around
// the call (resetting the input, checking the output) is outside the
// op's time.
#include <algorithm>
#include <cstring>
#include <optional>

#include "apps/graph.hpp"
#include "apps/lk23.hpp"
#include "apps/video.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "runtime/handle.hpp"
#include "runtime/location.hpp"
#include "support/rng.hpp"
#include "topo/detect.hpp"
#include "topo/shard.hpp"
#include "treematch/treematch.hpp"

namespace perfbench {

using namespace orwl;

rt::ProgramOptions placed_options(const topo::Topology& host,
                                  std::size_t num_tasks) {
  rt::ProgramOptions o;
  o.locations_per_task = 1;  // the declarative builders size this
  o.control_threads = std::max<std::size_t>(1, num_tasks / 4);
  o.control_shards = topo::recommended_shard_count(host);
  o.affinity = rt::AffinityMode::On;
  o.data_transfer = rt::DataTransferMode::Owner;
  o.topology = &host;
  o.engine = tm::GroupingEngine::Auto;
  o.bind_threads = true;
  o.acquire_timeout_ms = 120000;
  o.dry_run = false;
  o.data_transfer_hysteresis = 2;
  o.replace = rt::ReplaceMode::Off;
  o.replace_threshold = 0.25;
  o.replace_decay = 0.5;
  o.replace_interval = 16;
  o.steal = rt::StealMode::All;
  o.steal_spin = 64;
  o.tag = "perfbench";
  return o;
}

void write_cycle(rt::Location& loc) {
  rt::Handle h;
  h.insert_standalone(loc, rt::AccessMode::Write);
  rt::Section sec(h);
  ++*sec.as<std::uint64_t>();
}

double handoff_intra_ns() {
  constexpr int kCycles = 20000;
  rt::Location loc{0, 0, 0};
  loc.scale(8);
  std::memset(loc.data(), 0, loc.size());
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCycles; ++i) write_cycle(loc);
    batches.push_back(seconds_between(t0, Clock::now()) * 1e9 / kCycles);
  }
  return quantile(batches, 0.5);
}

void add_runtime_metrics(Run& run, const rt::ProgramStats* s,
                         std::uint64_t ops) {
  auto add = [&](const char* name, double v, const char* unit) {
    run.layers.push_back({name, s != nullptr ? v : -1.0, unit});
  };
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const rt::ProgramStats st = s != nullptr ? *s : rt::ProgramStats{};
  const double handoffs =
      static_cast<double>(st.control_events + st.control_inline_grants);
  add("runtime.handoffs_per_op", handoffs / n, "count");
  add("runtime.inline_grant_share",
      handoffs > 0 ? static_cast<double>(st.control_inline_grants) / handoffs
                   : 0.0,
      "share");
  add("runtime.shard_steals_per_op", static_cast<double>(st.shard_steals) / n,
      "count");
  add("runtime.threads_bound",
      static_cast<double>(st.compute_threads_bound + st.control_threads_bound),
      "count");
  add("runtime.futex_waits_per_op", static_cast<double>(st.futex_waits) / n,
      "count");
  add("runtime.futex_wakes_per_op", static_cast<double>(st.futex_wakes) / n,
      "count");
  add("runtime.arena_bytes", static_cast<double>(st.arena_bytes), "bytes");
  add("runtime.arena_refills_per_op",
      static_cast<double>(st.arena_refills) / n, "count");
  add("runtime.arena_magazine_hits_per_op",
      static_cast<double>(st.arena_magazine_hits) / n, "count");
}

double tree_match_ms(const topo::Topology& host, const tm::CommMatrix& m,
                     std::size_t control_threads) {
  tm::Options opts;
  opts.num_control_threads = control_threads;
  return median_ms(21, [&] { (void)tm::tree_match(host, m, opts); });
}

namespace {

/// Counters summed over ops; per-program sizes keep the last op's value.
void accumulate(rt::ProgramStats& sum, const rt::ProgramStats& s) {
  sum.control_events += s.control_events;
  sum.control_inline_grants += s.control_inline_grants;
  sum.shard_steals += s.shard_steals;
  sum.futex_waits += s.futex_waits;
  sum.futex_wakes += s.futex_wakes;
  sum.arena_refills += s.arena_refills;
  sum.arena_magazine_hits += s.arena_magazine_hits;
  sum.arena_bytes = s.arena_bytes;
  sum.compute_threads_bound = s.compute_threads_bound;
  sum.control_threads_bound = s.control_threads_bound;
}

/// Shared shape of the in-process workloads: host detection, the timed
/// op loop, and the per-layer probes of the traced run.
class AppBench {
 public:
  AppBench(const Args& args, Tracer& tracer) : args_(args), tracer_(tracer) {
    const auto t0 = Clock::now();
    host_ = topo::detect_host();
    const auto t1 = Clock::now();
    tracer_.span("topo.detect_host", "setup", t0, t1, 0);
    detect_ms_ = seconds_between(t0, t1) * 1e3;
  }

  const topo::Topology& host() const noexcept { return host_; }

  /// Time the sequential reference; its time is kept out of setup_s.
  template <class Fn>
  void reference(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tracer_.span("apps.sequential", "setup", t0, t1, 0);
    excluded_s_ += seconds_between(t0, t1);
    seq_ms_.push_back(seconds_between(t0, t1) * 1e3);
  }

  /// Run whole ops until args.seconds of wall time have passed. `prep`
  /// resets the input, `op` is the timed call, `check` judges the output
  /// (and folds the op's ProgramStats in).
  template <class Prep, class Op, class Check>
  void loop(const char* op_name, double items_per_op, Prep&& prep, Op&& op,
            Check&& check) {
    if (args_.trace) sampler_.emplace();
    const auto phase0 = Clock::now();
    do {
      const std::uint64_t id = run_.attempted + 1;
      auto t = Clock::now();
      prep();
      const auto t0 = Clock::now();
      tracer_.span("bench.prep", "op", t, t0, id);
      if (run_.op_s.empty()) {
        run_.setup_s = seconds_between(process_start(), t0) - excluded_s_;
      }
      const Usage u0 = Usage::now();
      op();
      const Usage u1 = Usage::now();
      const auto t1 = Clock::now();
      tracer_.span(op_name, "op", t0, t1, id);
      run_.usage += u1 - u0;
      run_.op_s.push_back(seconds_between(t0, t1));
      ++run_.attempted;
      run_.items += items_per_op;
      if (!check()) run_.correct = false;
      tracer_.span("bench.check", "op", t1, Clock::now(), id);
    } while (seconds_between(phase0, Clock::now()) < args_.seconds);
    run_.peak_rss_mb = Usage::now().peak_rss_mb;
    if (sampler_) threads_peak_ = sampler_->peak();
    sampler_.reset();
  }

  /// The untraced run's result.
  Run result() { return std::move(run_); }

  /// The traced run's result with its per-layer metrics. `matrix` is the
  /// workload's communication matrix (placed onto the host to time
  /// Algorithm 1); `stats` the ProgramStats summed over ops, null when not
  /// exposed. Two more sequential runs make apps.seq_ms a median of three.
  template <class Fn>
  Run finish(Fn&& sequential, const tm::CommMatrix& matrix,
             std::size_t control_threads, const rt::ProgramStats* stats,
             std::vector<Metric> extra) {
    for (int i = 0; i < 2; ++i) reference(sequential);
    auto& L = run_.layers;
    const double ops = static_cast<double>(run_.op_s.size());
    const double op_ms = quantile(run_.op_s, 0.5) * 1e3;
    const double seq_ms = quantile(seq_ms_, 0.5);
    const auto t0 = Clock::now();
    const double place_ms = tree_match_ms(host_, matrix, control_threads);
    tracer_.span("treematch.tree_match", "probe", t0, Clock::now(), 0);
    const auto t1 = Clock::now();
    const double intra_ns = handoff_intra_ns();
    tracer_.span("runtime.handoff_intra", "probe", t1, Clock::now(), 0);
    L.push_back({"topo.detect_ms", detect_ms_, "ms"});
    L.push_back({"treematch.place_ms", place_ms, "ms"});
    L.push_back({"apps.seq_ms", seq_ms, "ms"});
    L.push_back({"apps.speedup_vs_seq", seq_ms / op_ms, "x"});
    L.push_back({"runtime.handoff_intra_ns", intra_ns, "ns"});
    add_runtime_metrics(run_, stats, run_.op_s.size());
    L.push_back({"dist.grants_sent_per_op", 0, "count"});
    L.push_back({"dist.home_threads", 0, "count"});
    L.push_back({"os.threads_peak", static_cast<double>(threads_peak_),
                 "count"});
    L.push_back({"os.voluntary_switches_per_op",
                 static_cast<double>(run_.usage.voluntary) / ops, "count"});
    L.push_back({"os.involuntary_switches_per_op",
                 static_cast<double>(run_.usage.involuntary) / ops, "count"});
    L.push_back({"trace.op_p50_ms", op_ms, "ms"});
    L.push_back({"trace.op_p90_ms", quantile(run_.op_s, 0.9) * 1e3, "ms"});
    for (auto& m : extra) L.push_back(std::move(m));
    return std::move(run_);
  }

 private:
  const Args& args_;
  Tracer& tracer_;
  topo::Topology host_;
  double detect_ms_ = 0;
  double excluded_s_ = 0;
  std::vector<double> seq_ms_;
  std::optional<ThreadSampler> sampler_;
  std::size_t threads_peak_ = 0;
  Run run_;
};

}  // namespace

// stencil: LK23 on 1536^2 interior cells, 12 sweeps, 4x4 blocks.
Run run_stencil(const Args& args, Tracer& tracer) {
  constexpr std::size_t kN = 1538, kSweeps = 12, kBlocks = 4;
  AppBench b(args, tracer);
  const auto t0 = Clock::now();
  apps::Lk23Problem p = apps::Lk23Problem::generate(kN, args.seed);
  tracer.span("apps.generate", "setup", t0, Clock::now(), 0);
  const std::vector<double> za0 = p.za;
  std::vector<double> want;
  auto sequential = [&] {
    p.za = za0;
    apps::lk23_sequential(p, kSweeps);
  };
  b.reference(sequential);
  want = p.za;

  const rt::ProgramOptions opts = placed_options(b.host(), kBlocks * kBlocks);
  rt::ProgramStats sum{}, st{};
  b.loop(
      "apps.lk23_orwl", static_cast<double>((kN - 2) * (kN - 2) * kSweeps),
      [&] { p.za = za0; },
      [&] { apps::lk23_orwl(p, kSweeps, kBlocks, kBlocks, opts, &st); },
      [&] {
        accumulate(sum, st);
        return checks::stencil_ok(p.za, want);
      });
  if (!args.trace) return b.result();
  tm::CommMatrix m;
  const double build_ms = median_ms(
      5, [&] { m = apps::lk23_ops_comm_matrix(kN, kBlocks, kBlocks); });
  return b.finish(sequential, m, opts.control_threads, &sum,
                  {{"orwl.build_ms", build_ms, "ms"}});
}

// pipeline: the 30-task video graph of Fig. 2 at 640x360.
Run run_pipeline(const Args& args, Tracer& tracer) {
  constexpr std::size_t kFrames = 12;
  AppBench b(args, tracer);
  apps::VideoParams vp;
  vp.width = 640;
  vp.height = 360;
  vp.frames = kFrames;
  vp.gmm_splits = 16;
  vp.dilates = 4;
  vp.ccl_splits = 4;
  vp.seed = args.seed;
  apps::VideoResult want;
  auto sequential = [&] { want = apps::video_sequential(vp); };
  b.reference(sequential);

  const rt::ProgramOptions opts = placed_options(b.host(), vp.num_tasks());
  rt::ProgramStats sum{}, st{};
  apps::VideoResult got;
  b.loop(
      "apps.video_orwl", static_cast<double>(kFrames), [] {},
      [&] { got = apps::video_orwl(vp, opts, &st); },
      [&] {
        accumulate(sum, st);
        return checks::pipeline_ok(got, want);
      });
  if (!args.trace) return b.result();
  tm::CommMatrix m;
  const double build_ms =
      median_ms(5, [&] { m = apps::video_comm_matrix(vp); });
  return b.finish(sequential, m, opts.control_threads, &sum,
                  {{"orwl.build_ms", build_ms, "ms"}});
}

// graph: PageRank on a 1024^2 grid, 20 sweeps, 4 tasks.
Run run_graph(const Args& args, Tracer& tracer) {
  constexpr std::size_t kSide = 1024, kSweeps = 20, kTasks = 4;
  AppBench b(args, tracer);
  const auto t0 = Clock::now();
  const apps::GridGraph g = apps::GridGraph::make(kSide);
  tracer.span("apps.generate", "setup", t0, Clock::now(), 0);
  // The grid is fixed by its side, so the seed draws the damping factor.
  support::SplitMix64 rng(args.seed);
  const double damping = 0.80 + 0.10 * rng.uniform();
  std::vector<double> want;
  auto sequential = [&] {
    want = apps::pagerank_sequential(g, kSweeps, damping);
  };
  b.reference(sequential);

  const rt::ProgramOptions opts = placed_options(b.host(), kTasks);
  std::vector<double> got;
  b.loop(
      "apps.pagerank_orwl",
      static_cast<double>(g.num_vertices() * kSweeps), [] {},
      [&] { got = apps::pagerank_orwl(g, kSweeps, kTasks, opts, damping); },
      [&] { return checks::graph_ok(got, want); });
  if (!args.trace) return b.result();
  // Bytes of rank each task reads from chunks seeded on another task per
  // sweep (pagerank_orwl seeds 256-vertex chunk c on task c % kTasks).
  constexpr std::size_t kChunk = 256;
  tm::CommMatrix m(kTasks);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t e = g.row_ptr[v]; e < g.row_ptr[v + 1]; ++e) {
      const std::size_t a = (v / kChunk) % kTasks;
      const std::size_t c = (g.col[e] / kChunk) % kTasks;
      if (a != c) m.add(a, c, sizeof(double));
    }
  }
  Run run = b.finish(sequential, m, opts.control_threads, nullptr, {});
  const double op_ms = quantile(run.op_s, 0.5) * 1e3;
  run.layers.push_back({"steal.sweep_ms", op_ms / kSweeps, "ms"});
  return run;
}

}  // namespace perfbench
