// The output checks must be able to fail: each one is fed a real result
// of its workload's program path at a small size, which it must accept,
// and the same result with one corruption, which it must reject.
//
//   ctest --test-dir perfbench/.build   (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <vector>

#include "apps/graph.hpp"
#include "apps/lk23.hpp"
#include "apps/video.hpp"
#include "checks.hpp"

namespace {

using namespace orwl;
using namespace perfbench;

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

rt::ProgramOptions unplaced() {
  rt::ProgramOptions o;
  o.affinity = rt::AffinityMode::Off;
  return o;
}

void stencil() {
  apps::Lk23Problem p = apps::Lk23Problem::generate(34, 11);
  apps::Lk23Problem ref = p;
  apps::lk23_sequential(ref, 3);
  apps::lk23_orwl(p, 3, 2, 2, unplaced());
  expect(checks::stencil_ok(p.za, ref.za), "stencil accepts the ORWL result");
  p.za[5 * 34 + 7] = std::nextafter(p.za[5 * 34 + 7], 2.0);
  expect(!checks::stencil_ok(p.za, ref.za), "stencil rejects a flipped cell");
}

void pipeline() {
  apps::VideoParams vp;
  vp.width = 160;
  vp.height = 90;
  vp.frames = 6;
  vp.seed = 3;
  const apps::VideoResult want = apps::video_sequential(vp);
  apps::VideoResult got = apps::video_orwl(vp, unplaced());
  expect(checks::pipeline_ok(got, want), "pipeline accepts the ORWL result");
  got.detections_per_frame[2] += 1;
  expect(!checks::pipeline_ok(got, want),
         "pipeline rejects an altered per-frame detection count");
}

void graph() {
  const apps::GridGraph g = apps::GridGraph::make(32);
  const std::vector<double> want = apps::pagerank_sequential(g, 5, 0.85);
  std::vector<double> got = apps::pagerank_orwl(g, 5, 4, unplaced(), 0.85);
  expect(checks::graph_ok(got, want), "graph accepts the ORWL ranks");
  got[100] = std::nextafter(got[100], 1.0);
  expect(!checks::graph_ok(got, want), "graph rejects a perturbed rank");
  // Mass is checked on its own too: scaled ranks of a broken method.
  std::vector<double> scaled = want;
  for (double& r : scaled) r *= 1.001;
  expect(!checks::graph_ok(scaled, scaled), "graph rejects lost rank mass");
}

void remote() {
  checks::RemoteTally t;
  t.rounds = 1000;
  t.cycles = 4000;
  t.home_counter = {1000, 1000, 1000, 1000};
  t.grants_sent = 4000;
  t.client_checksum = {11, 22};
  t.home_checksum = {11, 22};
  expect(checks::remote_ok(t), "remote accepts a consistent tally");
  checks::RemoteTally dropped = t;
  dropped.home_counter[1] -= 1;
  expect(!checks::remote_ok(dropped), "remote rejects a dropped increment");
  checks::RemoteTally grants = t;
  grants.grants_sent += 1;
  expect(!checks::remote_ok(grants), "remote rejects an extra grant");
  checks::RemoteTally payload = t;
  payload.home_checksum[0] ^= 1;
  expect(!checks::remote_ok(payload), "remote rejects a corrupted payload");
  std::vector<std::byte> bytes(64, std::byte{0});
  const std::uint64_t before = checks::payload_checksum(bytes);
  bytes[63] = std::byte{1};
  expect(checks::payload_checksum(bytes) != before,
         "payload checksum sees a one-byte change");
}

}  // namespace

int main() {
  stencil();
  pipeline();
  graph();
  remote();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
