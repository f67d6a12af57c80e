#include "checks.hpp"

#include <cmath>
#include <cstring>

namespace perfbench::checks {

namespace {

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

}  // namespace

bool stencil_ok(std::span<const double> got, std::span<const double> want) {
  return bit_identical(got, want);
}

bool pipeline_ok(const orwl::apps::VideoResult& got,
                 const orwl::apps::VideoResult& want) {
  return got.frames == want.frames &&
         got.detections_per_frame == want.detections_per_frame &&
         got.final_track_positions == want.final_track_positions;
}

bool graph_ok(std::span<const double> got, std::span<const double> want,
              double mass_tol) {
  if (!bit_identical(got, want)) return false;
  double mass = 0;
  for (double r : got) mass += r;
  return std::fabs(mass - 1.0) <= mass_tol;
}

bool remote_ok(const RemoteTally& t) {
  for (std::uint64_t c : t.home_counter) {
    if (c != t.rounds) return false;
  }
  return t.cycles == 4 * t.rounds && t.grants_sent == t.cycles &&
         t.client_checksum == t.home_checksum;
}

std::uint64_t payload_checksum(std::span<const std::byte> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(bytes[i])) * 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench::checks
