// Output checks of the four workloads, kept free of timing and I/O so
// that checks_test.cpp can feed each one a corrupted result and confirm
// that it is rejected.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "apps/video.hpp"

namespace perfbench::checks {

/// stencil: the ORWL state is bit-identical to the sequential sweep.
bool stencil_ok(std::span<const double> got, std::span<const double> want);

/// pipeline: per-frame detection counts and final track positions equal
/// those of the sequential implementation.
bool pipeline_ok(const orwl::apps::VideoResult& got,
                 const orwl::apps::VideoResult& want);

/// graph: ranks are bit-identical to the sequential PageRank and the
/// total rank mass is 1 within `mass_tol` (the grid has no dangling
/// vertex, so power iteration conserves mass).
bool graph_ok(std::span<const double> got, std::span<const double> want,
              double mass_tol = 1e-9);

/// What the remote client did and what the home process read back. Kinds
/// are indexed shm8, tcp8, shm64k, tcp64k.
struct RemoteTally {
  std::uint64_t rounds = 0;           ///< rounds the client completed
  std::uint64_t cycles = 0;           ///< write cycles the client completed
  std::array<std::uint64_t, 4> home_counter{};  ///< word 0 at the home
  std::uint64_t grants_sent = 0;      ///< Registry::Stats, both registries
  /// Checksums of the two 64 KiB payloads (kinds 2 and 3): what the
  /// client last wrote, and what the home holds.
  std::array<std::uint64_t, 2> client_checksum{};
  std::array<std::uint64_t, 2> home_checksum{};
};

/// remote: every location's counter equals the increments issued (one per
/// round), the home granted exactly the cycles the client completed, and
/// both 64 KiB payloads arrived intact.
bool remote_ok(const RemoteTally& t);

/// 64-bit checksum of a payload (FNV-1a over 8-byte words, then bytes).
std::uint64_t payload_checksum(std::span<const std::byte> bytes);

}  // namespace perfbench::checks
