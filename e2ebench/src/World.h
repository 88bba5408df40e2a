//===- e2ebench/src/World.h - Benchmark-side worlds and crash plans -------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own model of its inputs, kept independent of the
/// library: an arithmetic torus (neighbours computed, never stored), its
/// own seeded generator, and the crash plans the workloads feed the
/// program. The program only ever receives these plans as explicit
/// `crash nodes ... at T` directives in a generated scenario text; the
/// output check (Verify.h) reads ground truth from here, never from the
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_E2EBENCH_WORLD_H
#define CLIFFEDGE_E2EBENCH_WORLD_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Crash time of a node the plan never crashes.
constexpr uint64_t kNever = ~uint64_t(0);

/// SplitMix64, the benchmark's only source of randomness.
class SeedStream {
public:
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, Bound); Bound > 0. Modulo bias is below 2^-40 for the
  /// bounds used here (at most 10^6).
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// A W x H torus, node id = y * W + x, every node of degree 4.
struct Torus {
  uint32_t W = 0;
  uint32_t H = 0;

  uint32_t size() const { return W * H; }
  /// The four neighbours of \p N: right, left, down, up.
  void neighbours(uint32_t N, uint32_t Out[4]) const;
};

/// One outage: a connected region that crashes at one instant.
struct Outage {
  std::vector<uint32_t> Nodes;
  uint64_t At = 0;
};

/// One epoch's (or one job's) crash plan.
struct Plan {
  std::vector<Outage> Outages;
  /// Distinct crashed nodes with their earliest outage time, sorted by
  /// node id (a node in two overlapping outages crashes once, first).
  std::vector<std::pair<uint32_t, uint64_t>> Crashes;

  /// Crash time of \p Node, or kNever.
  uint64_t crashTime(uint32_t Node) const;
  /// Derives Crashes from Outages.
  void finish();
};

/// The first \p Size nodes of a breadth-first walk from \p Epicentre
/// (Size must not exceed the torus).
std::vector<uint32_t> growRegion(const Torus &T, uint32_t Epicentre,
                                 uint32_t Size);

/// Churn epoch: K ~ Poisson(\p Mean) outages of \p Size nodes each, at
/// random epicentres, onsets uniform in [\p From, \p To].
Plan churnEpoch(const Torus &T, double Mean, uint32_t Size, uint64_t From,
                uint64_t To, SeedStream &Rand);

/// Quake storm: exactly \p Count outages of \p Size nodes each, at random
/// epicentres, onsets uniform in [\p From, \p To]; every quake stays at
/// least three hops from the earlier ones. The torus must have room.
Plan quakeStorm(const Torus &T, uint32_t Count, uint32_t Size, uint64_t From,
                uint64_t To, SeedStream &Rand);

/// Appends `crash nodes ID,... at T` lines for every outage of \p P.
void appendCrashDirectives(const Plan &P, std::string &Text);

} // namespace e2ebench

#endif // CLIFFEDGE_E2EBENCH_WORLD_H
