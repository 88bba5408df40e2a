//===- e2ebench/src/Harness.h - Calls into the cliffedge library -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The only place the benchmark touches the library: materializing a
/// generated scenario text into a world (parse, topology build, crash
/// plans, run options, engine), running one epoch or job, and turning the
/// program's products into the plain data Verify.h checks.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_E2EBENCH_HARNESS_H
#define CLIFFEDGE_E2EBENCH_HARNESS_H

#include "Spans.h"
#include "Verify.h"
#include "World.h"

#include "engine/Engine.h"
#include "scenario/Spec.h"
#include "support/Random.h"
#include "trace/Runner.h"

#include <memory>
#include <string>
#include <vector>

namespace e2ebench {

/// One materialized world: everything set-up builds before a run.
struct World {
  cliffedge::scenario::Spec Spec;
  cliffedge::scenario::TopologyInfo Topo;
  /// The program's crash plan per epoch, built from the spec's directives.
  std::vector<cliffedge::workload::CrashPlan> Plans;
  /// Latency draws; the run options capture it by reference, so it is
  /// re-seeded in place before every repetition.
  std::unique_ptr<cliffedge::Rng> LatRand;
  uint64_t LatSeed = 0;
  uint64_t JobSeed = 0;
  cliffedge::trace::RunnerOptions Options;
  std::unique_ptr<cliffedge::engine::Engine> Eng;
};

/// Parses \p Text and builds its world; spans go to \p Log under \p Run.
/// Returns false with \p Error set when the program rejects the text.
bool materialize(const std::string &Text, uint64_t JobSeed, World &W,
                 SpanLog &Log, uint32_t Run, std::string &Error);

/// What one epoch or job produced, kept for checking after the timer.
struct UnitResult {
  std::vector<cliffedge::trace::DecisionRecord> Decisions;
  bool VerdictOk = false;
  bool Quiesced = false;
  uint64_t Faulty = 0;
  uint64_t Events = 0;
  uint64_t Sent = 0, Delivered = 0, DroppedAtCrashed = 0, Bytes = 0;
  uint64_t Retransmits = 0, DupSuppressed = 0, AckBytes = 0;
};

/// Copies the engine's counters (not its decisions) into \p U.
void takeStats(const cliffedge::engine::EngineResult &R, UnitResult &U);

/// The decisions of \p U as Verify.h sees them (views sorted).
std::vector<Decision> toDecisions(const UnitResult &U);

/// Replays \p P's crashes in time order through the library's
/// graph::IncrementalComponents (addCrashed + componentBorderSize) and
/// returns its final component count.
uint64_t replayComponents(const cliffedge::graph::Graph &G, const Plan &P);

/// Order-sensitive digest of a unit's decisions and counters; identical
/// repetitions must produce identical digests.
uint64_t digest(const UnitResult &U);

} // namespace e2ebench

#endif // CLIFFEDGE_E2EBENCH_HARNESS_H
