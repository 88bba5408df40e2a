//===- e2ebench/src/Verify.h - Independent output check --------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-derives, from the benchmark's own plan and its own arithmetic torus,
/// the convergent-detection properties a user relies on (§2.3):
///
///  * CD1 — at most one decision per node;
///  * CD2 — every decided view is connected, every member crashed (in the
///    benchmark's plan) no later than the decision, and the decider is on
///    the view's border;
///  * CD5 — deciders on a view's border decided the same view and value;
///  * CD7 — every cluster of faulty domains (border-intersection closure)
///    has a deciding border node; border nodes of the final faulty set are
///    correct by construction.
///
/// It then compares totals reached by independent paths: the plan's crash
/// count against the program's faulty-set size, its own BFS domain count
/// against the library's IncrementalComponents replay, and, on reliable
/// links, message conservation (sent = delivered + dropped at crashed).
/// Nothing here calls into the library.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_E2EBENCH_VERIFY_H
#define CLIFFEDGE_E2EBENCH_VERIFY_H

#include "World.h"

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// One decision as the check sees it; the view is sorted.
struct Decision {
  uint32_t Node = 0;
  std::vector<uint32_t> View;
  uint64_t Value = 0;
  uint64_t When = 0;
};

/// What the program reported about one epoch or job.
struct ProgramOutput {
  std::vector<Decision> Decisions;
  bool VerdictOk = false;       ///< The program's own CD1..CD7 verdict.
  uint64_t FaultySize = 0;      ///< Size of the program's faulty set.
  uint64_t ReplayComponents = 0; ///< IncrementalComponents replay count.
  bool ReliableLinks = true;    ///< Conservation applies.
  uint64_t Sent = 0, Delivered = 0, DroppedAtCrashed = 0;
};

/// Findings, each prefixed by the property it breaks ("CD2: ...").
struct Findings {
  std::vector<std::string> Items;
  bool ok() const { return Items.empty(); }
  /// True when some finding starts with \p Tag.
  bool has(const std::string &Tag) const;
};

/// Checks \p Out against \p P on \p T.
Findings verify(const Torus &T, const Plan &P, const ProgramOutput &Out);

/// Connected components of the plan's crashed nodes (own BFS), each
/// sorted.
std::vector<std::vector<uint32_t>> faultyDomains(const Torus &T,
                                                 const Plan &P);

/// Nodes outside sorted \p S adjacent to some member of it, sorted.
std::vector<uint32_t> borderOf(const Torus &T, const std::vector<uint32_t> &S);

/// Decide latency of \p D: ticks from the crash of the last member of its
/// view to the decision.
uint64_t decideLatency(const Plan &P, const Decision &D);

} // namespace e2ebench

#endif // CLIFFEDGE_E2EBENCH_VERIFY_H
