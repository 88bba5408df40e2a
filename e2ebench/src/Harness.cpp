//===- e2ebench/src/Harness.cpp - Calls into the cliffedge library --------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "graph/IncrementalComponents.h"
#include "scenario/Parse.h"

#include <algorithm>

using namespace e2ebench;
using namespace cliffedge;

bool e2ebench::materialize(const std::string &Text, uint64_t JobSeed,
                           World &W, SpanLog &Log, uint32_t Run,
                           std::string &Error) {
  {
    ScopedSpan S(Log, "scenario.parse", Run);
    scenario::ParseResult P = scenario::parseSpec(Text);
    if (!P.Ok) {
      Error = P.diagText();
      return false;
    }
    W.Spec = std::move(P.S);
  }
  {
    ScopedSpan S(Log, "graph.topology_build", Run);
    Rng TopoRand(JobSeed);
    if (!scenario::buildTopology(W.Spec.Topology, TopoRand, W.Topo, Error))
      return false;
  }
  {
    ScopedSpan S(Log, "scenario.build_plans", Run);
    // Explicit `crash nodes` directives draw nothing from this stream.
    Rng PlanRand(JobSeed);
    W.Plans.assign(W.Spec.Epochs.size(), workload::CrashPlan());
    for (size_t E = 0; E < W.Spec.Epochs.size(); ++E)
      if (!scenario::buildCrashPlan(W.Spec.Epochs[E], W.Topo, PlanRand,
                                    W.Spec.MaxFaulty, W.Plans[E], Error))
        return false;
  }
  {
    ScopedSpan S(Log, "scenario.run_options", Run);
    W.JobSeed = JobSeed;
    W.LatSeed = SeedStream(JobSeed).next();
    W.LatRand = std::make_unique<Rng>(W.LatSeed);
    W.Options = scenario::makeRunnerOptions(W.Spec, *W.LatRand);
    W.Options.LinkSeed = JobSeed;
  }
  {
    ScopedSpan S(Log, "engine.construct", Run);
    W.Eng = engine::makeEngine(W.Spec.Backend);
  }
  return true;
}

void e2ebench::takeStats(const engine::EngineResult &R, UnitResult &U) {
  U.Quiesced = R.Quiesced;
  U.Faulty = R.Faulty.size();
  U.Events = R.Events;
  U.Sent = R.Stats.MessagesSent;
  U.Delivered = R.Stats.MessagesDelivered;
  U.DroppedAtCrashed = R.Stats.MessagesDroppedAtCrashed;
  U.Bytes = R.Stats.BytesSent;
  U.Retransmits = R.Stats.Channel.Retransmits;
  U.DupSuppressed = R.Stats.Channel.DupSuppressed;
  U.AckBytes = R.Stats.Channel.AckBytes;
}

std::vector<Decision> e2ebench::toDecisions(const UnitResult &U) {
  std::vector<Decision> Out;
  Out.reserve(U.Decisions.size());
  for (const trace::DecisionRecord &D : U.Decisions) {
    Decision E;
    E.Node = D.Node;
    E.View.assign(D.View.begin(), D.View.end());
    std::sort(E.View.begin(), E.View.end());
    E.Value = D.Chosen;
    E.When = D.When;
    Out.push_back(std::move(E));
  }
  return Out;
}

uint64_t e2ebench::replayComponents(const graph::Graph &G, const Plan &P) {
  std::vector<std::pair<uint64_t, uint32_t>> ByTime;
  for (const auto &C : P.Crashes)
    ByTime.emplace_back(C.second, C.first);
  std::sort(ByTime.begin(), ByTime.end());
  graph::IncrementalComponents IC(G);
  size_t BorderSum = 0;
  for (const auto &C : ByTime) {
    IC.addCrashed(C.second);
    BorderSum += IC.componentBorderSize(C.second);
  }
  // Every component of a torus region has a non-empty border; the sum
  // keeps the queries from being optimized away.
  return BorderSum ? IC.numComponents() : 0;
}

uint64_t e2ebench::digest(const UnitResult &U) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ULL;
  };
  for (const trace::DecisionRecord &D : U.Decisions) {
    Mix(D.Node);
    Mix(D.Chosen);
    Mix(D.When);
    for (NodeId M : D.View)
      Mix(M);
  }
  for (uint64_t V : {uint64_t(U.VerdictOk), uint64_t(U.Quiesced), U.Faulty,
                     U.Events, U.Sent, U.Delivered, U.DroppedAtCrashed,
                     U.Bytes, U.Retransmits, U.DupSuppressed, U.AckBytes})
    Mix(V);
  return H;
}
