//===- e2ebench/src/SelfTest.cpp - The output check must catch faults -----===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs one small, fixed epoch through the program, confirms the genuine
// output passes the independent check, then corrupts it one way at a time
// and confirms the check rejects each corruption for the right property.
// A check that accepts corrupted output would make every benchmark run's
// `correct` meaningless, so every run ends with this test.
//
//===----------------------------------------------------------------------===//

#include "SelfTest.h"

#include "Harness.h"

#include "trace/Checker.h"

#include <algorithm>
#include <cstdio>
#include <functional>

using namespace e2ebench;
using namespace cliffedge;

namespace {

struct Case {
  const char *What;
  const char *Tag; ///< The property the check must name.
  std::function<bool(ProgramOutput &)> Corrupt;
};

bool decided(const ProgramOutput &O, uint32_t N) {
  for (const Decision &D : O.Decisions)
    if (D.Node == N)
      return true;
  return false;
}

void addToView(Decision &D, uint32_t N) {
  D.View.push_back(N);
  std::sort(D.View.begin(), D.View.end());
}

} // namespace

bool e2ebench::selfTest(bool Verbose) {
  // Two separate outages on a 12x12 torus, fixed and seed-independent.
  const Torus T{12, 12};
  Plan P;
  P.Outages.push_back(Outage{growRegion(T, 2 * 12 + 2, 5), 100});
  P.Outages.push_back(Outage{growRegion(T, 8 * 12 + 8, 5), 130});
  P.finish();
  std::string Text = "scenario e2ebench-selftest\ntopology torus:12x12\n"
                     "latency uniform 1 20\ndetect 5\ncheck on\n";
  appendCrashDirectives(P, Text);

  SpanLog Off(false, Clock::now());
  World W;
  std::string Error;
  if (!materialize(Text, 1, W, Off, 0, Error)) {
    std::fprintf(stderr, "selftest: %s\n", Error.c_str());
    return false;
  }
  engine::EngineJob Job;
  Job.G = &W.Topo.G;
  Job.Plan = &W.Plans[0];
  Job.Options = W.Options;
  Job.Seed = W.JobSeed;
  engine::EngineResult R = W.Eng->run(Job);
  UnitResult U;
  U.VerdictOk = trace::checkAll(engine::toCheckInput(R, W.Topo.G)).Ok;
  takeStats(R, U);
  U.Decisions = std::move(R.Decisions);

  ProgramOutput Genuine;
  Genuine.Decisions = toDecisions(U);
  Genuine.VerdictOk = U.VerdictOk;
  Genuine.FaultySize = U.Faulty;
  Genuine.ReplayComponents = replayComponents(W.Topo.G, P);
  Genuine.Sent = U.Sent;
  Genuine.Delivered = U.Delivered;
  Genuine.DroppedAtCrashed = U.DroppedAtCrashed;

  bool Ok = true;
  Findings G = verify(T, P, Genuine);
  if (!G.ok() || Genuine.Decisions.empty()) {
    std::fprintf(stderr, "selftest: genuine output rejected:\n");
    for (const std::string &F : G.Items)
      std::fprintf(stderr, "  %s\n", F.c_str());
    return false;
  }
  if (Verbose)
    std::printf("genuine output (%zu decisions): accepted\n",
                Genuine.Decisions.size());

  std::vector<std::vector<uint32_t>> Domains = faultyDomains(T, P);
  auto InDomain = [&Domains](size_t I, uint32_t N) {
    return std::binary_search(Domains[I].begin(), Domains[I].end(), N);
  };
  const std::vector<Case> Cases = {
      {"a live node in a view", "CD2",
       [&](ProgramOutput &O) {
         Decision &D = O.Decisions[0];
         for (uint32_t B : borderOf(T, D.View))
           if (B != D.Node && P.crashTime(B) == kNever) {
             addToView(D, B);
             return true;
           }
         return false;
       }},
      {"a disconnected view", "CD2",
       [&](ProgramOutput &O) {
         Decision &D = O.Decisions[0];
         for (size_t I = 0; I < Domains.size(); ++I)
           if (!InDomain(I, D.View[0])) {
             addToView(D, Domains[I][0]);
             return true;
           }
         return false;
       }},
      {"an off-border decider", "CD2",
       [&](ProgramOutput &O) {
         Decision &D = O.Decisions[0];
         std::vector<uint32_t> B = borderOf(T, D.View);
         for (uint32_t N = 0; N < T.size(); ++N)
           if (P.crashTime(N) == kNever && !decided(O, N) &&
               !std::binary_search(B.begin(), B.end(), N)) {
             D.Node = N;
             return true;
           }
         return false;
       }},
      {"two border deciders that disagree", "CD5",
       [&](ProgramOutput &O) {
         O.Decisions[0].Value += 1;
         return true;
       }},
      {"a cluster with no correct decider", "CD7",
       [&](ProgramOutput &O) {
         std::vector<uint32_t> B = borderOf(T, Domains[0]);
         auto Before = O.Decisions.size();
         O.Decisions.erase(
             std::remove_if(O.Decisions.begin(), O.Decisions.end(),
                            [&B](const Decision &D) {
                              return std::binary_search(B.begin(), B.end(),
                                                        D.Node);
                            }),
             O.Decisions.end());
         return O.Decisions.size() < Before;
       }},
      {"a node deciding twice", "CD1",
       [&](ProgramOutput &O) {
         O.Decisions.push_back(O.Decisions[0]);
         return true;
       }},
      {"a faulty set that disagrees with the plan", "TOTAL",
       [&](ProgramOutput &O) {
         O.FaultySize += 1;
         return true;
       }},
      {"a component count that disagrees with the BFS", "TOTAL",
       [&](ProgramOutput &O) {
         O.ReplayComponents += 1;
         return true;
       }},
      {"a lost message on a reliable link", "CONSERVATION",
       [&](ProgramOutput &O) {
         O.Delivered -= 1;
         return true;
       }},
      {"a failed program verdict", "VERDICT",
       [&](ProgramOutput &O) {
         O.VerdictOk = false;
         return true;
       }},
  };
  for (const Case &C : Cases) {
    ProgramOutput O = Genuine;
    bool Applied = C.Corrupt(O);
    bool Caught = Applied && verify(T, P, O).has(C.Tag);
    if (Verbose || !Caught)
      std::fprintf(Verbose ? stdout : stderr, "%s (%s): %s\n", C.What, C.Tag,
                   !Applied ? "could not be built"
                            : Caught ? "rejected" : "ACCEPTED");
    Ok = Ok && Caught;
  }
  return Ok;
}
