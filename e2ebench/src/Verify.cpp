//===- e2ebench/src/Verify.cpp - Independent output check -----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Verify.h"

#include <algorithm>
#include <numeric>

using namespace e2ebench;

bool Findings::has(const std::string &Tag) const {
  for (const std::string &I : Items)
    if (I.compare(0, Tag.size(), Tag) == 0)
      return true;
  return false;
}

static bool sortedContains(const std::vector<uint32_t> &S, uint32_t N) {
  return std::binary_search(S.begin(), S.end(), N);
}

std::vector<uint32_t> e2ebench::borderOf(const Torus &T,
                                         const std::vector<uint32_t> &S) {
  std::vector<uint32_t> B;
  for (uint32_t M : S) {
    uint32_t Nb[4];
    T.neighbours(M, Nb);
    for (uint32_t Q : Nb)
      if (!sortedContains(S, Q))
        B.push_back(Q);
  }
  std::sort(B.begin(), B.end());
  B.erase(std::unique(B.begin(), B.end()), B.end());
  return B;
}

/// True when sorted \p S induces a connected subgraph of \p T.
static bool connected(const Torus &T, const std::vector<uint32_t> &S) {
  if (S.empty())
    return false;
  std::vector<bool> Seen(S.size(), false);
  std::vector<uint32_t> Queue{S[0]};
  Seen[0] = true;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t Nb[4];
    T.neighbours(Queue[Head], Nb);
    for (uint32_t Q : Nb) {
      auto It = std::lower_bound(S.begin(), S.end(), Q);
      if (It == S.end() || *It != Q || Seen[It - S.begin()])
        continue;
      Seen[It - S.begin()] = true;
      Queue.push_back(Q);
    }
  }
  return Queue.size() == S.size();
}

static std::string str(const std::vector<uint32_t> &S) {
  std::string Out = "{";
  for (size_t I = 0; I < S.size(); ++I)
    Out += (I ? "," : "") + std::to_string(S[I]);
  return Out + "}";
}

std::vector<std::vector<uint32_t>> e2ebench::faultyDomains(const Torus &T,
                                                           const Plan &P) {
  const auto &C = P.Crashes;
  auto IndexOf = [&C](uint32_t N) -> size_t {
    auto It = std::lower_bound(
        C.begin(), C.end(), N,
        [](const std::pair<uint32_t, uint64_t> &E, uint32_t V) {
          return E.first < V;
        });
    return It != C.end() && It->first == N ? size_t(It - C.begin())
                                           : C.size();
  };
  std::vector<bool> Seen(C.size(), false);
  std::vector<std::vector<uint32_t>> Domains;
  for (size_t Start = 0; Start < C.size(); ++Start) {
    if (Seen[Start])
      continue;
    Seen[Start] = true;
    std::vector<uint32_t> D{C[Start].first};
    for (size_t Head = 0; Head < D.size(); ++Head) {
      uint32_t Nb[4];
      T.neighbours(D[Head], Nb);
      for (uint32_t Q : Nb) {
        size_t I = IndexOf(Q);
        if (I == C.size() || Seen[I])
          continue;
        Seen[I] = true;
        D.push_back(Q);
      }
    }
    std::sort(D.begin(), D.end());
    Domains.push_back(std::move(D));
  }
  return Domains;
}

uint64_t e2ebench::decideLatency(const Plan &P, const Decision &D) {
  uint64_t Last = 0;
  for (uint32_t M : D.View)
    Last = std::max(Last, P.crashTime(M));
  return D.When >= Last ? D.When - Last : 0;
}

static size_t findRoot(std::vector<size_t> &Parent, size_t I) {
  while (Parent[I] != I)
    I = Parent[I] = Parent[Parent[I]];
  return I;
}

Findings e2ebench::verify(const Torus &T, const Plan &P,
                          const ProgramOutput &Out) {
  Findings F;
  auto Fail = [&F](std::string Why) { F.Items.push_back(std::move(Why)); };

  if (!Out.VerdictOk)
    Fail("VERDICT: the program's own CD1..CD7 check failed");
  if (Out.FaultySize != P.Crashes.size())
    Fail("TOTAL: plan crashes " + std::to_string(P.Crashes.size()) +
         " nodes, program's faulty set has " +
         std::to_string(Out.FaultySize));
  if (Out.ReliableLinks &&
      Out.Sent != Out.Delivered + Out.DroppedAtCrashed)
    Fail("CONSERVATION: sent " + std::to_string(Out.Sent) +
         " != delivered " + std::to_string(Out.Delivered) +
         " + dropped at crashed " + std::to_string(Out.DroppedAtCrashed));

  // CD1, and the decider index used by CD5 and CD7.
  std::vector<std::pair<uint32_t, size_t>> ByNode;
  for (size_t I = 0; I < Out.Decisions.size(); ++I)
    ByNode.emplace_back(Out.Decisions[I].Node, I);
  std::sort(ByNode.begin(), ByNode.end());
  for (size_t I = 1; I < ByNode.size(); ++I)
    if (ByNode[I].first == ByNode[I - 1].first)
      Fail("CD1: node " + std::to_string(ByNode[I].first) +
           " decided more than once");
  auto DecisionOf = [&ByNode](uint32_t N) -> const size_t * {
    auto It = std::lower_bound(
        ByNode.begin(), ByNode.end(), N,
        [](const std::pair<uint32_t, size_t> &E, uint32_t V) {
          return E.first < V;
        });
    return It != ByNode.end() && It->first == N ? &It->second : nullptr;
  };

  for (const Decision &D : Out.Decisions) {
    if (!connected(T, D.View)) {
      Fail("CD2: node " + std::to_string(D.Node) +
           " decided non-connected view " + str(D.View));
      continue;
    }
    for (uint32_t M : D.View) {
      uint64_t At = P.crashTime(M);
      if (At == kNever || At > D.When)
        Fail("CD2: node " + std::to_string(D.Node) + " decided view " +
             str(D.View) + " containing node " + std::to_string(M) +
             " not crashed by t=" + std::to_string(D.When));
    }
    std::vector<uint32_t> Border = borderOf(T, D.View);
    if (!sortedContains(Border, D.Node))
      Fail("CD2: decider " + std::to_string(D.Node) +
           " is not on the border of " + str(D.View));
    // CD5: every border node that decided, decided (View, Value).
    for (uint32_t Q : Border) {
      const size_t *J = DecisionOf(Q);
      if (!J)
        continue;
      const Decision &E = Out.Decisions[*J];
      if (E.View != D.View || E.Value != D.Value)
        Fail("CD5: node " + std::to_string(D.Node) + " decided (" +
             str(D.View) + ", " + std::to_string(D.Value) +
             ") but border node " + std::to_string(Q) + " decided (" +
             str(E.View) + ", " + std::to_string(E.Value) + ")");
    }
  }

  // CD7 over clusters of domains whose borders intersect.
  std::vector<std::vector<uint32_t>> Domains = faultyDomains(T, P);
  if (Out.ReplayComponents != Domains.size())
    Fail("TOTAL: own BFS finds " + std::to_string(Domains.size()) +
         " faulty domains, the IncrementalComponents replay " +
         std::to_string(Out.ReplayComponents));
  std::vector<std::vector<uint32_t>> Borders;
  std::vector<std::pair<uint32_t, size_t>> BorderOwner;
  for (size_t I = 0; I < Domains.size(); ++I) {
    Borders.push_back(borderOf(T, Domains[I]));
    for (uint32_t Q : Borders.back())
      BorderOwner.emplace_back(Q, I);
  }
  std::vector<size_t> Parent(Domains.size());
  std::iota(Parent.begin(), Parent.end(), size_t(0));
  std::sort(BorderOwner.begin(), BorderOwner.end());
  for (size_t I = 1; I < BorderOwner.size(); ++I)
    if (BorderOwner[I].first == BorderOwner[I - 1].first)
      Parent[findRoot(Parent, BorderOwner[I].second)] =
          findRoot(Parent, BorderOwner[I - 1].second);
  std::vector<bool> Satisfied(Domains.size(), false);
  for (size_t I = 0; I < Domains.size(); ++I)
    for (uint32_t Q : Borders[I])
      if (DecisionOf(Q) && P.crashTime(Q) == kNever)
        Satisfied[findRoot(Parent, I)] = true;
  for (size_t I = 0; I < Domains.size(); ++I)
    if (findRoot(Parent, I) == I && !Satisfied[I])
      Fail("CD7: no correct border node of the cluster containing domain " +
           str(Domains[I]) + " decided");
  return F;
}
