//===- e2ebench/src/World.cpp - Benchmark-side worlds and crash plans -----===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "World.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

using namespace e2ebench;

uint64_t SeedStream::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Torus::neighbours(uint32_t N, uint32_t Out[4]) const {
  uint32_t X = N % W, Y = N / W;
  Out[0] = Y * W + (X + 1) % W;
  Out[1] = Y * W + (X + W - 1) % W;
  Out[2] = ((Y + 1) % H) * W + X;
  Out[3] = ((Y + H - 1) % H) * W + X;
}

uint64_t Plan::crashTime(uint32_t Node) const {
  auto It = std::lower_bound(
      Crashes.begin(), Crashes.end(), Node,
      [](const std::pair<uint32_t, uint64_t> &C, uint32_t N) {
        return C.first < N;
      });
  return It != Crashes.end() && It->first == Node ? It->second : kNever;
}

void Plan::finish() {
  Crashes.clear();
  for (const Outage &O : Outages)
    for (uint32_t N : O.Nodes)
      Crashes.emplace_back(N, O.At);
  std::sort(Crashes.begin(), Crashes.end());
  // Sorted by (node, time): the first entry of each node is its earliest.
  Crashes.erase(std::unique(Crashes.begin(), Crashes.end(),
                            [](const std::pair<uint32_t, uint64_t> &A,
                               const std::pair<uint32_t, uint64_t> &B) {
                              return A.first == B.first;
                            }),
                Crashes.end());
}

std::vector<uint32_t> e2ebench::growRegion(const Torus &T, uint32_t Epicentre,
                                           uint32_t Size) {
  // Compact outages, as the curated churn and quake scenarios grow them:
  // the first Size nodes of a breadth-first walk from the epicentre.
  std::vector<uint32_t> Order{Epicentre};
  for (size_t Head = 0; Head < Order.size() && Order.size() < Size; ++Head) {
    uint32_t Nb[4];
    T.neighbours(Order[Head], Nb);
    for (uint32_t M : Nb)
      if (Order.size() < Size &&
          std::find(Order.begin(), Order.end(), M) == Order.end())
        Order.push_back(M);
  }
  return Order;
}

static Outage randomOutage(const Torus &T, uint32_t Size, uint64_t From,
                           uint64_t To, SeedStream &Rand) {
  Outage O;
  uint32_t Epicentre = static_cast<uint32_t>(Rand.below(T.size()));
  O.At = From + Rand.below(To - From + 1);
  O.Nodes = growRegion(T, Epicentre, Size);
  return O;
}

Plan e2ebench::churnEpoch(const Torus &T, double Mean, uint32_t Size,
                          uint64_t From, uint64_t To, SeedStream &Rand) {
  // Knuth's method: count uniform draws until their product falls below
  // e^-Mean (fine for the small means used here).
  uint32_t K = 0;
  double L = std::exp(-Mean), P = Rand.unit();
  while (P > L) {
    ++K;
    P *= Rand.unit();
  }
  Plan Out;
  for (uint32_t I = 0; I < K; ++I)
    Out.Outages.push_back(randomOutage(T, Size, From, To, Rand));
  Out.finish();
  return Out;
}

Plan e2ebench::quakeStorm(const Torus &T, uint32_t Count, uint32_t Size,
                          uint64_t From, uint64_t To, SeedStream &Rand) {
  // A quake that lands within two hops of an earlier one is redrawn, so
  // every quake is its own faulty domain with a border of its own.
  Plan Out;
  std::unordered_set<uint32_t> NearEarlier;
  while (Out.Outages.size() < Count) {
    Outage O = randomOutage(T, Size, From, To, Rand);
    bool Clear = true;
    for (uint32_t N : O.Nodes)
      Clear = Clear && !NearEarlier.count(N);
    if (!Clear)
      continue;
    for (uint32_t N : O.Nodes) {
      uint32_t Nb[4];
      T.neighbours(N, Nb);
      NearEarlier.insert(N);
      for (uint32_t M : Nb) {
        uint32_t Nb2[4];
        T.neighbours(M, Nb2);
        NearEarlier.insert(M);
        NearEarlier.insert(Nb2, Nb2 + 4);
      }
    }
    Out.Outages.push_back(std::move(O));
  }
  Out.finish();
  return Out;
}

void e2ebench::appendCrashDirectives(const Plan &P, std::string &Text) {
  for (const Outage &O : P.Outages) {
    Text += "crash nodes ";
    for (size_t I = 0; I < O.Nodes.size(); ++I) {
      if (I)
        Text += ',';
      Text += std::to_string(O.Nodes[I]);
    }
    Text += " at " + std::to_string(O.At) + "\n";
  }
}
