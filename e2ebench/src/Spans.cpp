//===- e2ebench/src/Spans.cpp - In-memory span recorder -------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <cstring>

using namespace e2ebench;

double SpanLog::seconds(const char *Name, uint32_t Run) const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Run == Run && std::strcmp(S.Name, Name) == 0)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) * 1e-9;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"run\":%u}\n",
                 I, S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs), S.Parent, S.Run);
  }
  return std::fclose(F) == 0;
}
