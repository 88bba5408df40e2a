//===- e2ebench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the benchmark's calls into the library (parse, topology
/// build, engine runs, seals, checks, probes). Each span has a name, start,
/// end, parent and run id (0 = set-up, 1 = warm-up repetition, 2.. = timed
/// repetitions, then the probes). Spans live in memory and are written out
/// once, when the run ends. A disabled log records nothing, so untraced
/// runs pay one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_E2EBENCH_SPANS_H
#define CLIFFEDGE_E2EBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int32_t Parent; ///< Index of the enclosing span, -1 at top level.
    uint32_t Run;
  };

  SpanLog(bool Enabled, Clock::time_point Origin)
      : Enabled(Enabled), Origin(Origin) {}

  bool enabled() const { return Enabled; }

  /// Opens a span; returns its index, or -1 when disabled.
  int32_t open(const char *Name, uint32_t Run) {
    if (!Enabled)
      return -1;
    int32_t Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back(Span{Name, nowNs(), 0, Parent, Run});
    Stack.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Stack.back();
  }

  /// Closes the innermost span \p Index (a no-op for -1).
  void close(int32_t Index) {
    if (Index < 0)
      return;
    Spans[Index].EndNs = nowNs();
    Stack.pop_back();
  }

  /// Seconds spent in spans named \p Name during run \p Run.
  double seconds(const char *Name, uint32_t Run) const;

  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Origin)
            .count());
  }

  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, uint32_t Run)
      : Log(Log), Index(Log.open(Name, Run)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int32_t Index;
};

} // namespace e2ebench

#endif // CLIFFEDGE_E2EBENCH_SPANS_H
