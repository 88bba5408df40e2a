//===- e2ebench/src/main.cpp - End-to-end benchmark driver ----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// cliffedge-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
// cliffedge-e2ebench --selftest
//
// One process, one thread, one workload. The seed generates every input
// (worlds and crash plans); the program receives them as a scenario text.
// Set-up time is the fastest of cold set-ups sampled through the run, each
// in a fresh process of this program. After the run's own set-up and one
// untimed warm-up repetition, identical repetitions run until S seconds
// have passed (at least three). Throughput counts each epoch or job at its
// fastest repetition, and traced layer times come from the fastest
// repetition, because interference on a shared host only ever adds time.
// Every epoch or job of every repetition, and of the memory pass, is
// checked against the benchmark's own plan (Verify.h) and counts as one
// attempted operation. The last line of standard output is the result
// object; diagnostics go to standard error.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "SelfTest.h"
#include "Spans.h"
#include "Verify.h"
#include "World.h"

#include "engine/Engine.h"
#include "trace/Checker.h"
#include "trace/StreamingChecker.h"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace e2ebench;
using namespace cliffedge;

namespace {

/// Taken during static initialization: the origin of the span log and of
/// a set-up sample's time.
const Clock::time_point ProcessStart = Clock::now();

constexpr size_t kMinTimedReps = 3;
/// Interval between cold set-up samples.
constexpr double kSetupSampleSeconds = 1.0;
constexpr int kProbeReps = 5;
/// Units whose peak RSS the memory pass samples (the first ones).
constexpr uint32_t kMemoryUnits = 16;

enum class Shape { Churn, Quake };

struct Workload {
  const char *Name;
  Shape Kind;
  uint32_t Side;       ///< Torus side length.
  const char *Backend; ///< Scenario `backend` value.
  const char *Link;    ///< Scenario `link` value; nullptr = reliable.
  const char *Latency; ///< Scenario `latency` value.
  /// Epochs per repetition (churn) or jobs per repetition (quake), each
  /// with its own plan.
  uint32_t Units;
  uint64_t Salt; ///< Separates the workloads' input streams.
};

// Churn: Poisson(30) outages of 10 nodes per epoch, onsets in [100, 300]
// (scenarios/churn_service.scn). On the 60x60 torus the outages overlap
// and merge into agreement waves whose cost is heavy-tailed, so a run
// needs 64 epochs before its figures repeat across seeds. The lossy
// variant spreads the same churn over a 200x200 torus: with the merges
// rare, its ARQ-dominated latency tail repeats from 48 epochs, where the
// 60x60 world varied by a quarter from seed to seed. Quake: 120 outages
// of 8 nodes, onsets in [100, 400] (scenarios/million_torus_quake.scn),
// four jobs per repetition, each materializing its own world.
const Workload kWorkloads[] = {
    {"churn_des", Shape::Churn, 60, "des", nullptr, "uniform 1 20", 64,
     0x6368726e01ULL},
    {"churn_lossy_sharded", Shape::Churn, 200, "sharded",
     "drop:0.1 dup:0.02 reorder:10", "uniform 1 20", 48, 0x6368726e02ULL},
    {"million_quake_des", Shape::Quake, 1000, "des", nullptr, "fixed 10", 4,
     0x7175616b03ULL},
};

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<uint64_t> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return static_cast<double>(V[std::max<size_t>(Rank, 1) - 1]);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string specHeader(const Workload &W, uint64_t JobSeed) {
  std::string S = std::string("scenario e2ebench-") + W.Name + "\n";
  S += "topology torus:" + std::to_string(W.Side) + "x" +
       std::to_string(W.Side) + "\n";
  S += "seeds " + std::to_string(JobSeed) + "\n";
  S += std::string("latency ") + W.Latency + "\n";
  S += "detect 5\nranking sizeborderlex\ncheck on\n";
  if (W.Kind == Shape::Churn)
    S += "streaming on\n";
  S += std::string("backend ") + W.Backend + "\n";
  if (W.Link)
    S += std::string("link ") + W.Link + "\n";
  return S;
}

/// Set-up time: the fastest of the cold set-ups sampled through a run. Each
/// sample is a fresh process of this program (`--setup-sample`) that
/// generates the inputs and sets up once, timed from its own start. A
/// second set-up inside one process would be warm and would hide work
/// moved into first touch. Samples are taken between units, one a second,
/// so, as for throughput, the fastest comes from the whole run and one slow
/// phase of the host does not set it: on a 4-core VM, back-to-back
/// samples of one churn set-up took either about 7 ms or about 10 ms.
class ColdSetups {
public:
  /// \p Self is this program's path; a disabled sampler takes no samples.
  ColdSetups(const char *Self, const Workload &W, uint64_t Seed, bool Enabled)
      : Self(Self), Name(W.Name), SeedText(std::to_string(Seed)),
        Enabled(Enabled) {}

  /// Takes a sample when none was taken in the last kSetupSampleSeconds.
  bool sampleIfDue(std::string &Error) {
    if (!Enabled || (Taken && secondsSince(Last) < kSetupSampleSeconds))
      return true;
    Last = Clock::now();
    return sample(Error);
  }
  double fastest() const { return Best; }

private:
  bool sample(std::string &Error);

  std::string Self, Name, SeedText;
  bool Enabled;
  Clock::time_point Last;
  double Best = 0;
  uint32_t Taken = 0;
};

bool ColdSetups::sample(std::string &Error) {
  int Fd[2];
  if (pipe(Fd) != 0) {
    Error = "pipe failed";
    return false;
  }
  // posix_spawn rather than fork: fork would write-protect this process's
  // pages, and the next timed unit would pay a fault for each page it
  // writes.
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Fd[0]);
  posix_spawn_file_actions_addclose(&Actions, Fd[1]);
  char Flag[] = "--setup-sample", WorkloadFlag[] = "--workload",
       SeedFlag[] = "--seed";
  char *Args[] = {&Self[0], Flag,         WorkloadFlag, &Name[0],
                  SeedFlag, &SeedText[0], nullptr};
  std::fflush(nullptr);
  pid_t Pid = 0;
  int Spawned = posix_spawn(&Pid, Self.c_str(), &Actions, nullptr, Args,
                            environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Spawned != 0) {
    close(Fd[0]);
    close(Fd[1]);
    Error = "cannot start " + Self;
    return false;
  }
  close(Fd[1]);
  std::string Out;
  char Buf[64];
  for (ssize_t N; (N = read(Fd[0], Buf, sizeof Buf)) != 0;)
    if (N > 0)
      Out.append(Buf, static_cast<size_t>(N));
    else if (errno != EINTR)
      break;
  close(Fd[0]);
  int Status = 0;
  char *End = nullptr;
  double Secs = std::strtod(Out.c_str(), &End);
  if (waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || End == Out.c_str() || !(Secs > 0)) {
    Error = "cold set-up sample failed";
    return false;
  }
  Best = Taken++ ? std::min(Best, Secs) : Secs;
  return true;
}

/// Figures of one epoch or job, taken from the warm-up repetition; every
/// later repetition must reproduce them exactly (the digest check).
struct UnitFigures {
  uint64_t Crashes = 0, Events = 0, Sent = 0, Delivered = 0, Dropped = 0,
           Bytes = 0, Retransmits = 0, DupSuppressed = 0, AckBytes = 0,
           Decisions = 0, Views = 0;
  /// Nearest-rank decide-latency percentiles over the unit's decisions.
  double LatencyP50 = 0, LatencyP99 = 0;
};

/// Everything one run measures and checks.
class Bench {
public:
  Bench(const Workload &W, uint64_t Seed, bool Traced)
      : W(W), T{W.Side, W.Side}, Log(Traced, ProcessStart) {
    SeedStream Rand(Seed ^ W.Salt);
    for (uint32_t U = 0; U < W.Units; ++U) {
      if (W.Kind == Shape::Churn)
        Plans.push_back(churnEpoch(T, 30.0, 10, 100, 300, Rand));
      else
        Plans.push_back(quakeStorm(T, 120, 8, 100, 400, Rand));
      JobSeeds.push_back(Rand.next() >> 1);
    }
    if (W.Kind == Shape::Churn) {
      // One world, one spec: the epochs are `epoch`-separated blocks.
      std::string Text = specHeader(W, JobSeeds[0]);
      for (uint32_t U = 0; U < W.Units; ++U) {
        if (U)
          Text += "epoch\n";
        appendCrashDirectives(Plans[U], Text);
      }
      Texts.push_back(std::move(Text));
    } else {
      // One job per plan, each materializing its own world.
      for (uint32_t U = 0; U < W.Units; ++U) {
        std::string Text = specHeader(W, JobSeeds[U]);
        appendCrashDirectives(Plans[U], Text);
        Texts.push_back(std::move(Text));
      }
    }
    for (const Plan &P : Plans)
      CrashesPerRep += P.Crashes.size();
  }

  /// Set-up: parse, topology build, crash plans, run options, engine.
  bool setup(std::string &Error) {
    ScopedSpan S(Log, "setup", 0);
    return materialize(Texts[0], JobSeeds[0], Setup, Log, 0, Error);
  }

  bool measure(double Seconds, ColdSetups &Cold, std::string &Error) {
    // The replay is an independent path to the domain count the check
    // compares (and, timed, a probe in traced runs).
    for (const Plan &P : Plans)
      ReplayCounts.push_back(replayComponents(Setup.Topo.G, P));
    if (W.Kind == Shape::Quake)
      Setup = World(); // Each job materializes its own world from here on.
    if (!memoryPass(Error))
      return false;

    Figures.resize(W.Units);
    BestUnitSeconds.resize(W.Units);
    this->Cold = &Cold;
    if (!repetition(1, Error))
      return false;
    Clock::time_point Start = Clock::now();
    for (uint32_t Run = 2;
         RepSeconds.size() < kMinTimedReps || secondsSince(Start) < Seconds;
         ++Run)
      if (!repetition(Run, Error))
        return false;
    return true;
  }

  /// Traced runs only: the replay probes, timed apart from the repetitions.
  bool probes(std::string &Error);

  void report(bool Traced, double SetupSeconds, bool SelfTestOk) const;

  bool writeSpans(const std::string &Path) const {
    return !Log.enabled() || Log.write(Path);
  }

private:
  bool memoryPass(std::string &Error);
  bool repetition(uint32_t Run, std::string &Error);
  bool runUnit(uint32_t Run, uint32_t U, trace::StreamingChecker *SC,
               UnitResult &Out, std::string &Error);
  Findings findings(uint32_t U, const UnitResult &R) const;
  void check(uint32_t Run, uint32_t U, const UnitResult &R);
  void count(uint32_t Run, uint32_t U, const Findings &F);
  /// Restarts the latency draws for churn epoch \p U, so each epoch is a
  /// function of its own seed wherever and whenever it runs.
  void reseedLatency(World &Wd, uint32_t U) {
    if (W.Kind == Shape::Churn)
      *Wd.LatRand = Rng(Wd.LatSeed ^ (U + 1));
  }
  uint32_t fastestRun() const {
    return RepRuns[std::min_element(RepSeconds.begin(), RepSeconds.end()) -
                   RepSeconds.begin()];
  }
  trace::RunnerOptions runOptions(const World &Wd) {
    trace::RunnerOptions O = Wd.Options;
    if (Log.enabled()) {
      // Counts failure-detector notices through the detection-delay hook.
      uint64_t *Count = &Notices;
      detector::DetectionDelayModel Inner = O.DetectionDelay;
      O.DetectionDelay = [Inner, Count](NodeId Watcher, NodeId Target) {
        ++*Count;
        return Inner(Watcher, Target);
      };
    }
    return O;
  }

  const Workload &W;
  Torus T;
  SpanLog Log;
  std::vector<Plan> Plans;
  std::vector<uint64_t> JobSeeds;
  std::vector<std::string> Texts;
  uint64_t CrashesPerRep = 0;

  World Setup;
  ColdSetups *Cold = nullptr;
  double PeakRss = 0;
  /// Digests of the memory pass's units, which the warm-up must match.
  std::vector<uint64_t> MemoryDigests;
  std::vector<uint64_t> ReplayCounts;

  /// Timed repetitions: duration and run id.
  std::vector<double> RepSeconds;
  std::vector<uint32_t> RepRuns;
  /// Each unit's fastest time over the timed repetitions.
  std::vector<double> BestUnitSeconds;
  /// Warm-up figures per unit and their digests.
  std::vector<UnitFigures> Figures;
  std::vector<uint64_t> Digests;
  trace::StreamingChecker::Metrics Stream;
  uint64_t Notices = 0, WarmNotices = 0;

  uint64_t Attempted = 0, Failed = 0;

  // Probe results (traced runs).
  double ReplayNsPerCrash = 0;
  double CheckNsPerEvent = 0;
};

/// Runs unit \p U: churn epochs run on the set-up world and seal the
/// run's streaming checker; quake jobs materialize their own world and
/// run the batch checker over the recorded send log.
bool Bench::runUnit(uint32_t Run, uint32_t U, trace::StreamingChecker *SC,
                    UnitResult &Out, std::string &Error) {
  std::unique_ptr<World> Own;
  World *Wd = &Setup;
  if (W.Kind == Shape::Quake) {
    ScopedSpan S(Log, "materialize", Run);
    Own = std::make_unique<World>();
    if (!materialize(Texts[U], JobSeeds[U], *Own, Log, Run, Error))
      return false;
    Wd = Own.get();
  }
  reseedLatency(*Wd, U);
  engine::EngineJob Job;
  Job.G = &Wd->Topo.G;
  Job.Plan = &Wd->Plans[W.Kind == Shape::Churn ? U : 0];
  Job.Options = runOptions(*Wd);
  // Each unit has its own job seed, so on lossy links every epoch draws
  // its own per-channel fault schedule instead of replaying the first.
  Job.Seed = JobSeeds[U];
  if (SC) {
    Job.Options.StreamingCheck = SC;
    Job.Options.RecordSends = false;
  }
  engine::EngineResult R;
  {
    ScopedSpan S(Log, "engine.run", Run);
    R = Wd->Eng->run(Job);
  }
  if (SC) {
    ScopedSpan S(Log, "trace.seal", Run);
    Out.VerdictOk = SC->sealEpoch().Ok;
  } else {
    ScopedSpan S(Log, "trace.check", Run);
    Out.VerdictOk = trace::checkAll(engine::toCheckInput(R, Wd->Topo.G)).Ok;
  }
  takeStats(R, Out);
  Out.Decisions = std::move(R.Decisions);
  return true;
}

/// Peak RSS per unit: each of the first kMemoryUnits units runs once in a
/// child forked from the post-set-up state, so no unit's footprint
/// includes memory an earlier unit left in the allocator, and the run
/// reports the median. One run's peak over all its units would be set by
/// its single heaviest agreement wave, which varies too much from seed to
/// seed to compare runs by. Each child runs the unit exactly as the
/// repetitions do, checks it, and sends back its digest, which the warm-up
/// must match; each counts as one attempted operation.
bool Bench::memoryPass(std::string &Error) {
  std::vector<double> Peaks;
  std::fflush(nullptr);
  for (uint32_t U = 0; U < std::min(W.Units, kMemoryUnits); ++U) {
    int Fd[2];
    if (pipe(Fd) != 0) {
      Error = "pipe failed";
      return false;
    }
    pid_t Pid = fork();
    if (Pid < 0) {
      close(Fd[0]);
      close(Fd[1]);
      Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      close(Fd[0]);
      std::unique_ptr<trace::StreamingChecker> SC;
      if (W.Kind == Shape::Churn)
        SC = std::make_unique<trace::StreamingChecker>(Setup.Topo.G);
      UnitResult R;
      std::string Ignored;
      bool Ran = runUnit(0, U, SC.get(), R, Ignored);
      uint64_t D = Ran ? digest(R) : 0;
      Findings F;
      if (Ran)
        F = findings(U, R);
      for (size_t I = 0; I < F.Items.size() && I < 5; ++I)
        std::fprintf(stderr, "memory pass unit %u: %s\n", U,
                     F.Items[I].c_str());
      bool Sent = write(Fd[1], &D, sizeof D) == sizeof D;
      _exit(Ran && Sent && F.ok() ? 0 : 1);
    }
    close(Fd[1]);
    uint64_t D = 0;
    bool Got = read(Fd[0], &D, sizeof D) == sizeof D;
    close(Fd[0]);
    int Status = 0;
    struct rusage Use;
    if (wait4(Pid, &Status, 0, &Use) != Pid) {
      Error = "lost the memory pass child of unit " + std::to_string(U);
      return false;
    }
    Findings F;
    if (!Got || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      F.Items.push_back("MEMORY: the memory pass run failed its checks");
    count(0, U, F);
    MemoryDigests.push_back(D);
    Peaks.push_back(static_cast<double>(Use.ru_maxrss) / 1024.0); // KiB.
  }
  PeakRss = median(Peaks);
  return true;
}

bool Bench::repetition(uint32_t Run, std::string &Error) {
  std::unique_ptr<trace::StreamingChecker> SC;
  if (W.Kind == Shape::Churn)
    SC = std::make_unique<trace::StreamingChecker>(Setup.Topo.G);
  Notices = 0;
  double Secs = 0;
  ScopedSpan RepSpan(Log, "rep", Run);
  for (uint32_t U = 0; U < W.Units; ++U) {
    // Timed: the engine run through its verdict. The output check after
    // it is not, so the benchmark's own work never counts as the
    // program's.
    UnitResult R;
    Clock::time_point Start = Clock::now();
    if (!runUnit(Run, U, SC.get(), R, Error))
      return false;
    double UnitSecs = secondsSince(Start);
    Secs += UnitSecs;
    if (Run > 1)
      BestUnitSeconds[U] = Run == 2 ? UnitSecs
                                    : std::min(BestUnitSeconds[U], UnitSecs);
    check(Run, U, R);
    if (!Cold->sampleIfDue(Error))
      return false;
  }
  if (SC)
    Stream = SC->metrics();
  if (Run == 1) {
    WarmNotices = Notices;
  } else {
    RepSeconds.push_back(Secs);
    RepRuns.push_back(Run);
  }
  return true;
}

/// The independent check of unit \p U plus the program's own quiescence.
Findings Bench::findings(uint32_t U, const UnitResult &R) const {
  ProgramOutput O;
  O.Decisions = toDecisions(R);
  O.VerdictOk = R.VerdictOk;
  O.FaultySize = R.Faulty;
  O.ReplayComponents = ReplayCounts[U];
  O.ReliableLinks = W.Link == nullptr;
  O.Sent = R.Sent;
  O.Delivered = R.Delivered;
  O.DroppedAtCrashed = R.DroppedAtCrashed;
  Findings F = verify(T, Plans[U], O);
  if (!R.Quiesced)
    F.Items.push_back("QUIESCE: the run hit its event budget");
  return F;
}

void Bench::check(uint32_t Run, uint32_t U, const UnitResult &R) {
  Findings F = findings(U, R);
  uint64_t D = digest(R);
  if (Run == 1) {
    Digests.push_back(D);
    if (U < MemoryDigests.size() && D != MemoryDigests[U])
      F.Items.push_back("REPEAT: output differs from the memory pass's");
    UnitFigures &Fig = Figures[U];
    Fig.Crashes = Plans[U].Crashes.size();
    Fig.Events = R.Events;
    Fig.Sent = R.Sent;
    Fig.Delivered = R.Delivered;
    Fig.Dropped = R.DroppedAtCrashed;
    Fig.Bytes = R.Bytes;
    Fig.Retransmits = R.Retransmits;
    Fig.DupSuppressed = R.DupSuppressed;
    Fig.AckBytes = R.AckBytes;
    std::vector<Decision> Ds = toDecisions(R);
    Fig.Decisions = Ds.size();
    std::set<std::vector<uint32_t>> Views;
    std::vector<uint64_t> Latencies;
    for (const Decision &Dc : Ds) {
      Latencies.push_back(decideLatency(Plans[U], Dc));
      Views.insert(Dc.View);
    }
    Fig.Views = Views.size();
    std::sort(Latencies.begin(), Latencies.end());
    Fig.LatencyP50 = percentile(Latencies, 50);
    Fig.LatencyP99 = percentile(Latencies, 99);
  } else if (D != Digests[U]) {
    F.Items.push_back("REPEAT: output differs from the warm-up "
                      "repetition's");
  }
  count(Run, U, F);
}

/// Counts one attempted operation, failed when \p F has findings.
void Bench::count(uint32_t Run, uint32_t U, const Findings &F) {
  ++Attempted;
  if (F.ok())
    return;
  ++Failed;
  std::fprintf(stderr, "run %u unit %u failed:\n", Run, U);
  for (size_t I = 0; I < F.Items.size() && I < 5; ++I)
    std::fprintf(stderr, "  %s\n", F.Items[I].c_str());
}

bool Bench::probes(std::string &Error) {
  const uint32_t ProbeRun = RepRuns.back() + 1;
  World Quake;
  World *Wd = &Setup;
  if (W.Kind == Shape::Quake) {
    if (!materialize(Texts[0], JobSeeds[0], Quake, Log, ProbeRun, Error))
      return false;
    Wd = &Quake;
  }

  double Best = 0;
  for (int I = 0; I < kProbeReps; ++I) {
    ScopedSpan S(Log, "probe.components_replay", ProbeRun);
    Clock::time_point Start = Clock::now();
    for (const Plan &P : Plans)
      if (replayComponents(Wd->Topo.G, P) == 0)
        Error = "components replay found no component";
    double Secs = secondsSince(Start);
    Best = I == 0 ? Secs : std::min(Best, Secs);
  }
  ReplayNsPerCrash = Best * 1e9 / static_cast<double>(CrashesPerRep);

  if (W.Kind == Shape::Quake) {
    // The repetitions already time checkAll over each job's send log.
    uint64_t Events = 0;
    for (const UnitFigures &F : Figures)
      Events += F.Sent + F.Decisions + F.Crashes;
    CheckNsPerEvent = Log.seconds("trace.check", fastestRun()) * 1e9 /
                      static_cast<double>(Events);
    return Error.empty();
  }

  // Churn: record epoch 1 with its send log, then time the batch check.
  reseedLatency(*Wd, 0);
  engine::EngineJob Job;
  Job.G = &Wd->Topo.G;
  Job.Plan = &Wd->Plans[0];
  Job.Options = Wd->Options;
  Job.Seed = JobSeeds[0];
  engine::EngineResult R = Wd->Eng->run(Job);
  trace::CheckInput In = engine::toCheckInput(R, Wd->Topo.G);
  for (int I = 0; I < kProbeReps; ++I) {
    ScopedSpan S(Log, "probe.checkall_replay", ProbeRun);
    Clock::time_point Start = Clock::now();
    bool Ok = trace::checkAll(In).Ok;
    double Secs = secondsSince(Start);
    if (!Ok)
      Error = "checkAll rejected the recorded churn epoch";
    Best = I == 0 ? Secs : std::min(Best, Secs);
  }
  uint64_t Events = R.SendLog.size() + R.Decisions.size() + R.Faulty.size();
  CheckNsPerEvent = Best * 1e9 / static_cast<double>(Events);
  return Error.empty();
}

void Bench::report(bool Traced, double SetupSeconds, bool SelfTestOk) const {
  double Fastest = *std::min_element(RepSeconds.begin(), RepSeconds.end());
  double Crashes = static_cast<double>(CrashesPerRep);
  double BestSum = 0;
  for (double S : BestUnitSeconds)
    BestSum += S;
  UnitFigures Sum;
  for (const UnitFigures &F : Figures) {
    Sum.Events += F.Events;
    Sum.Sent += F.Sent;
    Sum.Delivered += F.Delivered;
    Sum.Dropped += F.Dropped;
    Sum.Bytes += F.Bytes;
    Sum.Retransmits += F.Retransmits;
    Sum.DupSuppressed += F.DupSuppressed;
    Sum.AckBytes += F.AckBytes;
    Sum.Decisions += F.Decisions;
    Sum.Views += F.Views;
  }
  // Latency percentiles are taken per unit and reported as the median
  // over units: a run-wide p99 is set by the run's few heaviest waves and
  // varied by a quarter between seeds.
  std::vector<double> P50, P99;
  for (const UnitFigures &F : Figures) {
    P50.push_back(F.LatencyP50);
    P99.push_back(F.LatencyP99);
  }

  std::vector<std::pair<const char *, std::pair<double, const char *>>> M;
  auto Put = [&M](const char *Name, double V, const char *Unit) {
    M.push_back({Name, {V, Unit}});
  };
  auto PerCrash = [Crashes](uint64_t V) {
    return static_cast<double>(V) / Crashes;
  };
  if (!Traced) {
    Put("crashes_per_s", Crashes / BestSum, "crashes/s");
    Put("setup_s", SetupSeconds, "s");
    Put("peak_rss_mb", PeakRss, "MB");
    Put("msgs_per_crash", PerCrash(Sum.Sent), "msgs/crash");
    Put("bytes_per_crash", PerCrash(Sum.Bytes), "B/crash");
    Put("decide_latency_p50_ticks", median(P50), "ticks");
    Put("decide_latency_p99_ticks", median(P99), "ticks");
  } else {
    uint32_t Fast = fastestRun();
    double RunS = Log.seconds("engine.run", Fast);
    Put("scenario.parse_s", Log.seconds("scenario.parse", 0), "s");
    Put("graph.topology_build_s", Log.seconds("graph.topology_build", 0),
        "s");
    Put("graph.components_replay_ns_per_crash", ReplayNsPerCrash,
        "ns/crash");
    Put("engine.run_s", RunS, "s");
    Put("engine.events_per_crash", PerCrash(Sum.Events), "events/crash");
    Put("engine.ns_per_event",
        RunS * 1e9 / static_cast<double>(Sum.Events), "ns/event");
    Put("sim.delivered_per_crash", PerCrash(Sum.Delivered), "msgs/crash");
    Put("sim.dropped_at_crashed_per_crash", PerCrash(Sum.Dropped),
        "msgs/crash");
    Put("core.bytes_per_msg",
        static_cast<double>(Sum.Bytes) / static_cast<double>(Sum.Sent),
        "B/msg");
    Put("core.decisions_per_crash", PerCrash(Sum.Decisions),
        "decisions/crash");
    Put("core.views_per_epoch",
        static_cast<double>(Sum.Views) / static_cast<double>(W.Units),
        "views/epoch");
    Put("detector.notices_per_crash", PerCrash(WarmNotices),
        "notices/crash");
    Put("net.retransmits_per_crash", PerCrash(Sum.Retransmits),
        "frames/crash");
    Put("net.dup_suppressed_per_crash", PerCrash(Sum.DupSuppressed),
        "frames/crash");
    Put("net.ack_bytes_per_crash", PerCrash(Sum.AckBytes), "B/crash");
    Put("trace.seal_s", Log.seconds("trace.seal", Fast), "s");
    Put("trace.open_waves_hw",
        static_cast<double>(Stream.OpenWavesHighWater), "count");
    Put("trace.state_highwater", static_cast<double>(Stream.StateHighWater),
        "count");
    Put("trace.check_s", Log.seconds("trace.check", Fast), "s");
    Put("trace.replay_ns_per_event", CheckNsPerEvent, "ns/event");
  }

  std::vector<double> Reps = RepSeconds;
  std::sort(Reps.begin(), Reps.end());
  std::fprintf(stderr,
               "%s: %zu timed repetitions of %u units, %llu crashes each; "
               "fastest %.4f s, median %.4f s, per-unit fastest %.4f s; "
               "%s crashes/s %.1f\n",
               W.Name, Reps.size(), W.Units,
               static_cast<unsigned long long>(CrashesPerRep), Fastest,
               Reps[Reps.size() / 2], BestSum,
               Traced ? "traced" : "untraced", Crashes / BestSum);

  bool Correct = Failed == 0 && SelfTestOk;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < M.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M[I].first, M[I].second.first,
                M[I].second.second);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: cliffedge-e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       cliffedge-e2ebench --selftest\n"
               "       cliffedge-e2ebench --setup-sample --workload NAME "
               "--seed N\n"
               "workloads:");
  for (const Workload &W : kWorkloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || errno || *S == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const Workload *W = nullptr;
  uint64_t Seed = 0, Seconds = 0, Trace = 0;
  bool HaveSeed = false, HaveSeconds = false, SetupSample = false;
  std::string OutDir = ".bench_build";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--selftest")
      return selfTest(true) ? 0 : 1;
    if (A == "--setup-sample") {
      SetupSample = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    if (A == "--workload") {
      for (const Workload &Cand : kWorkloads)
        if (std::strcmp(Cand.Name, V) == 0)
          W = &Cand;
      if (!W)
        return usage();
    } else if (A == "--seed") {
      HaveSeed = parseU64(V, Seed);
      if (!HaveSeed)
        return usage();
    } else if (A == "--seconds") {
      HaveSeconds = parseU64(V, Seconds) && Seconds > 0 && Seconds <= 3600;
      if (!HaveSeconds)
        return usage();
    } else if (A == "--trace") {
      if (!parseU64(V, Trace) || Trace > 1)
        return usage();
    } else if (A == "--out-dir") {
      OutDir = V;
    } else {
      return usage();
    }
  }
  if (!W || !HaveSeed || (!HaveSeconds && !SetupSample))
    return usage();

  std::string Error;
  Bench B(*W, Seed, Trace == 1 && !SetupSample);
  if (SetupSample) {
    // One cold set-up, timed from this process's start; no teardown.
    if (!B.setup(Error)) {
      std::fprintf(stderr, "%s: %s\n", W->Name, Error.c_str());
      return 1;
    }
    std::printf("%.17g\n", secondsSince(ProcessStart));
    std::fflush(stdout);
    _exit(0);
  }
  ColdSetups Cold(Argv[0], *W, Seed, Trace == 0);
  if (!B.setup(Error) ||
      !B.measure(static_cast<double>(Seconds), Cold, Error) ||
      (Trace == 1 && !B.probes(Error))) {
    std::fprintf(stderr, "%s: %s\n", W->Name, Error.c_str());
    return 1;
  }
  bool SelfTestOk = selfTest(false);
  if (!SelfTestOk)
    std::fprintf(stderr, "the output check's self-test failed\n");
  if (Trace == 1) {
    mkdir(OutDir.c_str(), 0755);
    std::string Path = OutDir + "/spans-" + W->Name + "-seed" +
                       std::to_string(Seed) + ".jsonl";
    if (!B.writeSpans(Path)) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return 1;
    }
  }
  B.report(Trace == 1, Cold.fastest(), SelfTestOk);
  return 0;
}
