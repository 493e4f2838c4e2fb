//===- perfbench/PerfCommon.h - shared pieces of the benchmark --*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What perf_child and perf_layers share: the command-line workload shape,
/// a fine-grained latency histogram, and an Allocator wrapper that times
/// every eighth call into the layer under it (and, when tracing, records a
/// span for every 64th).
///
/// The workload itself is the repository's runGauntlet, unchanged. Its own
/// sampled histogram has 12.5% buckets, so p50 and p99 could only move in
/// 12.5% steps and would read the same value run after run; the wrapper
/// therefore keeps 1 ns buckets and runGauntlet's own sampling is switched off
/// (SamplePeriod = INT_MAX samples only the first call per thread).
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_PERFBENCH_PERFCOMMON_H
#define DIEHARD_PERFBENCH_PERFCOMMON_H

#include "baselines/Allocator.h"
#include "workloads/WorkloadDriver.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <time.h>

namespace diehard {
namespace perf {

/// CLOCK_MONOTONIC in nanoseconds. The same clock Python's
/// time.clock_gettime(time.CLOCK_MONOTONIC) reads, so the runner can
/// subtract its own pre-spawn timestamp from the child's.
inline uint64_t monoNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000u +
         static_cast<uint64_t>(T.tv_nsec);
}

/// Latency histogram with exact 1 ns buckets below ExactLimit and 64
/// sub-buckets per octave above it. Quantiles interpolate linearly inside
/// the bucket that holds the rank, so they carry sub-nanosecond digits.
class FineHistogram {
public:
  static constexpr uint64_t ExactLimit = 1 << 14;
  static constexpr int SubBits = 6;
  static constexpr int Octaves = 30; ///< Up to 2^(14+30) ns.

  void record(uint64_t Ns) {
    ++Total;
    if (Ns < ExactLimit) {
      ++Exact[Ns];
      return;
    }
    int Msb = 63 - __builtin_clzll(Ns);
    int Octave = Msb - 14;
    if (Octave >= Octaves) {
      ++Log[LogBuckets - 1];
      return;
    }
    uint64_t Sub = (Ns >> (Msb - SubBits)) & ((1u << SubBits) - 1);
    ++Log[(static_cast<size_t>(Octave) << SubBits) + Sub];
  }

  void merge(const FineHistogram &O) {
    for (uint64_t I = 0; I < ExactLimit; ++I)
      Exact[I] += O.Exact[I];
    for (size_t I = 0; I < LogBuckets; ++I)
      Log[I] += O.Log[I];
    Total += O.Total;
  }

  uint64_t samples() const { return Total; }

  /// Value at quantile \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const {
    if (Total == 0)
      return 0.0;
    double Rank = Q * static_cast<double>(Total);
    double Seen = 0.0;
    for (uint64_t I = 0; I < ExactLimit; ++I) {
      if (Exact[I] != 0 && Seen + static_cast<double>(Exact[I]) >= Rank)
        return static_cast<double>(I) + (Rank - Seen) / Exact[I];
      Seen += static_cast<double>(Exact[I]);
    }
    for (size_t I = 0; I < LogBuckets; ++I) {
      if (Log[I] != 0 && Seen + static_cast<double>(Log[I]) >= Rank) {
        double Base = static_cast<double>(uint64_t(1) << (14 + (I >> SubBits)));
        double Width = Base / (1 << SubBits);
        double Lo = Base + static_cast<double>(I & ((1u << SubBits) - 1)) * Width;
        return Lo + Width * (Rank - Seen) / Log[I];
      }
      Seen += static_cast<double>(Log[I]);
    }
    return static_cast<double>(uint64_t(1) << (14 + Octaves));
  }

private:
  static constexpr size_t LogBuckets = size_t(Octaves) << SubBits;
  uint32_t Exact[ExactLimit] = {};
  uint32_t Log[LogBuckets] = {};
  uint64_t Total = 0;
};

/// Worker threads a benchmark program accepts (and keeps histograms for).
constexpr size_t MaxWorkerThreads = 8;

/// One traced interval. Ids start at 1; a parent of 0 means none.
struct Span {
  uint64_t StartNs;
  uint64_t EndNs;
  uint32_t Name;
  uint32_t Parent;
};

/// Preallocated span store. Recording is one relaxed fetch_add plus a
/// 24-byte store; spans past capacity are counted and dropped, never
/// allocated, so tracing cannot change the heap it observes.
class SpanBuffer {
public:
  explicit SpanBuffer(size_t Capacity) : Spans(Capacity) {}

  /// Starts a span and returns its id; close() sets its end.
  uint32_t open(uint32_t Name, uint32_t Parent, uint64_t StartNs) {
    size_t Id = Next.fetch_add(1, std::memory_order_relaxed);
    if (Id >= Spans.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return UINT32_MAX;
    }
    Spans[Id] = {StartNs, StartNs, Name, Parent};
    return static_cast<uint32_t>(Id + 1);
  }

  void close(uint32_t Id, uint64_t EndNs) {
    if (Id != UINT32_MAX)
      Spans[Id - 1].EndNs = EndNs;
  }

  void record(uint32_t Name, uint32_t Parent, uint64_t StartNs,
              uint64_t EndNs) {
    close(open(Name, Parent, StartNs), EndNs);
  }

  /// Writes one tab-separated line per span: id, parent, name, start and
  /// end in ns relative to \p OriginNs. \returns false on an I/O error.
  bool write(const char *Path, const std::vector<std::string> &Names,
             uint64_t OriginNs) const {
    std::FILE *F = std::fopen(Path, "w");
    if (F == nullptr)
      return false;
    std::fprintf(F, "id\tparent\tname\tstart_ns\tend_ns\n");
    size_t N = std::min(Next.load(), Spans.size());
    for (size_t I = 0; I < N; ++I)
      std::fprintf(F, "%zu\t%u\t%s\t%llu\t%llu\n", I + 1, Spans[I].Parent,
                   Names[Spans[I].Name].c_str(),
                   static_cast<unsigned long long>(Spans[I].StartNs - OriginNs),
                   static_cast<unsigned long long>(Spans[I].EndNs - OriginNs));
    return std::fclose(F) == 0;
  }

  size_t recorded() const { return std::min(Next.load(), Spans.size()); }
  size_t dropped() const { return Dropped.load(); }

private:
  std::vector<Span> Spans;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Dropped{0};
};

/// Where a traced wrapper records its operation spans.
struct SpanSink {
  SpanBuffer *Buffer = nullptr;
  uint32_t AllocName = 0;
  uint32_t FreeName = 0;
  uint32_t Parent = 0;
};

/// Allocator facade over \p Layer (anything with allocate/deallocate) that
/// times every eighth call into a per-thread FineHistogram and, with a
/// SpanSink, records every 64th call as a span. Calls go to the layer
/// directly, not through another virtual hop, so the wrapper adds the same
/// one virtual call the repository's SystemAllocator does. A layer with a
/// threadStarted(index) member hears of each worker thread before its first
/// call; threads are numbered in the order they first call in.
template <typename Layer> class SampledAllocator final : public Allocator {
public:
  static constexpr uint64_t LatencyPeriod = 8;
  static constexpr uint64_t SpanPeriod = 64;

  explicit SampledAllocator(Layer &L, SpanSink Sink = SpanSink())
      : Target(L), Spans(Sink), Hists(MaxWorkerThreads) {}

  void *allocate(size_t Size) override {
    Local &T = local();
    if (T.Counter++ % LatencyPeriod != 0)
      return Target.allocate(Size);
    uint64_t Start = monoNs();
    void *Ptr = Target.allocate(Size);
    sampled(T, Start, Spans.AllocName);
    return Ptr;
  }

  void deallocate(void *Ptr) override {
    Local &T = local();
    if (T.Counter++ % LatencyPeriod != 0) {
      Target.deallocate(Ptr);
      return;
    }
    uint64_t Start = monoNs();
    Target.deallocate(Ptr);
    sampled(T, Start, Spans.FreeName);
  }

  const char *getName() const override { return "sampled"; }

  /// Every thread's samples, merged. Call after the workers joined.
  FineHistogram merged() const {
    FineHistogram All;
    for (const FineHistogram &H : Hists)
      All.merge(H);
    return All;
  }

private:
  struct Local {
    const void *Owner = nullptr;
    FineHistogram *Hist = nullptr;
    uint64_t Counter = 0;
  };

  Local &local() {
    thread_local Local T;
    if (T.Owner != this) {
      size_t Index = NextThread.fetch_add(1, std::memory_order_relaxed);
      if (Index >= MaxWorkerThreads) {
        std::fprintf(stderr, "perfbench: more than %zu worker threads\n",
                     MaxWorkerThreads);
        std::abort();
      }
      T = {this, &Hists[Index], 0};
      if constexpr (requires(Layer &L) { L.threadStarted(Index); })
        Target.threadStarted(Index);
    }
    return T;
  }

  void sampled(Local &T, uint64_t Start, uint32_t Name) {
    uint64_t End = monoNs();
    T.Hist->record(End - Start);
    if (Spans.Buffer != nullptr &&
        (T.Counter - 1) % SpanPeriod == 0)
      Spans.Buffer->record(Name, Spans.Parent, Start, End);
  }

  Layer &Target;
  SpanSink Spans;
  std::vector<FineHistogram> Hists;
  std::atomic<size_t> NextThread{0};
};

/// The workload shape and seed, parsed from the flags run.py passes:
/// --kind --ops --threads --min --max --slots --burst --stride --seed.
/// Other flags are left in \p Rest for the caller. \returns false (after
/// printing why) on a malformed command line.
inline bool parseParams(int Argc, char **Argv, GauntletParams &P,
                        std::vector<std::pair<std::string, std::string>> &Rest) {
  P.SamplePeriod = INT_MAX;
  bool HaveKind = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 >= Argc) {
      std::fprintf(stderr, "bad argument: %s\n", Argv[I]);
      return false;
    }
    std::string Flag = Argv[I] + 2, Value = Argv[++I];
    char *End = nullptr;
    unsigned long long N = std::strtoull(Value.c_str(), &End, 0);
    bool Numeric = End != Value.c_str() && *End == '\0';
    auto Set = [&](auto &Field) {
      using T = std::remove_reference_t<decltype(Field)>;
      Field = static_cast<T>(N);
      return Numeric && N <= static_cast<unsigned long long>(
                                 std::numeric_limits<T>::max());
    };
    bool Ok = true;
    if (Flag == "kind")
      Ok = HaveKind = gauntletKindFromName(Value, P.Kind);
    else if (Flag == "ops")
      Ok = Set(P.OpsPerThread);
    else if (Flag == "threads")
      Ok = Set(P.Threads);
    else if (Flag == "min")
      Ok = Set(P.MinSize);
    else if (Flag == "max")
      Ok = Set(P.MaxSize);
    else if (Flag == "slots")
      Ok = Set(P.SlotsPerThread);
    else if (Flag == "burst")
      Ok = Set(P.BurstObjects);
    else if (Flag == "stride")
      Ok = Set(P.PinnedStride);
    else if (Flag == "seed")
      Ok = Set(P.Seed);
    else
      Rest.emplace_back(Flag, Value);
    if (!Ok) {
      std::fprintf(stderr, "bad value for --%s: %s\n", Flag.c_str(),
                   Value.c_str());
      return false;
    }
  }
  if (!HaveKind || P.MinSize == 0 || P.MinSize > P.MaxSize ||
      P.OpsPerThread == 0 || P.Threads < 1 ||
      static_cast<size_t>(P.Threads) > MaxWorkerThreads) {
    std::fprintf(stderr, "need --kind, a valid size range, an op count and "
                         "1 to %zu threads\n",
                 MaxWorkerThreads);
    return false;
  }
  return true;
}

/// The value of flag \p Name in \p Rest, or \p Default.
inline std::string
flagValue(const std::vector<std::pair<std::string, std::string>> &Rest,
          const char *Name, const char *Default) {
  for (const auto &[Flag, Value] : Rest)
    if (Flag == Name)
      return Value;
  return Default;
}

} // namespace perf
} // namespace diehard

#endif // DIEHARD_PERFBENCH_PERFCOMMON_H
