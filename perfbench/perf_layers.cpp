//===- perfbench/perf_layers.cpp - traced layer ladder --------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced half of the benchmark. It replays one gauntlet workload
/// against in-process rungs of the heap, built with the options the shim
/// resolves from its environment, and then times the public primitives of
/// the layers below at the workload's dominant size class and live fill.
/// The shim rung itself (LD_PRELOAD with DIEHARD_STATS=1) is run by run.py
/// through perf_child; this program covers everything below it.
///
/// Rungs, in order:
///   sharded_k32_cold    ShardedHeap with the thread cache (K=32), fresh
///   sharded_k32_warm    the same heap again: its pages are already touched
///   sharded_k0          ShardedHeap with the cache off, fresh
///   diehard_locked      one DieHardHeap behind one mutex, fresh
///   sharded_k32_traced  as the cold rung, recording operation spans
///
/// A rung's ns/op minus the rung below it is that layer's self time; cold
/// minus warm is the kernel's first-touch share; traced minus cold is the
/// cost of tracing. Spans (one per rung plus every 64th call of the traced
/// rung) go to the --spans file as tab-separated lines.
///
/// Usage: perf_layers <perf_child workload flags> --heap-seed S
///                    --sweeper 0|1 --sweep-ms MS --class-bytes B
///                    --live-fill F --spans PATH
///
/// Prints one LAYERS_RESULT line of JSON.
///
//===----------------------------------------------------------------------===//

#include "PerfCommon.h"

#include "baselines/DieHardAllocator.h"
#include "core/ShardedHeap.h"
#include "support/Bitmap.h"

#include <algorithm>
#include <cinttypes>
#include <string>

using namespace diehard;

namespace {

/// Median of \p V (which it reorders); 0 when empty.
double median(std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double nsSince(uint64_t Start) {
  return static_cast<double>(perf::monoNs() - Start);
}

/// The options libdiehard.so resolves with DIEHARD_SEED, DIEHARD_SWEEPER
/// and DIEHARD_SWEEP_MS set and every other knob at its default.
struct ShimKnobs {
  uint64_t Seed;
  bool Sweeper;
  uint32_t SweepMs;
};

ShardedHeapOptions shimOptions(const ShimKnobs &Knobs, size_t K) {
  ShardedHeapOptions O;
  O.Heap.Seed = Knobs.Seed;
  O.NumShards = 0;
  O.ThreadCacheSlots = K;
  O.Sweeper = Knobs.Sweeper;
  O.SweepIntervalMs = Knobs.SweepMs;
  return O;
}

/// A ShardedHeap whose worker threads get the shard tokens a shim process
/// hands them (the main thread takes token 0 before workers start), every
/// run. Without the pin, tokens keep counting up across rungs, and the
/// warm rung would land on shards the cold rung never touched.
struct PinnedShards {
  ShardedHeap &H;
  void *allocate(size_t Size) { return H.allocate(Size); }
  void deallocate(void *Ptr) { H.deallocate(Ptr); }
  void threadStarted(size_t Index) {
    ShardedHeap::pinThreadToken(static_cast<uint32_t>(Index) + 1);
  }
};

struct Rung {
  const char *Name;
  GauntletResult R;
  double NsPerOp = 0.0;
  double P99Ns = 0.0;
};

std::vector<std::string> SpanNames = {"ladder", "primitives",
                                      "ShardedHeap.allocate",
                                      "ShardedHeap.deallocate"};

uint32_t spanName(const char *Name) {
  SpanNames.emplace_back(Name);
  return static_cast<uint32_t>(SpanNames.size() - 1);
}

/// Runs the workload once through \p Layer, under a run span.
template <typename Layer>
Rung runRung(const char *Name, const GauntletParams &P, Layer &L,
             perf::SpanBuffer &Spans, uint32_t Ladder, bool TraceOps) {
  uint32_t RunSpan = Spans.open(spanName(Name), Ladder, perf::monoNs());
  perf::SpanSink Sink;
  if (TraceOps)
    Sink = {&Spans, 2, 3, RunSpan};
  perf::SampledAllocator<Layer> A(L, Sink);
  Rung Out{Name, runGauntlet(P, A)};
  Spans.close(RunSpan, perf::monoNs());
  Out.NsPerOp = Out.R.Seconds * 1e9 /
                static_cast<double>(Out.R.Allocations + Out.R.Frees);
  Out.P99Ns = A.merged().quantile(0.99);
  return Out;
}

/// Per-operation times of the primitives, each the median over batches.
struct Primitives {
  double BitmapClaimNs = 0, AllocNs = 0, FreeNs = 0, Claim32Ns = 0,
         FreeBatch64Ns = 0, RemoteFreeNs = 0, DrainNsPerEntry = 0,
         MaintainUs = 0, SweepPassMs = 0, FirstTouchNsPerPage = 0,
         ReleaseNsPerPage = 0;
};

constexpr int Batches = 2000;

/// Size of one partition of a heap with default options, as DieHardHeap
/// carves it.
size_t partitionBytes() {
  size_t Bytes = DieHardOptions().HeapSize / SizeClass::NumClasses;
  return Bytes - Bytes % SizeClass::MaxObjectSize;
}

/// Writes the first byte of a fresh object, as the workload's stamp does.
void *touched(void *Ptr) {
  if (Ptr == nullptr) {
    std::fprintf(stderr, "allocation failed while timing primitives\n");
    std::exit(1);
  }
  *static_cast<char *>(Ptr) = 1;
  return Ptr;
}

/// A lone partition over its own mapping, filled to \p Live touched
/// objects.
struct FilledPartition {
  FilledPartition(size_t ClassBytes, size_t Live, uint64_t Seed)
      : Region(partitionBytes()) {
    if (Region.base() == nullptr ||
        !P.init(Region.base(), ClassBytes, partitionBytes() / ClassBytes, 2.0,
                Seed, false, false)) {
      std::fprintf(stderr, "cannot map a partition\n");
      std::exit(1);
    }
    for (size_t I = 0; I < Live; ++I)
      touched(P.allocate());
  }
  MmapRegion Region;
  RandomizedPartition P;
};

void timePartition(Primitives &Out, size_t ClassBytes, size_t Live,
                   uint64_t Seed) {
  FilledPartition F(ClassBytes, Live, Seed);
  RandomizedPartition &P = F.P;
  void *Ptrs[64];
  std::vector<double> Alloc, Free, Claim, Batch, Remote, Drain, Maintain;
  for (int B = 0; B < Batches; ++B) {
    uint64_t T0 = perf::monoNs();
    for (void *&Ptr : Ptrs)
      Ptr = P.allocate();
    uint64_t T1 = perf::monoNs();
    for (void *Ptr : Ptrs)
      P.deallocate(Ptr);
    Alloc.push_back(static_cast<double>(T1 - T0) / 64);
    Free.push_back(nsSince(T1) / 64);

    T0 = perf::monoNs();
    size_t N = P.claimRandomSlots(Ptrs, 32);
    Claim.push_back(nsSince(T0));
    P.reclaimSlots(Ptrs, N);

    for (void *&Ptr : Ptrs)
      Ptr = P.allocate();
    T0 = perf::monoNs();
    P.deallocateBatch(Ptrs, 64);
    Batch.push_back(nsSince(T0));

    for (void *&Ptr : Ptrs)
      Ptr = P.allocate();
    T0 = perf::monoNs();
    for (void *Ptr : Ptrs)
      P.remoteFree(Ptr);
    T1 = perf::monoNs();
    P.drainRemoteFrees();
    Remote.push_back(static_cast<double>(T1 - T0) / 64);
    Drain.push_back(nsSince(T1) / 64);

    // A sweeper pass finds the pages these objects touched free again.
    if (B % 10 == 0) {
      for (void *&Ptr : Ptrs)
        Ptr = touched(P.allocate());
      for (void *Ptr : Ptrs)
        P.deallocate(Ptr);
      T0 = perf::monoNs();
      P.maintain();
      Maintain.push_back(nsSince(T0) / 1e3);
    }
  }
  Out.AllocNs = median(Alloc);
  Out.FreeNs = median(Free);
  Out.Claim32Ns = median(Claim);
  Out.FreeBatch64Ns = median(Batch);
  Out.RemoteFreeNs = median(Remote);
  Out.DrainNsPerEntry = median(Drain);
  Out.MaintainUs = median(Maintain);
}

void timeBitmap(Primitives &Out, size_t Slots, size_t Live, uint64_t Seed) {
  Bitmap Bits(Slots);
  Rng Rand(Seed);
  uint64_t Probes = 0, Fallbacks = 0;
  for (size_t I = 0; I < Live; ++I)
    claimRandomSlot(Bits, Rand, Slots, Probes, Fallbacks);
  size_t Claimed[32];
  std::vector<double> Times;
  for (int B = 0; B < Batches; ++B) {
    uint64_t T0 = perf::monoNs();
    for (size_t &Index : Claimed)
      Index = claimRandomSlot(Bits, Rand, Slots, Probes, Fallbacks);
    Times.push_back(nsSince(T0) / 32);
    for (size_t Index : Claimed)
      Bits.tryClear(Index);
  }
  Out.BitmapClaimNs = median(Times);
}

/// First touch of fresh pages and their return in 4-page spans (the
/// sweeper's average span on the fragmentation workload).
void timeMapping(Primitives &Out) {
  constexpr size_t Pages = 1024, SpanPages = 4;
  size_t Page = MmapRegion::pageSize();
  MmapRegion Region(Pages * Page);
  auto *Base = static_cast<char *>(Region.base());
  std::vector<double> Touch, Release;
  for (int Round = 0; Round < 16; ++Round) {
    uint64_t T0 = perf::monoNs();
    for (size_t I = 0; I < Pages; ++I)
      Base[I * Page] = 1;
    uint64_t T1 = perf::monoNs();
    for (size_t I = 0; I < Pages; I += SpanPages)
      MmapRegion::releasePageRange(Base + I * Page, SpanPages * Page);
    Touch.push_back(static_cast<double>(T1 - T0) / Pages);
    Release.push_back(nsSince(T1) / Pages);
  }
  Out.FirstTouchNsPerPage = median(Touch);
  Out.ReleaseNsPerPage = median(Release);
}

/// One synchronous sweeper pass over a heap holding the workload's live
/// shape, after a round of churn gave it frees to act on.
void timeSweepPass(Primitives &Out, size_t ClassBytes, size_t Live,
                   uint64_t Seed) {
  // Passes run only when called here.
  ShardedHeapOptions O = shimOptions({Seed, true, 3600 * 1000}, 32);
  ShardedHeap H(O);
  std::vector<void *> Objects(Live);
  for (void *&Ptr : Objects)
    Ptr = touched(H.allocate(ClassBytes));
  std::vector<double> Times;
  for (int Round = 0; Round < 20; ++Round) {
    for (size_t I = Round % 2; I < Objects.size(); I += 2) {
      H.deallocate(Objects[I]);
      Objects[I] = touched(H.allocate(ClassBytes));
    }
    uint64_t T0 = perf::monoNs();
    H.sweepNow();
    Times.push_back(nsSince(T0) / 1e6);
  }
  for (void *Ptr : Objects)
    H.deallocate(Ptr);
  Out.SweepPassMs = median(Times);
}

void printRung(const Rung &R, bool Last) {
  std::printf("\"%s\":{\"allocations\":%" PRIu64 ",\"frees\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"checksum\":%" PRIu64
              ",\"ns_per_op\":%.4f,\"p99_ns\":%.4f}%s",
              R.Name, R.R.Allocations, R.R.Frees, R.R.FailedAllocations,
              R.R.Checksum, R.NsPerOp, R.P99Ns, Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  GauntletParams Params;
  std::vector<std::pair<std::string, std::string>> Rest;
  if (!perf::parseParams(argc, argv, Params, Rest))
    return 2;
  uint64_t HeapSeed =
      std::strtoull(perf::flagValue(Rest, "heap-seed", "23459").c_str(),
                    nullptr, 0);
  ShimKnobs Knobs{
      HeapSeed, perf::flagValue(Rest, "sweeper", "0") == "1",
      static_cast<uint32_t>(std::strtoul(
          perf::flagValue(Rest, "sweep-ms", "100").c_str(), nullptr, 10))};
  size_t ClassBytes = std::strtoull(
      perf::flagValue(Rest, "class-bytes", "1024").c_str(), nullptr, 0);
  double LiveFill =
      std::strtod(perf::flagValue(Rest, "live-fill", "0.02").c_str(), nullptr);
  std::string SpansPath = perf::flagValue(Rest, "spans", "");
  if (Knobs.SweepMs == 0 || !SizeClass::isSmall(ClassBytes) ||
      SizeClass::roundUp(ClassBytes) != ClassBytes || LiveFill < 0.0 ||
      LiveFill > 0.9 || SpansPath.empty()) {
    std::fprintf(stderr, "need --sweep-ms > 0, a size-class --class-bytes, "
                         "--live-fill in [0, 0.9] and --spans\n");
    return 2;
  }

  perf::SpanBuffer Spans(size_t(1) << 19);
  uint64_t Origin = perf::monoNs();
  uint32_t Ladder = Spans.open(0, 0, Origin);

  std::vector<Rung> Rungs;
  {
    ShardedHeap H(shimOptions(Knobs, 32));
    PinnedShards L{H};
    Rungs.push_back(runRung("sharded_k32_cold", Params, L, Spans, Ladder,
                            false));
    Rungs.push_back(runRung("sharded_k32_warm", Params, L, Spans, Ladder,
                            false));
  }
  {
    ShardedHeap H(shimOptions(Knobs, 0));
    PinnedShards L{H};
    Rungs.push_back(runRung("sharded_k0", Params, L, Spans, Ladder, false));
  }
  {
    DieHardOptions O;
    O.Seed = HeapSeed;
    DieHardAllocator Heap(O);
    LockedAllocator Locked(Heap);
    Rungs.push_back(
        runRung("diehard_locked", Params, Locked, Spans, Ladder, false));
  }
  {
    ShardedHeap H(shimOptions(Knobs, 32));
    PinnedShards L{H};
    Rungs.push_back(runRung("sharded_k32_traced", Params, L, Spans, Ladder,
                            true));
  }

  uint32_t PrimSpan = Spans.open(1, Ladder, perf::monoNs());
  Primitives Prim;
  size_t Slots = partitionBytes() / ClassBytes;
  auto Live = static_cast<size_t>(LiveFill * static_cast<double>(Slots) / 2.0);
  timePartition(Prim, ClassBytes, Live, HeapSeed);
  timeBitmap(Prim, Slots, Live, HeapSeed);
  timeMapping(Prim);
  timeSweepPass(Prim, ClassBytes, Live, HeapSeed);
  Spans.close(PrimSpan, perf::monoNs());
  Spans.close(Ladder, perf::monoNs());
  if (!Spans.write(SpansPath.c_str(), SpanNames, Origin)) {
    std::fprintf(stderr, "cannot write %s\n", SpansPath.c_str());
    return 1;
  }

  std::printf("LAYERS_RESULT {\"rungs\":{");
  for (size_t I = 0; I < Rungs.size(); ++I)
    printRung(Rungs[I], I + 1 == Rungs.size());
  std::printf("},\"primitives\":{\"bitmap_claim_ns\":%.4f,\"alloc_ns\":%.4f,"
              "\"free_ns\":%.4f,\"claim32_ns\":%.4f,\"free_batch64_ns\":%.4f,"
              "\"remote_free_ns\":%.4f,\"drain_ns_per_entry\":%.4f,"
              "\"maintain_us\":%.4f,\"sweep_pass_ms\":%.6f,"
              "\"first_touch_ns_per_page\":%.4f,"
              "\"release_ns_per_page\":%.4f},"
              "\"spans\":{\"recorded\":%zu,\"dropped\":%zu}}\n",
              Prim.BitmapClaimNs, Prim.AllocNs, Prim.FreeNs, Prim.Claim32Ns,
              Prim.FreeBatch64Ns, Prim.RemoteFreeNs, Prim.DrainNsPerEntry,
              Prim.MaintainUs, Prim.SweepPassMs, Prim.FirstTouchNsPerPage,
              Prim.ReleaseNsPerPage, Spans.recorded(), Spans.dropped());
  return 0;
}
