//===- tests/integration/ErrorAvoidanceTest.cpp ---------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end statistical tests: the *deployed* stack (real heap, real
/// workloads, real fault injector, real voter) avoids memory errors at the
/// rates Section 6 promises. These are the integration-level counterparts
/// of the per-module tests: each one exercises several modules together.
///
//===----------------------------------------------------------------------===//

#include "baselines/DieHardAllocator.h"
#include "core/CheckedLibc.h"
#include "core/DieHardHeap.h"
#include "core/HeapAdapter.h"
#include "faultinject/FaultInjector.h"
#include "faultinject/TraceAllocator.h"
#include "replication/Replication.h"
#include "workloads/ForkHarness.h"
#include "workloads/SyntheticWorkload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace diehard {
namespace {

TEST(ErrorAvoidanceIntegration, WorkloadSurvivesHeavyDanglingInjection) {
  // Trace, then re-run with a slice of the frees ten allocations early, on
  // the real randomized heap; the checksum must survive. The per-run
  // masking probability is governed by Theorem 2's slot-reuse term: each
  // prematurely freed slot is re-handed-out within its 10-allocation
  // dangling window with probability ~(window / free slots in its class),
  // summed over ~2300 injected events. The 1 GB reservation keeps the most
  // populated class at ~330k slots, putting the expected collisions per
  // run near 0.03 — low enough that requiring 4 of 5 seeds to mask is
  // statistically safe rather than seed-lottery (the reservation is
  // MAP_NORESERVE, so the size costs address space, not memory).
  WorkloadParams P;
  P.Name = "dangle";
  P.MemoryOps = 30000;
  P.MinSize = 8;
  P.MaxSize = 256;
  P.MaxLive = 1000;
  P.Seed = 77;
  SyntheticWorkload W(P);

  DieHardOptions O;
  O.HeapSize = size_t(1024) * 1024 * 1024;
  O.InitialActiveSlots = 0; // The slot counts above are the whole region.
  O.Seed = 3;
  DieHardAllocator TraceInner(O);
  TraceAllocator Tracer(TraceInner);
  uint64_t Clean = W.run(Tracer).Checksum;

  int Correct = 0;
  for (int Run = 0; Run < 5; ++Run) {
    FaultConfig Config;
    Config.DanglingProbability = 0.15;
    Config.DanglingDistance = 10;
    Config.Seed = static_cast<uint64_t>(Run) + 1;
    DieHardOptions RO = O;
    RO.Seed = static_cast<uint64_t>(Run) * 17 + 5;
    DieHardAllocator Inner(RO);
    FaultInjector Injector(Inner, Tracer.trace(), Config);
    Correct += W.run(Injector).Checksum == Clean ? 1 : 0;
  }
  EXPECT_GE(Correct, 4) << "Theorem 2 predicts near-certain masking for "
                           "small objects at distance 10";
}

TEST(ErrorAvoidanceIntegration, WorkloadSurvivesOverflowInjection) {
  WorkloadParams P;
  P.Name = "ovfl";
  P.MemoryOps = 30000;
  P.MinSize = 8;
  P.MaxSize = 512;
  P.MaxLive = 1000;
  P.Seed = 78;
  SyntheticWorkload W(P);

  DieHardOptions O;
  O.HeapSize = 256 * 1024 * 1024;
  O.InitialActiveSlots = 0; // Masking odds of the whole, sparse region.
  O.Seed = 4;
  DieHardAllocator TraceInner(O);
  TraceAllocator Tracer(TraceInner);
  uint64_t Clean = W.run(Tracer).Checksum;

  int Correct = 0;
  for (int Run = 0; Run < 5; ++Run) {
    FaultConfig Config;
    Config.OverflowProbability = 0.01;
    Config.OverflowMinSize = 32;
    Config.UnderAllocateBytes = 4;
    Config.Seed = static_cast<uint64_t>(Run) + 11;
    DieHardOptions RO = O;
    RO.Seed = static_cast<uint64_t>(Run) * 23 + 7;
    DieHardAllocator Inner(RO);
    FaultInjector Injector(Inner, Tracer.trace(), Config);
    Correct += W.run(Injector).Checksum == Clean ? 1 : 0;
  }
  EXPECT_GE(Correct, 4);
}

TEST(ErrorAvoidanceIntegration, OverflowMaskingRateTracksTheorem1) {
  // Fill the 64-byte class to ~1/8, overflow one object's worth from a
  // victim, and measure the masking rate across seeds: Theorem 1 says
  // ~87.5%.
  constexpr int Trials = 200;
  int Masked = 0;
  for (int T = 0; T < Trials; ++T) {
    DieHardOptions O;
    O.HeapSize = 12 * SizeClass::MaxObjectSize * 8;
    O.InitialActiveSlots = 0; // "1/8 full" is of the whole region.
    O.Seed = static_cast<uint64_t>(T) * 131 + 1;
    DieHardHeap H(O);
    int C = SizeClass::sizeToClass(64);
    size_t Slots = H.slotsInClass(C);
    std::vector<unsigned char *> Live;
    for (size_t I = 0; I < Slots / 8; ++I) {
      auto *P = static_cast<unsigned char *>(H.allocate(64));
      ASSERT_NE(P, nullptr);
      std::memset(P, 0x33, 64);
      Live.push_back(P);
    }
    unsigned char *Victim = Live[Live.size() / 3];
    std::memset(Victim + 64, 0x99, 64); // One object's worth.
    bool Hit = false;
    for (unsigned char *P : Live) {
      if (P == Victim)
        continue;
      for (int B = 0; B < 64 && !Hit; ++B)
        Hit = P[B] != 0x33;
    }
    Masked += Hit ? 0 : 1;
  }
  double Rate = static_cast<double>(Masked) / Trials;
  EXPECT_GT(Rate, 0.80) << "Theorem 1 predicts ~87.5% at 1/8 full";
  EXPECT_LT(Rate, 0.95);
}

TEST(ErrorAvoidanceIntegration, ReplicatedWorkloadMasksInjectedOverflow) {
  // Full stack: three replicas run the same workload; one replica's heap
  // is additionally battered by an out-of-bounds write. The two healthy
  // replicas outvote it (or, almost always, the battered one still
  // produces correct output and all three agree).
  ReplicationOptions RO;
  RO.Replicas = 3;
  RO.MasterSeed = 0xFEED;
  RO.HeapSize = 64 * 1024 * 1024;
  ReplicaManager Manager(RO);
  ReplicationResult R = Manager.run(
      [](ReplicaContext &Ctx) {
        DieHardHeap Heap(Ctx.heapOptions());
        HeapAdapter Adapter(Heap, "replica");

        // Replica 0 suffers an overflow mid-run.
        if (Ctx.replicaIndex() == 0) {
          auto *P = static_cast<char *>(Heap.allocate(128));
          std::memset(P, 0x5A, 128 + 256);
        }

        WorkloadParams P;
        P.Name = "rep";
        P.MemoryOps = 20000;
        P.MinSize = 8;
        P.MaxSize = 256;
        P.MaxLive = 500;
        P.Seed = 0xCAFE;
        SyntheticWorkload W(P);
        uint64_t Sum = W.run(Adapter).Checksum;
        char Line[32];
        int N = std::snprintf(Line, sizeof(Line), "%016llx\n",
                              static_cast<unsigned long long>(Sum));
        Ctx.write(Line, static_cast<size_t>(N));
        return 0;
      },
      "");
  EXPECT_TRUE(R.Success);
  EXPECT_GE(R.Survivors, 2);
}

TEST(ErrorAvoidanceIntegration, CheckedLibcProtectsLargeObjectsToo) {
  DieHardOptions O;
  O.HeapSize = 64 * 1024 * 1024;
  O.Seed = 5;
  DieHardHeap H(O);
  CheckedLibc Checked(H);
  // A large (mmap'd, guarded) object: the checked copy must clamp at its
  // exact requested size rather than fault on the guard page.
  constexpr size_t Size = 20000;
  auto *Dst = static_cast<char *>(H.allocate(Size));
  ASSERT_NE(Dst, nullptr);
  std::string Huge(100000, 'h');
  Checked.strcpy(Dst, Huge.c_str());
  EXPECT_EQ(std::strlen(Dst), Size - 1);
  H.deallocate(Dst);
}

TEST(ErrorAvoidanceIntegration, WholeHeapFillSupportsOutOfBoundsReads) {
  // With Figure 2's whole-heap random fill, even reads *past* an object
  // (not just of uninitialized objects) diverge across seeds.
  DieHardOptions A, B;
  A.HeapSize = B.HeapSize = 12 * SizeClass::MaxObjectSize * 4;
  A.RandomFillHeapOnInit = B.RandomFillHeapOnInit = true;
  A.Seed = 100;
  B.Seed = 200;
  DieHardHeap HA(A), HB(B);
  auto *PA = static_cast<uint32_t *>(HA.allocate(64));
  auto *PB = static_cast<uint32_t *>(HB.allocate(64));
  ASSERT_NE(PA, nullptr);
  ASSERT_NE(PB, nullptr);
  // Read beyond the object's end (stays inside the heap partition).
  bool Different = false;
  for (int I = 16; I < 32; ++I)
    Different |= PA[I] != PB[I];
  EXPECT_TRUE(Different)
      << "out-of-bounds reads must return replica-divergent data";
}

} // namespace
} // namespace diehard
