//===- tests/workloads/WorkloadTest.cpp -----------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the synthetic workloads and suite presets.
///
//===----------------------------------------------------------------------===//

#include "workloads/SyntheticWorkload.h"

#include "baselines/DieHardAllocator.h"
#include "baselines/GcAllocator.h"
#include "baselines/LeaAllocator.h"
#include "workloads/WorkloadSuite.h"

#include <gtest/gtest.h>

namespace diehard {

/// Prints a preset as its name. GoogleTest's fallback dumps the raw bytes,
/// which include std::string's heap pointer, so the listed names of the
/// parameterized tests would change with every process's address layout.
void PrintTo(const WorkloadParams &P, std::ostream *OS);
void PrintTo(const WorkloadParams &P, std::ostream *OS) { *OS << P.Name; }

namespace {

WorkloadParams tinyWorkload(uint64_t Seed = 1) {
  WorkloadParams P;
  P.Name = "tiny";
  P.MemoryOps = 30000;
  P.MinSize = 8;
  P.MaxSize = 512;
  P.MaxLive = 800;
  P.Seed = Seed;
  return P;
}

DieHardOptions heapOptions(uint64_t Seed = 77) {
  DieHardOptions O;
  O.HeapSize = 96 * 1024 * 1024;
  O.Seed = Seed;
  return O;
}

TEST(SyntheticWorkloadTest, DeterministicAcrossRuns) {
  SyntheticWorkload W(tinyWorkload());
  DieHardAllocator A(heapOptions(1)), B(heapOptions(2));
  WorkloadResult RA = W.run(A);
  WorkloadResult RB = W.run(B);
  EXPECT_EQ(RA.Checksum, RB.Checksum)
      << "checksum must not depend on heap layout";
  EXPECT_EQ(RA.Allocations, RB.Allocations);
  EXPECT_EQ(RA.Frees, RB.Frees);
}

TEST(SyntheticWorkloadTest, ChecksumIdenticalAcrossAllocators) {
  // The central integration property: any correct allocator produces the
  // same checksum, because the workload only reads data it wrote.
  SyntheticWorkload W(tinyWorkload());

  DieHardAllocator DieHardA(heapOptions());
  LeaAllocator Lea(128 << 20);
  GcAllocator Gc(256 << 20);
  SystemAllocator System;

  uint64_t Reference = W.run(System).Checksum;
  EXPECT_EQ(W.run(DieHardA).Checksum, Reference) << "diehard";
  EXPECT_EQ(W.run(Lea).Checksum, Reference) << "lea";
  EXPECT_EQ(W.run(Gc).Checksum, Reference) << "gc";
}

TEST(SyntheticWorkloadTest, DifferentSeedsDifferentChecksums) {
  DieHardAllocator A(heapOptions());
  uint64_t C1 = SyntheticWorkload(tinyWorkload(1)).run(A).Checksum;
  uint64_t C2 = SyntheticWorkload(tinyWorkload(2)).run(A).Checksum;
  EXPECT_NE(C1, C2);
}

TEST(SyntheticWorkloadTest, AllFreesBalanceAllocations) {
  SyntheticWorkload W(tinyWorkload());
  DieHardAllocator A(heapOptions());
  WorkloadResult R = W.run(A);
  EXPECT_EQ(R.Allocations, R.Frees) << "the workload drains its live set";
  EXPECT_EQ(A.heap().bytesLive(), 0u);
  EXPECT_EQ(R.FailedAllocations, 0u);
}

TEST(SyntheticWorkloadTest, RespectsLiveTarget) {
  WorkloadParams P = tinyWorkload();
  P.MaxLive = 123;
  SyntheticWorkload W(P);
  DieHardAllocator A(heapOptions());
  WorkloadResult R = W.run(A);
  EXPECT_LE(R.PeakLive, 123u);
  EXPECT_GT(R.PeakLive, 60u) << "the live set should approach its target";
}

TEST(SyntheticWorkloadTest, GcSeesLiveSetThroughRoots) {
  // Under the collector, everything the workload still holds must survive
  // collections mid-run; the checksum verifies object contents at free
  // time, so corruption or premature reclamation would change it.
  WorkloadParams P = tinyWorkload();
  P.MemoryOps = 60000;
  SyntheticWorkload W(P);
  GcAllocator Gc(64 << 20, /*CollectThreshold=*/1 << 20);
  WorkloadResult R = W.run(Gc);
  EXPECT_GT(Gc.collections(), 0u) << "the run must actually collect";
  SystemAllocator System;
  EXPECT_EQ(R.Checksum, W.run(System).Checksum);
}

/// Every preset in both suites runs clean on DieHard and matches the
/// system allocator's checksum.
class SuitePresets : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(SuitePresets, RunsCleanOnDieHardAndSystem) {
  WorkloadParams P = GetParam();
  // Scale down for unit-test latency; cap the live set with it so the
  // scaled heap's per-class 1/M thresholds are never the binding limit.
  P.MemoryOps = std::min<uint64_t>(P.MemoryOps, 40000);
  P.ComputePerOp = std::min(P.ComputePerOp, 4);
  P.MaxLive = std::min<size_t>(P.MaxLive, 4000);
  SyntheticWorkload W(P);
  DieHardOptions O;
  O.HeapSize = 256 * 1024 * 1024;
  O.Seed = 13;
  DieHardAllocator A(O);
  SystemAllocator System;
  WorkloadResult RD = W.run(A);
  WorkloadResult RS = W.run(System);
  EXPECT_EQ(RD.Checksum, RS.Checksum) << P.Name;
  EXPECT_EQ(RD.FailedAllocations, 0u) << P.Name;
}

std::vector<WorkloadParams> allPresets() {
  auto A = allocationIntensiveSuite();
  auto B = generalPurposeSuite();
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuitePresets,
                         ::testing::ValuesIn(allPresets()),
                         [](const auto &Info) {
                           std::string Name = Info.param.Name;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

} // namespace
} // namespace diehard
