//===- tests/analysis/MonteCarloTest.cpp ----------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-checks: the Monte-Carlo simulators must agree with the closed-form
/// theorems, and the *real allocator* must agree with both. Together these
/// verify that DieHardHeap actually delivers the probabilistic memory
/// safety the analysis promises.
///
//===----------------------------------------------------------------------===//

#include "analysis/MonteCarlo.h"

#include "analysis/Probability.h"
#include "core/DieHardHeap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

namespace diehard {
namespace {

struct OverflowCase {
  double FreeFraction;
  int OverflowObjects;
  int Replicas;
};

class OverflowAgreement : public ::testing::TestWithParam<OverflowCase> {};

TEST_P(OverflowAgreement, SimulationMatchesTheorem1) {
  OverflowCase C = GetParam();
  Rng Rand(1234);
  size_t HeapSlots = 4096;
  auto LiveSlots =
      static_cast<size_t>((1.0 - C.FreeFraction) * HeapSlots + 0.5);
  double Sim = simulateOverflowMask(HeapSlots, LiveSlots, C.OverflowObjects,
                                    C.Replicas, 40000, Rand);
  double Closed = maskOverflowProbability(C.FreeFraction, C.OverflowObjects,
                                          C.Replicas);
  EXPECT_NEAR(Sim, Closed, 0.012)
      << "F/H=" << C.FreeFraction << " O=" << C.OverflowObjects
      << " k=" << C.Replicas;
}

INSTANTIATE_TEST_SUITE_P(
    Fig4aGrid, OverflowAgreement,
    ::testing::Values(OverflowCase{0.875, 1, 1}, OverflowCase{0.875, 1, 3},
                      OverflowCase{0.875, 1, 5}, OverflowCase{0.75, 1, 1},
                      OverflowCase{0.75, 1, 4}, OverflowCase{0.5, 1, 1},
                      OverflowCase{0.5, 1, 3}, OverflowCase{0.5, 1, 6},
                      OverflowCase{0.875, 3, 1}, OverflowCase{0.5, 2, 3}));

struct DanglingCase {
  size_t FreeSlots;
  size_t Allocations;
  int Replicas;
};

class DanglingAgreement : public ::testing::TestWithParam<DanglingCase> {};

TEST_P(DanglingAgreement, SimulationMatchesTheorem2) {
  DanglingCase C = GetParam();
  Rng Rand(77);
  double Sim =
      simulateDanglingMask(C.FreeSlots, C.Allocations, C.Replicas, 8000,
                           Rand);
  // Theorem 2 is stated over F/S slots; FreeSlots here *is* F/S.
  double Closed =
      maskDanglingProbability(C.FreeSlots * 8, 8, C.Allocations, C.Replicas);
  EXPECT_NEAR(Sim, Closed, 0.02)
      << "Q=" << C.FreeSlots << " A=" << C.Allocations
      << " k=" << C.Replicas;
}

INSTANTIATE_TEST_SUITE_P(
    Fig4bGrid, DanglingAgreement,
    ::testing::Values(DanglingCase{2048, 100, 1}, DanglingCase{2048, 1000, 1},
                      DanglingCase{2048, 1500, 1}, DanglingCase{2048, 500, 3},
                      DanglingCase{512, 100, 1}, DanglingCase{512, 400, 3},
                      DanglingCase{8192, 4000, 1}));

class UninitAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UninitAgreement, SimulationMatchesTheorem3) {
  auto [Bits, Replicas] = GetParam();
  Rng Rand(5150);
  double Sim = simulateUninitDetect(Bits, Replicas, 60000, Rand);
  double Closed = detectUninitReadProbability(Bits, Replicas);
  EXPECT_NEAR(Sim, Closed, 0.01) << "B=" << Bits << " k=" << Replicas;
}

INSTANTIATE_TEST_SUITE_P(Theorem3Grid, UninitAgreement,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16),
                                            ::testing::Values(3, 4, 5)));

// End-to-end: the real allocator realizes Theorem 2. Allocate an object,
// free it prematurely, perform A intervening allocations, and check whether
// the contents survived; the survival rate must track the closed form.
TEST(HeapRealizesTheorems, DanglingSurvivalMatchesTheorem2) {
  constexpr size_t ObjectSize = 64;
  constexpr int Trials = 300;
  constexpr size_t Intervening = 400;

  int Survived = 0;
  DieHardOptions O;
  O.HeapSize = 12 * SizeClass::MaxObjectSize * 8; // Small heap: few slots.
  O.M = 2.0;
  O.InitialActiveSlots = 0; // The closed form assumes the whole region.
  for (int T = 0; T < Trials; ++T) {
    O.Seed = static_cast<uint64_t>(T) * 2654435761u + 1;
    DieHardHeap H(O);
    ASSERT_TRUE(H.isValid());
    auto *Victim = static_cast<unsigned char *>(H.allocate(ObjectSize));
    ASSERT_NE(Victim, nullptr);
    std::memset(Victim, 0xAB, ObjectSize);
    H.deallocate(Victim); // Premature free.
    std::vector<void *> Later;
    for (size_t A = 0; A < Intervening; ++A) {
      void *P = H.allocate(ObjectSize);
      if (P == nullptr)
        break;
      std::memset(P, 0xCD, ObjectSize);
      Later.push_back(P);
    }
    bool Intact = true;
    for (size_t B = 0; B < ObjectSize; ++B)
      Intact &= Victim[B] == 0xAB;
    Survived += Intact ? 1 : 0;
    for (void *P : Later)
      H.deallocate(P);
  }

  int C = SizeClass::sizeToClass(ObjectSize);
  DieHardHeap Probe(O);
  size_t Slots = Probe.slotsInClass(C);
  double Closed = maskDanglingProbability(Slots * ObjectSize, ObjectSize,
                                          Intervening, 1);
  double Observed = static_cast<double>(Survived) / Trials;
  EXPECT_NEAR(Observed, Closed, 0.08)
      << "slots=" << Slots << " closed=" << Closed;
}

// End-to-end: overflows of O objects' worth beyond a victim object hit live
// neighbours at the rate Theorem 1 predicts (approximately — the theorem
// models uniform writes, the heap provides uniform placement).
TEST(HeapRealizesTheorems, OverflowHitRateTracksFullness) {
  constexpr size_t ObjectSize = 128;
  constexpr int Trials = 400;

  auto hitRate = [&](double TargetFill) {
    int Hits = 0;
    DieHardOptions O;
    O.HeapSize = 12 * SizeClass::MaxObjectSize * 8;
    O.InitialActiveSlots = 0; // Fill is measured against the whole region.
    for (int T = 0; T < Trials; ++T) {
      O.Seed = static_cast<uint64_t>(T) * 40503u + 7;
      DieHardHeap H(O);
      int C = SizeClass::sizeToClass(ObjectSize);
      size_t Slots = H.slotsInClass(C);
      auto Target = static_cast<size_t>(TargetFill * Slots);
      std::vector<unsigned char *> Live;
      for (size_t I = 0; I < Target; ++I) {
        auto *P = static_cast<unsigned char *>(H.allocate(ObjectSize));
        if (P == nullptr)
          break;
        std::memset(P, 0x11, ObjectSize);
        Live.push_back(P);
      }
      if (Live.empty())
        return -1.0; // Allocation failure; surfaces as a bad rate below.
      // Overflow one object's worth past a random victim.
      unsigned char *Victim = Live[Live.size() / 2];
      std::memset(Victim + ObjectSize, 0x99, ObjectSize);
      bool Hit = false;
      for (unsigned char *P : Live) {
        if (P == Victim)
          continue;
        for (size_t B = 0; B < ObjectSize && !Hit; ++B)
          Hit = P[B] != 0x11;
      }
      Hits += Hit ? 1 : 0;
    }
    return static_cast<double>(Hits) / Trials;
  };

  double Sparse = hitRate(0.125);
  double Dense = hitRate(0.5);
  // The paper's qualitative claim: fuller heaps mask less. The overflow
  // lands on the slot after the victim, which is live with probability
  // about the fill fraction.
  EXPECT_LT(Sparse, Dense);
  EXPECT_NEAR(Sparse, 0.125, 0.07);
  EXPECT_NEAR(Dense, 0.5, 0.10);
}

// End-to-end: the real allocator realizes Theorem 3. Spawn k differently
// seeded random-fill heaps (exactly what k replicas hold), read B bits of
// an uninitialized allocation from each, and measure how often all k
// disagree pairwise — the voter's detection condition.
TEST(HeapRealizesTheorems, UninitReadDetectionMatchesTheorem3) {
  constexpr int Replicas = 3;
  constexpr int Trials = 1500;

  for (int Bits : {4, 8}) {
    int Detected = 0;
    for (int T = 0; T < Trials; ++T) {
      uint32_t Values[Replicas];
      for (int K = 0; K < Replicas; ++K) {
        DieHardOptions O;
        O.HeapSize = 12 * SizeClass::MaxObjectSize * 2;
        O.Seed = static_cast<uint64_t>(T) * 977 + K * 131071 + 1;
        O.RandomFillObjects = true;
        DieHardHeap H(O);
        auto *P = static_cast<uint32_t *>(H.allocate(64));
        ASSERT_NE(P, nullptr);
        Values[K] = P[7] & ((uint32_t(1) << Bits) - 1); // Uninit read.
      }
      bool AllDistinct = Values[0] != Values[1] && Values[0] != Values[2] &&
                         Values[1] != Values[2];
      Detected += AllDistinct ? 1 : 0;
    }
    double Rate = static_cast<double>(Detected) / Trials;
    double Closed = detectUninitReadProbability(Bits, Replicas);
    EXPECT_NEAR(Rate, Closed, 0.04) << "B = " << Bits;
  }
}

} // namespace
} // namespace diehard
