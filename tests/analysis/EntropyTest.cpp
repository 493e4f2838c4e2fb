//===- tests/analysis/EntropyTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the layout-entropy and adjacency estimators.
///
//===----------------------------------------------------------------------===//

#include "analysis/Entropy.h"

#include "baselines/LeaAllocator.h"
#include "core/DieHardHeap.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace diehard {
namespace {

TEST(EntropyTest, ConstantPlacementHasZeroEntropy) {
  EntropyEstimate E =
      estimatePlacementEntropy([](uint64_t) { return uint64_t(42); }, 500);
  EXPECT_EQ(E.DistinctValues, 1u);
  EXPECT_DOUBLE_EQ(E.ShannonBits, 0.0);
  EXPECT_DOUBLE_EQ(E.MinEntropyBits, 0.0);
}

TEST(EntropyTest, UniformPlacementApproachesLogOfSupport) {
  // A uniform 256-value placement has 8 bits of entropy; the plug-in
  // estimate from 16k samples should be close.
  Rng Rand(7);
  EntropyEstimate E = estimatePlacementEntropy(
      [&](uint64_t) { return static_cast<uint64_t>(Rand.nextBounded(256)); },
      16000);
  EXPECT_EQ(E.DistinctValues, 256u);
  EXPECT_NEAR(E.ShannonBits, 8.0, 0.1);
  EXPECT_GT(E.MinEntropyBits, 6.5);
}

TEST(EntropyTest, DieHardPlacementIsHighEntropy) {
  // The slot of the first 64-byte allocation across seeds: uniform over
  // the class's slots, so entropy ~ log2(slots) (capped by sample count).
  DieHardOptions O;
  O.HeapSize = 12 * SizeClass::MaxObjectSize * 8;
  O.InitialActiveSlots = 0; // Entropy of the whole region, not the prefix.
  EntropyEstimate E = estimatePlacementEntropy(
      [&](uint64_t Seed) {
        DieHardOptions Local = O;
        Local.Seed = Seed | 1;
        DieHardHeap H(Local);
        char *Base = static_cast<char *>(H.getObjectStart(H.allocate(64)));
        char *Second = static_cast<char *>(H.allocate(64));
        return static_cast<uint64_t>(Second - Base);
      },
      2000);
  // 2000 samples over ~2k slots (plus sign wrap doubling the support):
  // birthday collisions leave ~1300-1500 distinct values.
  EXPECT_GT(E.ShannonBits, 9.0);
  EXPECT_GT(E.DistinctValues, 1200u);
}

TEST(EntropyTest, LeaPlacementIsFullyPredictable) {
  EntropyEstimate E = estimatePlacementEntropy(
      [](uint64_t) {
        LeaAllocator A(16 << 20);
        auto *First = static_cast<char *>(A.allocate(64));
        auto *Second = static_cast<char *>(A.allocate(64));
        return static_cast<uint64_t>(Second - First);
      },
      200);
  EXPECT_EQ(E.DistinctValues, 1u)
      << "a deterministic allocator has zero placement entropy";
  EXPECT_DOUBLE_EQ(E.ShannonBits, 0.0);
}

TEST(EntropyTest, AdjacencyRateSeparatesTheAllocators) {
  // Lea: consecutive same-size allocations are adjacent essentially
  // always. DieHard: essentially never.
  double LeaRate = measureAdjacencyRate(
      [](uint64_t) {
        LeaAllocator A(16 << 20);
        auto First = reinterpret_cast<uintptr_t>(A.allocate(64));
        auto Second = reinterpret_cast<uintptr_t>(A.allocate(64));
        return std::make_pair(First, Second);
      },
      /*ObjectSize=*/80, // 64 bytes + the 16-byte aligned header step.
      100);
  EXPECT_GT(LeaRate, 0.99);

  DieHardOptions O;
  O.HeapSize = 12 * SizeClass::MaxObjectSize * 8;
  double DieHardRate = measureAdjacencyRate(
      [&](uint64_t Seed) {
        DieHardOptions Local = O;
        Local.Seed = Seed | 1;
        DieHardHeap H(Local);
        auto First = reinterpret_cast<uintptr_t>(H.allocate(64));
        auto Second = reinterpret_cast<uintptr_t>(H.allocate(64));
        return std::make_pair(First, Second);
      },
      /*ObjectSize=*/64, 400);
  EXPECT_LT(DieHardRate, 0.02);
}

} // namespace
} // namespace diehard
