//===- tests/support/BitmapTest.cpp ---------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the allocation bitmap.
///
//===----------------------------------------------------------------------===//

#include "support/Bitmap.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

namespace diehard {
namespace {

TEST(BitmapTest, StartsAllClear) {
  Bitmap B(1000);
  EXPECT_EQ(B.size(), 1000u);
  EXPECT_EQ(B.count(), 0u);
  for (size_t I = 0; I < 1000; ++I)
    EXPECT_FALSE(B.test(I));
}

TEST(BitmapTest, SetAndClearRoundTrip) {
  Bitmap B(128);
  EXPECT_TRUE(B.trySet(5));
  EXPECT_TRUE(B.test(5));
  EXPECT_TRUE(B.tryClear(5));
  EXPECT_FALSE(B.test(5));
}

TEST(BitmapTest, DoubleSetFails) {
  Bitmap B(64);
  EXPECT_TRUE(B.trySet(63));
  EXPECT_FALSE(B.trySet(63)) << "second set of the same bit must fail";
  EXPECT_TRUE(B.test(63));
}

TEST(BitmapTest, DoubleClearFails) {
  Bitmap B(64);
  EXPECT_FALSE(B.tryClear(10)) << "clearing a clear bit must fail";
  B.trySet(10);
  EXPECT_TRUE(B.tryClear(10));
  EXPECT_FALSE(B.tryClear(10));
}

TEST(BitmapTest, CountTracksSets) {
  Bitmap B(300);
  for (size_t I = 0; I < 300; I += 3)
    B.trySet(I);
  EXPECT_EQ(B.count(), 100u);
}

TEST(BitmapTest, WordBoundaries) {
  Bitmap B(130);
  for (size_t I : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_TRUE(B.trySet(I)) << I;
    EXPECT_TRUE(B.test(I)) << I;
  }
  EXPECT_EQ(B.count(), 6u);
}

TEST(BitmapTest, FindNextClearSkipsSetBits) {
  Bitmap B(256);
  for (size_t I = 0; I < 100; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 100u);
  EXPECT_EQ(B.findNextClear(100), 100u);
  EXPECT_EQ(B.findNextClear(101), 101u);
}

TEST(BitmapTest, FindNextClearFullBitmap) {
  Bitmap B(64);
  for (size_t I = 0; I < 64; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 64u) << "full bitmap reports size()";
}

TEST(BitmapTest, FindNextClearCrossesFullWords) {
  Bitmap B(200);
  for (size_t I = 0; I < 192; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(5), 192u);
}

TEST(BitmapTest, FindNextClearWordBoundarySkip) {
  // Word 0 entirely set: the full-word fast path must land exactly on bit
  // 64, whether the scan starts at the word's first or last bit.
  Bitmap B(128);
  for (size_t I = 0; I < 64; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 64u);
  EXPECT_EQ(B.findNextClear(63), 64u);
  EXPECT_EQ(B.findNextClear(64), 64u);
}

TEST(BitmapTest, FindNextClearFromMidWordOfFullWord) {
  // Starting mid-way through a fully-set word must not skip the clear bit
  // at the start of the next word.
  Bitmap B(192);
  for (size_t I = 0; I < 64; ++I)
    B.trySet(I);
  B.trySet(65); // Bit 64 clear, bit 65 set.
  EXPECT_EQ(B.findNextClear(10), 64u);
  EXPECT_EQ(B.findNextClear(65), 66u);
}

TEST(BitmapTest, FindNextClearNonMultipleOf64Tail) {
  // 70 bits: the last word holds only 6 valid bits. A fully-set bitmap must
  // report size() == 70, not scan into the word's unused upper bits.
  Bitmap B(70);
  for (size_t I = 0; I < 70; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 70u);
  EXPECT_EQ(B.findNextClear(69), 70u);
  // With only the last valid bit clear, the scan must find exactly it.
  B.tryClear(69);
  EXPECT_EQ(B.findNextClear(64), 69u);
  EXPECT_EQ(B.findNextClear(69), 69u);
}

TEST(BitmapTest, FindNextClearFromSizeIsSize) {
  Bitmap B(100);
  EXPECT_EQ(B.findNextClear(100), 100u) << "From == size() must be a no-op";
}

TEST(BitmapTest, FindNextClearOnlyLastBitClear) {
  Bitmap B(128);
  for (size_t I = 0; I < 127; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 127u);
}

TEST(BitmapTest, FindNextSetMirrorsFindNextClear) {
  Bitmap B(256);
  EXPECT_EQ(B.findNextSet(0), 256u) << "all-clear bitmap reports size()";
  B.trySet(100);
  B.trySet(200);
  EXPECT_EQ(B.findNextSet(0), 100u);
  EXPECT_EQ(B.findNextSet(100), 100u);
  EXPECT_EQ(B.findNextSet(101), 200u);
  EXPECT_EQ(B.findNextSet(201), 256u);
}

TEST(BitmapTest, FindNextSetWordBoundarySkip) {
  // Word 0 entirely clear: the empty-word fast path must land exactly on
  // bit 64, whether the scan starts at the word's first or last bit.
  Bitmap B(128);
  B.trySet(64);
  EXPECT_EQ(B.findNextSet(0), 64u);
  EXPECT_EQ(B.findNextSet(63), 64u);
  EXPECT_EQ(B.findNextSet(64), 64u);
}

TEST(BitmapTest, FindNextSetFromMidWordOfEmptyWord) {
  // Starting mid-way through an all-clear word must not skip the set bit
  // at the start of the next word.
  Bitmap B(192);
  B.trySet(64);
  B.trySet(66);
  EXPECT_EQ(B.findNextSet(10), 64u);
  EXPECT_EQ(B.findNextSet(65), 66u);
}

TEST(BitmapTest, FindNextSetNonMultipleOf64Tail) {
  // 70 bits: only the last valid bit set — the scan must find exactly it
  // and From == size() must be a no-op.
  Bitmap B(70);
  B.trySet(69);
  EXPECT_EQ(B.findNextSet(0), 69u);
  EXPECT_EQ(B.findNextSet(69), 69u);
  EXPECT_EQ(B.findNextSet(70), 70u);
}

TEST(BitmapTest, FindNextSetAndClearEnumerateRuns) {
  // The pairing the span scanner uses: alternating findNextClear /
  // findNextSet calls enumerate exactly the maximal free runs.
  Bitmap B(300);
  for (size_t I = 50; I < 80; ++I)
    B.trySet(I);
  for (size_t I = 190; I < 200; ++I)
    B.trySet(I);
  EXPECT_EQ(B.findNextClear(0), 0u);
  EXPECT_EQ(B.findNextSet(0), 50u);     // Run [0, 50).
  EXPECT_EQ(B.findNextClear(50), 80u);
  EXPECT_EQ(B.findNextSet(80), 190u);   // Run [80, 190).
  EXPECT_EQ(B.findNextClear(190), 200u);
  EXPECT_EQ(B.findNextSet(200), 300u);  // Run [200, 300).
}

TEST(BitmapTest, SearchesStopAtTheLimit) {
  // A partition's active prefix bounds its searches: nothing at or past
  // the limit is reported, even inside the same word, and a miss returns
  // the limit rather than size().
  Bitmap B(256);
  for (size_t I = 0; I < 100; ++I)
    B.trySet(I);
  B.trySet(150);
  EXPECT_EQ(B.findNextClear(0, 100), 100u) << "all set below the limit";
  EXPECT_EQ(B.findNextClear(0, 101), 100u);
  EXPECT_EQ(B.findNextClear(10, 64), 64u) << "full word, limit on its edge";
  EXPECT_EQ(B.findNextSet(100, 150), 150u) << "bit 150 is past the limit";
  EXPECT_EQ(B.findNextSet(100, 151), 150u);
  EXPECT_EQ(B.findNextSet(151, 256), 256u);
  EXPECT_EQ(B.findNextSet(200, 120), 120u) << "From past the limit";
}

TEST(BitmapTest, ResetClearsAndResizes) {
  Bitmap B(10);
  B.trySet(3);
  B.reset(500);
  EXPECT_EQ(B.size(), 500u);
  EXPECT_EQ(B.count(), 0u);
}

TEST(BitmapTest, ClearKeepsSize) {
  Bitmap B(77);
  B.trySet(5);
  B.trySet(76);
  B.clear();
  EXPECT_EQ(B.size(), 77u);
  EXPECT_EQ(B.count(), 0u);
}

/// Property: a randomized set/clear workload keeps count() consistent with
/// a reference std::set.
TEST(BitmapTest, RandomizedAgainstReference) {
  Bitmap B(512);
  std::set<size_t> Reference;
  Rng Rand(2024);
  for (int Step = 0; Step < 20000; ++Step) {
    size_t Index = Rand.nextBounded(512);
    if (Rand.next() & 1) {
      bool Inserted = Reference.insert(Index).second;
      EXPECT_EQ(B.trySet(Index), Inserted);
    } else {
      bool Erased = Reference.erase(Index) > 0;
      EXPECT_EQ(B.tryClear(Index), Erased);
    }
  }
  EXPECT_EQ(B.count(), Reference.size());
  for (size_t I = 0; I < 512; ++I)
    EXPECT_EQ(B.test(I), Reference.count(I) > 0) << I;
}

} // namespace
} // namespace diehard
