//===- tests/support/MmapRegionTest.cpp -----------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the RAII mmap wrapper.
///
//===----------------------------------------------------------------------===//

#include "support/MmapRegion.h"

#include <gtest/gtest.h>

#include <cstring>

namespace diehard {
namespace {

TEST(MmapRegionTest, MapsAndZeroFills) {
  MmapRegion R(1 << 20);
  ASSERT_NE(R.base(), nullptr);
  EXPECT_EQ(R.size(), size_t(1) << 20);
  const char *P = static_cast<const char *>(R.base());
  for (size_t I = 0; I < 4096; I += 512)
    EXPECT_EQ(P[I], 0) << "anonymous pages are demand-zero";
}

TEST(MmapRegionTest, WritableEverywhere) {
  MmapRegion R(1 << 16);
  ASSERT_NE(R.base(), nullptr);
  std::memset(R.base(), 0xAB, R.size());
  const auto *P = static_cast<const unsigned char *>(R.base());
  EXPECT_EQ(P[0], 0xAB);
  EXPECT_EQ(P[R.size() - 1], 0xAB);
}

TEST(MmapRegionTest, ContainsIsExact) {
  MmapRegion R(4096);
  ASSERT_NE(R.base(), nullptr);
  const char *B = static_cast<const char *>(R.base());
  EXPECT_TRUE(R.contains(B));
  EXPECT_TRUE(R.contains(B + 4095));
  EXPECT_FALSE(R.contains(B + 4096));
  EXPECT_FALSE(R.contains(B - 1));
  int Local;
  EXPECT_FALSE(R.contains(&Local));
}

TEST(MmapRegionTest, EmptyRegionBehaves) {
  MmapRegion R;
  EXPECT_EQ(R.base(), nullptr);
  EXPECT_EQ(R.size(), 0u);
  EXPECT_FALSE(R.contains(&R));
}

TEST(MmapRegionTest, MoveTransfersOwnership) {
  MmapRegion A(8192);
  void *Base = A.base();
  ASSERT_NE(Base, nullptr);
  MmapRegion B(std::move(A));
  EXPECT_EQ(B.base(), Base);
  EXPECT_EQ(A.base(), nullptr);
  MmapRegion C;
  C = std::move(B);
  EXPECT_EQ(C.base(), Base);
  EXPECT_EQ(B.base(), nullptr);
}

TEST(MmapRegionTest, UnmapIsIdempotent) {
  MmapRegion R(4096);
  R.unmap();
  EXPECT_EQ(R.base(), nullptr);
  R.unmap();
  EXPECT_EQ(R.base(), nullptr);
}

TEST(MmapRegionTest, RemapReplacesOldMapping) {
  MmapRegion R(4096);
  ASSERT_TRUE(R.map(8192));
  EXPECT_EQ(R.size(), 8192u);
  ASSERT_NE(R.base(), nullptr);
}

TEST(MmapRegionTest, PageSizeIsSane) {
  size_t Page = MmapRegion::pageSize();
  EXPECT_GE(Page, 4096u);
  EXPECT_EQ(Page & (Page - 1), 0u) << "page size must be a power of two";
}

TEST(MmapRegionDeathTest, GuardPageFaults) {
  MmapRegion R(4 * MmapRegion::pageSize());
  ASSERT_NE(R.base(), nullptr);
  ASSERT_TRUE(R.protectNone(MmapRegion::pageSize(), MmapRegion::pageSize()));
  char *Guarded = static_cast<char *>(R.base()) + MmapRegion::pageSize();
  EXPECT_DEATH({ *Guarded = 1; }, "");
}

TEST(MmapRegionTest, HugeReservationIsLazy) {
  // 8 GB of reserved-but-untouched address space must succeed: this is the
  // property that makes DieHard's M-times heap affordable.
  MmapRegion R(size_t(8) << 30);
  EXPECT_NE(R.base(), nullptr);
}

//===----------------------------------------------------------------------===//
// Page-return policy layer
//===----------------------------------------------------------------------===//

/// Restores the process default on scope exit — the policy is process
/// state shared by every test in the binary.
struct PolicyDefaultsGuard {
  ~PolicyDefaultsGuard() {
    MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
  }
};

TEST(MmapRegionTest, ReleasePageRangeDropsContentsUnderDontNeed) {
  PolicyDefaultsGuard Guard;
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
  const size_t Page = MmapRegion::pageSize();
  MmapRegion R(4 * Page);
  ASSERT_NE(R.base(), nullptr);
  auto *B = static_cast<unsigned char *>(R.base());
  std::memset(B, 0x5C, 4 * Page);

  // Release the two middle pages; the edges keep their bytes.
  EXPECT_EQ(MmapRegion::releasePageRange(B + Page, 2 * Page), 2 * Page);
  EXPECT_EQ(B[0], 0x5Cu);
  EXPECT_EQ(B[4 * Page - 1], 0x5Cu);
  EXPECT_EQ(B[Page], 0u) << "DONTNEED'ed page must refault demand-zero";
  EXPECT_EQ(B[3 * Page - 1], 0u);
  // Still mapped and writable after the refault.
  B[Page] = 0x21;
  EXPECT_EQ(B[Page], 0x21u);
}

TEST(MmapRegionTest, ReleasePageRangeIsInertWhenOff) {
  PolicyDefaultsGuard Guard;
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::Off);
  const size_t Page = MmapRegion::pageSize();
  MmapRegion R(2 * Page);
  ASSERT_NE(R.base(), nullptr);
  auto *B = static_cast<unsigned char *>(R.base());
  std::memset(B, 0x9D, 2 * Page);
  EXPECT_EQ(MmapRegion::releasePageRange(B, 2 * Page), 0u)
      << "off means no advice and 0 bytes reported";
  EXPECT_EQ(B[0], 0x9Du) << "contents must survive untouched";
  EXPECT_EQ(B[2 * Page - 1], 0x9Du);
}

TEST(MmapRegionTest, PolicyOverrideRoundTrips) {
  PolicyDefaultsGuard Guard;
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::Off);
  EXPECT_EQ(MmapRegion::pageReturnPolicy(), PageReturnPolicy::Off);
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
  EXPECT_EQ(MmapRegion::pageReturnPolicy(), PageReturnPolicy::DontNeed);
}

} // namespace
} // namespace diehard
