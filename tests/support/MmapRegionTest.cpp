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

//===----------------------------------------------------------------------===//
// Meshable (memfd-backed) mode
//===----------------------------------------------------------------------===//

/// Maps a small meshable region or skips the test on kernels without
/// memfd_create. Every page is pre-touched with a distinct byte so remaps
/// are observable by content.
bool mapMeshableOrSkip(MmapRegion &R, size_t Pages) {
  const size_t Page = MmapRegion::pageSize();
  if (!R.mapMeshable(Pages * Page))
    return false;
  auto *B = static_cast<unsigned char *>(R.base());
  for (size_t P = 0; P < Pages; ++P)
    std::memset(B + P * Page, 0x10 + static_cast<int>(P), Page);
  return true;
}

TEST(MmapRegionTest, MeshableMapsLikePrivate) {
  MmapRegion R;
  const size_t Page = MmapRegion::pageSize();
  if (!R.mapMeshable(4 * Page))
    GTEST_SKIP() << "no memfd support on this kernel";
  EXPECT_TRUE(R.meshable());
  EXPECT_EQ(R.numPages(), 4u);
  EXPECT_EQ(R.size(), 4 * Page);
  auto *B = static_cast<unsigned char *>(R.base());
  for (size_t I = 0; I < 4 * Page; I += 511)
    EXPECT_EQ(B[I], 0u) << "meshable pages are demand-zero";
  std::memset(B, 0xC7, 4 * Page);
  EXPECT_EQ(B[4 * Page - 1], 0xC7u);
  // A plain region reports not-meshable.
  MmapRegion Plain(Page);
  EXPECT_FALSE(Plain.meshable());
  EXPECT_EQ(Plain.numPages(), 0u);
}

TEST(MmapRegionTest, RemapAliasesFrameAndIsIdempotent) {
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 4))
    GTEST_SKIP() << "no memfd support on this kernel";
  const size_t Page = MmapRegion::pageSize();
  auto *B = static_cast<unsigned char *>(R.base());

  ASSERT_TRUE(R.remapPageTo(2, 0));
  EXPECT_EQ(R.meshTargetOf(2), 0u);
  EXPECT_EQ(R.frameRefs(0), 1u);
  EXPECT_TRUE(R.pageMeshed(2));
  EXPECT_TRUE(R.pageMeshed(0));
  EXPECT_FALSE(R.pageMeshed(1));
  // Page 2's virtual address now reads frame 0's content, and a write
  // through either address is visible through both (one frame).
  EXPECT_EQ(B[2 * Page], 0x10u);
  B[2 * Page + 5] = 0xEE;
  EXPECT_EQ(B[5], 0xEEu);

  // Idempotent: re-remapping onto the current target is a cheap yes.
  EXPECT_TRUE(R.remapPageTo(2, 0));
  EXPECT_EQ(R.frameRefs(0), 1u) << "idempotent remap must not re-count";
}

TEST(MmapRegionTest, RemapEnforcesStrictlyPairwiseMeshing) {
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 4))
    GTEST_SKIP() << "no memfd support on this kernel";
  ASSERT_TRUE(R.remapPageTo(2, 0));
  // A page that has been remapped away may not re-target elsewhere...
  EXPECT_FALSE(R.remapPageTo(2, 1));
  // ...no one may mesh onto a donor whose own page is remapped away...
  EXPECT_FALSE(R.remapPageTo(3, 2));
  // ...and a survivor hosting a sibling may not itself donate.
  EXPECT_FALSE(R.remapPageTo(0, 1));
  // An untouched pair still pairs.
  EXPECT_TRUE(R.remapPageTo(3, 1));
  EXPECT_EQ(R.frameRefs(1), 1u);
}

TEST(MmapRegionTest, UnmeshRestoresIdentityAndRefaultsZero) {
  PolicyDefaultsGuard Guard;
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 4))
    GTEST_SKIP() << "no memfd support on this kernel";
  const size_t Page = MmapRegion::pageSize();
  auto *B = static_cast<unsigned char *>(R.base());
  ASSERT_TRUE(R.remapPageTo(2, 0));
  // Identity restore: the remap away punched page 2's own frame, so the
  // refault after unmesh reads zero — page-return semantics, by design.
  ASSERT_TRUE(R.remapPageTo(2, 2));
  EXPECT_FALSE(R.pageMeshed(2));
  EXPECT_FALSE(R.pageMeshed(0));
  EXPECT_EQ(R.frameRefs(0), 0u);
  EXPECT_EQ(R.meshTargetOf(2), 2u);
  EXPECT_EQ(B[2 * Page], 0u) << "donor frame was punched; refault is zero";
  EXPECT_EQ(B[0], 0x10u) << "survivor frame is untouched by the unmesh";
  // The restored page is independent flesh again: writes stay local.
  B[2 * Page] = 0x77;
  EXPECT_EQ(B[0], 0x10u);
  // Identity restore of an identity page is a no-op success.
  EXPECT_TRUE(R.remapPageTo(1, 1));
}

TEST(MmapRegionTest, FrameScratchRebuildsAPunchedFrame) {
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 4))
    GTEST_SKIP() << "no memfd support on this kernel";
  const size_t Page = MmapRegion::pageSize();
  auto *B = static_cast<unsigned char *>(R.base());
  ASSERT_TRUE(R.remapPageTo(2, 0));
  // The unmesh discipline: write the donor's bytes into its own (punched)
  // frame through a scratch mapping, then restore identity — the page
  // then reads the rebuilt content, not zero.
  void *Scratch = R.mapFrameScratch(2);
  ASSERT_NE(Scratch, nullptr);
  std::memset(Scratch, 0x5A, Page);
  MmapRegion::unmapFrameScratch(Scratch);
  ASSERT_TRUE(R.remapPageTo(2, 2));
  EXPECT_EQ(B[2 * Page], 0x5Au);
  EXPECT_EQ(B[2 * Page + Page - 1], 0x5Au);
  EXPECT_EQ(B[0], 0x10u);
}

TEST(MmapRegionTest, ReleasePagesSkipsMeshedFramesUnderEveryPolicy) {
  PolicyDefaultsGuard Guard;
  {
    MmapRegion::setPageReturnPolicy(PageReturnPolicy::DontNeed);
    MmapRegion R;
    if (!mapMeshableOrSkip(R, 4))
      GTEST_SKIP() << "no memfd support on this kernel";
    const size_t Page = MmapRegion::pageSize();
    auto *B = static_cast<unsigned char *>(R.base());
    ASSERT_TRUE(R.remapPageTo(2, 0));
    B[5] = 0xAD; // Shared frame content, read via both page 0 and page 2.
    // A release sweep across all four pages must leave the meshed pair's
    // frame alone (refcounted) and reclaim only the unmeshed pages.
    size_t Released = R.releasePages(0, 4);
    EXPECT_EQ(Released, 2 * Page)
        << "exactly the two unmeshed pages reclaim";
    EXPECT_EQ(B[5], 0xADu) << "survivor frame must stay intact";
    EXPECT_EQ(B[2 * Page + 5], 0xADu) << "donor still reads through mesh";
    EXPECT_EQ(B[1 * Page], 0u) << "unmeshed page reclaimed to zero";
    EXPECT_EQ(B[3 * Page], 0u);
  }
  // Off: nothing reclaims, meshed or not.
  MmapRegion::setPageReturnPolicy(PageReturnPolicy::Off);
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 2))
    GTEST_SKIP() << "no memfd support on this kernel";
  EXPECT_EQ(R.releasePages(0, 2), 0u);
  EXPECT_EQ(static_cast<unsigned char *>(R.base())[0], 0x10u);
}

TEST(MmapRegionTest, MeshGuardSerializesAndRestoresAccess) {
  MmapRegion R;
  if (!mapMeshableOrSkip(R, 2))
    GTEST_SKIP() << "no memfd support on this kernel";
  auto *B = static_cast<unsigned char *>(R.base());
  ASSERT_TRUE(MmapRegion::beginMeshGuard(B));
  // One guard process-wide: a second begin fails (its caller aborts the
  // pair and retries on a later pass).
  EXPECT_FALSE(MmapRegion::beginMeshGuard(B));
  // Reads of the guarded page are legal during the copy.
  EXPECT_EQ(B[0], 0x10u);
  MmapRegion::abortMeshGuard(B);
  // The abort restored write access; writes proceed normally.
  B[0] = 0x99;
  EXPECT_EQ(B[0], 0x99u);
  // The guard is free again.
  ASSERT_TRUE(MmapRegion::beginMeshGuard(B));
  MmapRegion::endMeshGuard();
  // endMeshGuard leaves protection alone (the remap normally restores
  // it); re-arm and abort to restore writability for the region teardown.
  ASSERT_TRUE(MmapRegion::beginMeshGuard(B));
  MmapRegion::abortMeshGuard(B);
  B[1] = 0x42;
  EXPECT_EQ(B[1], 0x42u);
}

} // namespace
} // namespace diehard
