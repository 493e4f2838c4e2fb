//===- tests/core/MeshingTest.cpp -----------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for page meshing (DIEHARD_MESH): the sweeper-pass compaction that
/// remaps pairs of sparse pages with disjoint occupancy onto one physical
/// frame. The suite proves the acceptance properties: live objects are
/// byte-identical across a mesh (virtual-address geometry is invariant),
/// free validation — including double-free detection — still works on
/// meshed pages, freed meshed slots are reusable (allocation dissolves the
/// mesh first), frame refcounts keep the span scanner off frames a meshed
/// sibling still reads, and a multi-thread churn-vs-sweeper run is clean
/// under the sanitizer lanes. Scales with DIEHARD_STRESS_ITERS like the
/// sweeper stress tests.
///
//===----------------------------------------------------------------------===//

#include "core/DieHardHeap.h"
#include "core/ShardedHeap.h"
#include "core/SizeClass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace diehard {
namespace {

/// Iteration multiplier for the stress test (see SweeperTest).
int stressMultiplier() {
  const char *V = std::getenv("DIEHARD_STRESS_ITERS");
  if (V == nullptr || *V == '\0')
    return 1;
  long N = std::strtol(V, nullptr, 10);
  return N < 1 ? 1 : (N > 1000 ? 1000 : static_cast<int>(N));
}

constexpr size_t ObjBytes = 64;

/// A lone meshing heap sized so the 64-byte partition spans 256 data pages
/// (1 MiB): room for abundant sparse pages after churn.
DieHardOptions meshOptions(uint64_t Seed = 42) {
  DieHardOptions O;
  O.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  O.Seed = Seed;
  O.Meshing = true;
  return O;
}

/// Deterministic per-object fill pattern (distinct across objects and
/// offsets, so any cross-page smear is caught byte-exactly).
char tagByte(size_t Obj, size_t Offset) {
  return static_cast<char>((Obj * 131 + Offset * 17 + 7) & 0xFF);
}

void tagObject(char *Ptr, size_t Obj) {
  for (size_t I = 0; I < ObjBytes; ++I)
    Ptr[I] = tagByte(Obj, I);
}

::testing::AssertionResult objectIntact(const char *Ptr, size_t Obj) {
  for (size_t I = 0; I < ObjBytes; ++I)
    if (Ptr[I] != tagByte(Obj, I))
      return ::testing::AssertionFailure()
             << "object " << Obj << " corrupted at offset " << I;
  return ::testing::AssertionSuccess();
}

/// Churns the 64-byte class into a fragmentation-heavy state: allocates
/// \p Total objects, frees all but every \p KeepEvery-th, and tags the
/// survivors. Exactly the regime partial page return cannot touch (1-2
/// live objects per page) and meshing exists for.
std::vector<char *> fragment(DieHardHeap &H, size_t Total, size_t KeepEvery) {
  std::vector<char *> All;
  All.reserve(Total);
  for (size_t I = 0; I < Total; ++I) {
    auto *P = static_cast<char *>(H.allocate(ObjBytes));
    EXPECT_NE(P, nullptr);
    All.push_back(P);
  }
  std::vector<char *> Kept;
  for (size_t I = 0; I < All.size(); ++I) {
    if (I % KeepEvery == 0)
      Kept.push_back(All[I]);
    else
      H.deallocate(All[I]);
  }
  for (size_t K = 0; K < Kept.size(); ++K)
    tagObject(Kept[K], K);
  return Kept;
}

/// Two maintain() passes: the first snapshots page occupancy (the
/// quiet-page criterion needs two consecutive identical observations),
/// the second pairs and meshes. Returns pages meshed by the second.
size_t meshTwice(DieHardHeap &H, int Class) {
  H.maintain(Class);
  return H.maintain(Class).PagesMeshed;
}

TEST(MeshingTest, ContentIntegrityAcrossMesh) {
  DieHardHeap H(meshOptions());
  ASSERT_TRUE(H.isValid());
  if (!H.meshingActive())
    GTEST_SKIP() << "no memfd support on this kernel";
  const int C = SizeClass::sizeToClass(ObjBytes);
  std::vector<char *> Kept = fragment(H, 4096, 16);

  size_t Meshed = meshTwice(H, C);
  EXPECT_GT(Meshed, 0u) << "sparse disjoint pages must pair";
  const PartitionStats &PS = H.partition(C).stats();
  EXPECT_EQ(static_cast<uint64_t>(PS.PagesMeshed), Meshed);
  EXPECT_GE(static_cast<uint64_t>(PS.MeshCandidates), Meshed);
  EXPECT_EQ(static_cast<uint64_t>(PS.MeshedBytes),
            Meshed * MmapRegion::pageSize());
  EXPECT_EQ(H.partition(C).meshedPages(), Meshed);

  // Every surviving object reads back byte-identical through its original
  // (unchanged) virtual address — donors now alias survivors' frames.
  for (size_t K = 0; K < Kept.size(); ++K)
    EXPECT_TRUE(objectIntact(Kept[K], K));

  // Writes through meshed pages land correctly and stay isolated.
  for (size_t K = 0; K < Kept.size(); ++K)
    tagObject(Kept[K], K + 1000);
  for (size_t K = 0; K < Kept.size(); ++K)
    EXPECT_TRUE(objectIntact(Kept[K], K + 1000));
}

TEST(MeshingTest, DoubleFreeIntoMeshedPageCaught) {
  DieHardHeap H(meshOptions(43));
  ASSERT_TRUE(H.isValid());
  if (!H.meshingActive())
    GTEST_SKIP() << "no memfd support on this kernel";
  const int C = SizeClass::sizeToClass(ObjBytes);
  std::vector<char *> Kept = fragment(H, 4096, 16);
  ASSERT_GT(meshTwice(H, C), 0u);

  const PartitionStats &PS = H.partition(C).stats();
  uint64_t Frees = PS.Frees, Ignored = PS.IgnoredFrees;
  // A valid free of a meshed-page object validates normally...
  H.deallocate(Kept[0]);
  EXPECT_EQ(static_cast<uint64_t>(PS.Frees), Frees + 1);
  EXPECT_EQ(static_cast<uint64_t>(PS.IgnoredFrees), Ignored);
  // ...and the second free of the same address is caught and ignored:
  // the bitmap is untouched by meshing, so validation sees the truth.
  H.deallocate(Kept[0]);
  EXPECT_EQ(static_cast<uint64_t>(PS.Frees), Frees + 1);
  EXPECT_EQ(static_cast<uint64_t>(PS.IgnoredFrees), Ignored + 1);
  // An interior (misaligned) free into a meshed page is also refused.
  H.deallocate(Kept[1] + 4);
  EXPECT_EQ(static_cast<uint64_t>(PS.IgnoredFrees), Ignored + 2);
  // The neighbours survived all of it.
  for (size_t K = 2; K < Kept.size(); ++K)
    EXPECT_TRUE(objectIntact(Kept[K], K));
}

TEST(MeshingTest, FreedMeshedSlotsValidateAndReuse) {
  DieHardHeap H(meshOptions(44));
  ASSERT_TRUE(H.isValid());
  if (!H.meshingActive())
    GTEST_SKIP() << "no memfd support on this kernel";
  const int C = SizeClass::sizeToClass(ObjBytes);
  std::vector<char *> Kept = fragment(H, 4096, 16);
  ASSERT_GT(meshTwice(H, C), 0u);

  const PartitionStats &PS = H.partition(C).stats();
  uint64_t Frees = PS.Frees, Ignored = PS.IgnoredFrees;
  // Free half the survivors (many live on meshed pages): all validate.
  std::vector<char *> Still;
  for (size_t K = 0; K < Kept.size(); ++K) {
    if (K % 2 == 0) {
      Still.push_back(Kept[K]);
      continue;
    }
    H.deallocate(Kept[K]);
  }
  EXPECT_EQ(static_cast<uint64_t>(PS.Frees),
            Frees + (Kept.size() - Still.size()));
  EXPECT_EQ(static_cast<uint64_t>(PS.IgnoredFrees), Ignored);

  // Reuse: allocation onto a meshed page dissolves the mesh first, so new
  // objects can never corrupt a partner page's live bytes. Fill well past
  // the meshed population and write every new object.
  std::vector<char *> Fresh;
  for (size_t I = 0; I < 2048; ++I) {
    auto *P = static_cast<char *>(H.allocate(ObjBytes));
    ASSERT_NE(P, nullptr);
    tagObject(P, 5000 + I);
    Fresh.push_back(P);
  }
  // Both generations intact: the unmesh rebuilt donor frames correctly
  // and fresh writes stayed on their own pages.
  for (size_t K = 0; K < Still.size(); ++K)
    EXPECT_TRUE(objectIntact(Still[K], 2 * K));
  for (size_t I = 0; I < Fresh.size(); ++I)
    EXPECT_TRUE(objectIntact(Fresh[I], 5000 + I));
}

TEST(MeshingTest, FrameRefcountsSurviveSpanScansUnderEachPolicy) {
  // The span scanner runs with meshed pages present; the frame-refcount
  // skip must keep survivors' frames resident under every page-return
  // policy — a punched survivor frame would zero the donor's objects.
  PageReturnPolicy Old = MmapRegion::pageReturnPolicy();
  for (PageReturnPolicy Policy :
       {PageReturnPolicy::DontNeed, PageReturnPolicy::Off}) {
    MmapRegion::setPageReturnPolicy(Policy);
    DieHardHeap H(meshOptions(45));
    ASSERT_TRUE(H.isValid());
    if (!H.meshingActive()) {
      MmapRegion::setPageReturnPolicy(Old);
      GTEST_SKIP() << "no memfd support on this kernel";
    }
    const int C = SizeClass::sizeToClass(ObjBytes);
    std::vector<char *> Kept = fragment(H, 4096, 16);
    ASSERT_GT(meshTwice(H, C), 0u);

    // Free a few more objects so the next maintain() re-runs the span
    // scanner (free-stamp gating) with the meshes in place.
    for (size_t K = 0; K + 1 < Kept.size(); K += 2)
      H.deallocate(Kept[K]);
    H.maintain(C);
    H.maintain(C);
    for (size_t K = 1; K < Kept.size(); K += 2)
      EXPECT_TRUE(objectIntact(Kept[K], K));
  }
  MmapRegion::setPageReturnPolicy(Old);
}

TEST(MeshingTest, MeshingOffByDefaultAndForcedOffWithRandomFill) {
  DieHardOptions Plain = meshOptions(46);
  Plain.Meshing = false;
  DieHardHeap H1(Plain);
  ASSERT_TRUE(H1.isValid());
  EXPECT_FALSE(H1.meshingActive());

  DieHardOptions Replica = meshOptions(46);
  Replica.RandomFillObjects = true;
  Replica.RandomFillOnFree = true;
  DieHardHeap H2(Replica);
  ASSERT_TRUE(H2.isValid());
  EXPECT_FALSE(H2.meshingActive())
      << "random-fill heaps must refuse meshing";
  const int C = SizeClass::sizeToClass(ObjBytes);
  fragment(H2, 1024, 16);
  EXPECT_EQ(meshTwice(H2, C), 0u);
  EXPECT_EQ(static_cast<uint64_t>(H2.partition(C).stats().PagesMeshed), 0u);
}

TEST(MeshingTest, MeshingChurnStress) {
  // 4 threads churn (allocate, tag, verify, rewrite, free) while the real
  // background sweeper meshes and un-meshes at a 1 ms interval. Run under
  // TSan in the nightly lane; here it is an integrity soak. Long-lived
  // tagged objects are periodically rewritten so writer-vs-mesh-copy
  // collisions actually exercise the write-quiescence guard.
  ShardedHeapOptions O;
  O.Heap.HeapSize = SizeClass::NumClasses * SizeClass::MaxObjectSize * 64;
  O.Heap.Seed = 47;
  O.Heap.Meshing = true;
  O.NumShards = 2;
  O.ThreadCacheSlots = 8;
  O.Sweeper = true;
  O.SweepIntervalMs = 1;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());

  const int Iters = 400 * stressMultiplier();
  constexpr int NumThreads = 4;
  constexpr size_t BatchSize = 256;
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&H, T, Iters] {
      std::vector<char *> Held;
      std::vector<size_t> HeldTag;
      for (int It = 0; It < Iters; ++It) {
        // Fragment: allocate a batch, keep every 8th tagged.
        std::vector<char *> Batch;
        for (size_t I = 0; I < BatchSize; ++I) {
          auto *P = static_cast<char *>(H.allocate(ObjBytes));
          if (P != nullptr)
            Batch.push_back(P);
        }
        for (size_t I = 0; I < Batch.size(); ++I) {
          if (I % 8 == 0) {
            size_t Tag = static_cast<size_t>(T) * 1000003 +
                         static_cast<size_t>(It) * 131 + I;
            tagObject(Batch[I], Tag);
            Held.push_back(Batch[I]);
            HeldTag.push_back(Tag);
          } else {
            H.deallocate(Batch[I]);
          }
        }
        // Verify and rewrite the held set (writes race mesh copies), then
        // trim it so the partitions keep crossing the sweeper's fill gate.
        for (size_t K = 0; K < Held.size(); ++K) {
          ASSERT_TRUE(objectIntact(Held[K], HeldTag[K]));
          HeldTag[K] += 7;
          tagObject(Held[K], HeldTag[K]);
        }
        while (Held.size() > 512) {
          H.deallocate(Held.back());
          Held.pop_back();
          HeldTag.pop_back();
        }
      }
      for (char *P : Held)
        H.deallocate(P);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  // Quiesce and reconcile: drains + flushes leave the books exact.
  H.flushThreadCache();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.IgnoredFrees, 0u) << "churn never double-frees";
}

} // namespace
} // namespace diehard
