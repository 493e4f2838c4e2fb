//===- tests/integration/DifferentialTest.cpp -----------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential property testing: every allocator in the repository is
/// driven through long random allocate/write/read/free schedules against a
/// reference model (a map of live objects with shadow copies of their
/// contents). Any lost write, overlapping placement, premature reuse, or
/// bookkeeping drift shows up as a divergence from the model.
///
//===----------------------------------------------------------------------===//

#include "baselines/DieHardAllocator.h"
#include "baselines/GcAllocator.h"
#include "baselines/LeaAllocator.h"
#include "baselines/SelectiveAllocator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

namespace diehard {
namespace {

/// Shadow model: live object -> exact expected contents.
class ShadowModel {
public:
  void onAllocate(void *Ptr, size_t Size, Rng &Rand) {
    ASSERT_NE(Ptr, nullptr);
    std::vector<uint8_t> Bytes(Size);
    for (auto &B : Bytes)
      B = static_cast<uint8_t>(Rand.next());
    std::memcpy(Ptr, Bytes.data(), Size);
    auto [It, Inserted] = Objects.emplace(
        Ptr, std::move(Bytes));
    ASSERT_TRUE(Inserted) << "allocator returned a live pointer twice";
    // No overlap with any other live object.
    auto Overlaps = [&](const std::pair<void *const, std::vector<uint8_t>>
                            &Other) {
      auto *A = static_cast<const char *>(Ptr);
      auto *B = static_cast<const char *>(Other.first);
      return A < B + Other.second.size() && B < A + Size;
    };
    auto Next = std::next(It);
    if (It != Objects.begin()) {
      ASSERT_FALSE(Overlaps(*std::prev(It))) << "overlap with predecessor";
    }
    if (Next != Objects.end()) {
      ASSERT_FALSE(Overlaps(*Next)) << "overlap with successor";
    }
  }

  void mutate(Rng &Rand) {
    if (Objects.empty())
      return;
    auto It = Objects.begin();
    std::advance(It, Rand.nextBounded(
                         static_cast<uint32_t>(Objects.size())));
    size_t Offset = Rand.nextBounded(
        static_cast<uint32_t>(It->second.size()));
    uint8_t Value = static_cast<uint8_t>(Rand.next());
    It->second[Offset] = Value;
    static_cast<uint8_t *>(It->first)[Offset] = Value;
  }

  void verifyOne(Rng &Rand) const {
    if (Objects.empty())
      return;
    auto It = Objects.begin();
    std::advance(It, Rand.nextBounded(
                         static_cast<uint32_t>(Objects.size())));
    const auto *Actual = static_cast<const uint8_t *>(It->first);
    for (size_t B = 0; B < It->second.size(); ++B)
      ASSERT_EQ(Actual[B], It->second[B])
          << "lost write at byte " << B << " of a " << It->second.size()
          << "-byte object";
  }

  void *pickVictim(Rng &Rand) {
    if (Objects.empty())
      return nullptr;
    auto It = Objects.begin();
    std::advance(It, Rand.nextBounded(
                         static_cast<uint32_t>(Objects.size())));
    return It->first;
  }

  void onFree(void *Ptr) {
    // Final content check before release.
    auto It = Objects.find(Ptr);
    ASSERT_NE(It, Objects.end());
    const auto *Actual = static_cast<const uint8_t *>(Ptr);
    for (size_t B = 0; B < It->second.size(); ++B)
      ASSERT_EQ(Actual[B], It->second[B]) << "corrupted before free";
    Objects.erase(It);
  }

  size_t liveCount() const { return Objects.size(); }

  /// Any live object, for draining the model at end of schedule.
  void *anyLive() const {
    return Objects.empty() ? nullptr : Objects.begin()->first;
  }

private:
  std::map<void *, std::vector<uint8_t>> Objects;
};

void runDifferential(Allocator &Target, uint64_t Seed, int Steps,
                     size_t MaxSize) {
  Rng Rand(Seed);
  ShadowModel Model;
  // Collectors must see the shadow model's pointers — register a mirror
  // array that we keep in sync (cheap: re-registered root each epoch is
  // not needed since GC reads it during collect only).
  std::vector<void *> RootMirror;
  RootMirror.reserve(4096);
  Target.registerRootRange(RootMirror.data(), 4096 * sizeof(void *));
  std::map<void *, size_t> RootIndex;

  auto addRoot = [&](void *P) {
    RootIndex[P] = RootMirror.size();
    RootMirror.push_back(P);
  };
  auto dropRoot = [&](void *P) {
    size_t I = RootIndex[P];
    RootIndex.erase(P);
    if (I + 1 != RootMirror.size()) {
      RootMirror[I] = RootMirror.back();
      RootIndex[RootMirror[I]] = I;
    }
    RootMirror.pop_back();
  };

  for (int Step = 0; Step < Steps; ++Step) {
    uint32_t Op = Rand.nextBounded(100);
    if (Op < 40 || Model.liveCount() == 0) {
      if (Model.liveCount() >= 4000)
        continue;
      size_t Size = 1 + Rand.nextBounded(static_cast<uint32_t>(MaxSize));
      void *P = Target.allocate(Size);
      if (P == nullptr)
        continue;
      Model.onAllocate(P, Size, Rand);
      addRoot(P);
      if (::testing::Test::HasFatalFailure())
        return;
    } else if (Op < 60) {
      Model.mutate(Rand);
    } else if (Op < 85) {
      Model.verifyOne(Rand);
      if (::testing::Test::HasFatalFailure())
        return;
    } else {
      void *Victim = Model.pickVictim(Rand);
      if (Victim == nullptr)
        continue;
      Model.onFree(Victim);
      if (::testing::Test::HasFatalFailure())
        return;
      dropRoot(Victim);
      Target.deallocate(Victim);
    }
  }
  // Drain every object still live so allocators with no reclaiming
  // destructor (notably the system malloc) end the schedule leak-free.
  while (void *P = Model.anyLive()) {
    Model.onFree(P);
    if (::testing::Test::HasFatalFailure())
      return;
    dropRoot(P);
    Target.deallocate(P);
  }
  Target.unregisterRootRange(RootMirror.data());
}

struct DifferentialCase {
  const char *Name;
  std::function<std::unique_ptr<Allocator>()> Make;
  size_t MaxSize;
};

/// Prints a case as its name. GoogleTest's fallback dumps the raw bytes,
/// which include std::function's pointers, so the listed names of the
/// parameterized tests would change with every process's address layout.
void PrintTo(const DifferentialCase &Case, std::ostream *OS) {
  *OS << Case.Name;
}

class AllocatorDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(AllocatorDifferential, LongRandomScheduleMatchesModel) {
  const DifferentialCase &Case = GetParam();
  for (uint64_t Seed : {1u, 2u, 3u}) {
    auto Target = Case.Make();
    runDifferential(*Target, Seed, 30000, Case.MaxSize);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

DieHardOptions diffHeapOptions() {
  DieHardOptions O;
  O.HeapSize = 192 * 1024 * 1024;
  O.Seed = 0xD1FF;
  return O;
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorDifferential,
    ::testing::Values(
        DifferentialCase{"diehard",
                         [] {
                           return std::make_unique<DieHardAllocator>(
                               diffHeapOptions());
                         },
                         8192},
        DifferentialCase{"diehard_random_fill",
                         [] {
                           DieHardOptions O = diffHeapOptions();
                           O.RandomFillObjects = true;
                           O.RandomFillOnFree = true;
                           return std::make_unique<DieHardAllocator>(O);
                         },
                         4096},
        DifferentialCase{"diehard_large_objects",
                         [] {
                           return std::make_unique<DieHardAllocator>(
                               diffHeapOptions());
                         },
                         48 * 1024},
        DifferentialCase{"diehard_fixed",
                         [] {
                           DieHardOptions O = diffHeapOptions();
                           O.InitialActiveSlots = 0;
                           return std::make_unique<DieHardAllocator>(O);
                         },
                         8192},
        DifferentialCase{"lea",
                         [] {
                           return std::make_unique<LeaAllocator>(
                               size_t(256) << 20);
                         },
                         8192},
        DifferentialCase{"gc",
                         [] {
                           return std::make_unique<GcAllocator>(
                               size_t(512) << 20, 32 << 20);
                         },
                         4096},
        DifferentialCase{"selective",
                         [] {
                           return std::make_unique<SelectiveAllocator>(
                               0x3F, diffHeapOptions());
                         },
                         8192},
        DifferentialCase{"system",
                         [] { return std::make_unique<SystemAllocator>(); },
                         8192}),
    [](const auto &Info) { return std::string(Info.param.Name); });

} // namespace
} // namespace diehard
