//===- tests/fuzz/FuzzCorpusTest.cpp --------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier-1 regression replay of the committed fuzz corpus
/// (tests/fuzz/corpus/, path injected as DIEHARD_FUZZ_CORPUS_DIR). Every
/// input runs through the full differential driver — decoded heap
/// configuration, injected error classes, reference-model checks, forced
/// quiescence audit — and must come back clean. The corpus is curated for
/// coverage (tools/fuzz_replay --emit), so the suite also asserts the
/// aggregate exercises all five injected error classes and both the cached
/// and uncached configurations; a corpus refresh that loses coverage fails
/// here, not silently in the nightly job.
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzDriver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <dirent.h>

namespace diehard {
namespace fuzz {
namespace {

#ifndef DIEHARD_FUZZ_CORPUS_DIR
#error "DIEHARD_FUZZ_CORPUS_DIR must be defined by the build"
#endif

/// Sorted list of regular files in the corpus directory.
std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  DIR *D = ::opendir(DIEHARD_FUZZ_CORPUS_DIR);
  if (D == nullptr)
    return Files;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == ".." || Name == "README.md")
      continue;
    Files.push_back(std::string(DIEHARD_FUZZ_CORPUS_DIR) + "/" + Name);
  }
  ::closedir(D);
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (F == nullptr)
    return Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

TEST(FuzzCorpusTest, EveryCommittedInputReplaysClean) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_FALSE(Files.empty())
      << "no corpus at " << DIEHARD_FUZZ_CORPUS_DIR
      << " — regenerate with: fuzz_replay --emit tests/fuzz/corpus";

  uint64_t Injected[NumErrorClasses] = {};
  uint64_t TotalOps = 0;
  bool SawCached = false, SawUncached = false, SawMultiShard = false;
  bool SawWorkers = false;
  bool SawPageReturnOff = false;

  for (const std::string &Path : Files) {
    std::vector<uint8_t> Bytes = readFile(Path);
    ASSERT_FALSE(Bytes.empty()) << Path;
    FuzzResult R = runFuzzSequence(Bytes.data(), Bytes.size());
    EXPECT_TRUE(R.Ok) << Path << ": " << R.Message;
    TotalOps += R.OpsExecuted;
    for (int C = 0; C < NumErrorClasses; ++C)
      Injected[C] += R.Injected[C];
    (R.Config.ThreadCacheSlots != 0 ? SawCached : SawUncached) = true;
    SawMultiShard = SawMultiShard || R.Config.NumShards > 1;
    SawWorkers = SawWorkers || R.Config.Workers > 0;
    SawPageReturnOff =
        SawPageReturnOff || R.Config.PageReturn == PageReturnPolicy::Off;
  }

  EXPECT_GT(TotalOps, 0u);
  for (int C = 0; C < NumErrorClasses; ++C)
    EXPECT_GT(Injected[C], 0u)
        << "corpus never injects " << errorClassName(C)
        << " — coverage regressed; refresh with fuzz_replay --emit";
  EXPECT_TRUE(SawCached) << "corpus never enables the thread-cache tier";
  EXPECT_TRUE(SawUncached) << "corpus never runs the locked paths";
  EXPECT_TRUE(SawMultiShard) << "corpus never runs multiple shards";
  EXPECT_TRUE(SawWorkers) << "corpus never spawns cross-thread workers";
  EXPECT_TRUE(SawPageReturnOff)
      << "corpus never selects DIEHARD_PAGE_RETURN=off";
}

TEST(FuzzCorpusTest, DeterministicInputsReplayBitIdentically) {
  // The satellite determinism contract: (input bytes, base seed) is the
  // complete replay key for every non-sweeper configuration — two runs
  // must agree on the placement trace hash and the final books, not just
  // on pass/fail.
  std::vector<std::string> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());

  size_t Compared = 0;
  for (const std::string &Path : Files) {
    std::vector<uint8_t> Bytes = readFile(Path);
    FuzzResult A = runFuzzSequence(Bytes.data(), Bytes.size());
    ASSERT_TRUE(A.Ok) << Path << ": " << A.Message;
    if (!A.Config.deterministic())
      continue;
    FuzzResult B = runFuzzSequence(Bytes.data(), Bytes.size());
    ASSERT_TRUE(B.Ok) << Path << ": " << B.Message;
    EXPECT_EQ(A.TraceHash, B.TraceHash) << Path;
    EXPECT_EQ(A.OpsExecuted, B.OpsExecuted) << Path;
    EXPECT_EQ(A.ModelAllocs, B.ModelAllocs) << Path;
    EXPECT_EQ(A.FailedAllocs, B.FailedAllocs) << Path;
    EXPECT_EQ(A.FinalStats.Allocations, B.FinalStats.Allocations) << Path;
    EXPECT_EQ(A.FinalStats.Frees, B.FinalStats.Frees) << Path;
    EXPECT_EQ(A.FinalStats.IgnoredFrees, B.FinalStats.IgnoredFrees) << Path;
    EXPECT_EQ(A.FinalStats.ReallocRejects, B.FinalStats.ReallocRejects)
        << Path;
    for (int C = 0; C < NumErrorClasses; ++C)
      EXPECT_EQ(A.Injected[C], B.Injected[C]) << Path;
    ++Compared;
  }
  EXPECT_GT(Compared, 0u)
      << "corpus has no deterministic (sweeper-off) entry to compare";
}

TEST(FuzzCorpusTest, DifferentSeedsStillPassDifferentially) {
  // Randomized placement must never change the oracle verdict: the same
  // inputs replayed under a different base seed see different layouts but
  // identical bookkeeping outcomes.
  std::vector<std::string> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  size_t Checked = 0;
  for (const std::string &Path : Files) {
    if (Checked == 4) // A few inputs suffice; the nightly sweeps more.
      break;
    std::vector<uint8_t> Bytes = readFile(Path);
    FuzzResult R =
        runFuzzSequence(Bytes.data(), Bytes.size(), /*BaseSeed=*/0xA5A5F00D);
    EXPECT_TRUE(R.Ok) << Path << " under alternate seed: " << R.Message;
    ++Checked;
  }
}

TEST(FuzzCorpusTest, DegenerateInputsAreSafe) {
  // The decoder must make *every* byte string a valid (possibly empty)
  // sequence: null, empty, and sub-header inputs run and audit clean.
  FuzzResult Empty = runFuzzSequence(nullptr, 0);
  EXPECT_TRUE(Empty.Ok) << Empty.Message;
  EXPECT_EQ(Empty.OpsExecuted, 0u);

  for (size_t Len = 1; Len <= 8; ++Len) {
    std::vector<uint8_t> Tiny(Len, 0xFF);
    FuzzResult R = runFuzzSequence(Tiny.data(), Tiny.size());
    EXPECT_TRUE(R.Ok) << "len " << Len << ": " << R.Message;
  }

  // All-zero and all-0x55 payloads long enough to decode real ops.
  std::vector<uint8_t> Zeros(256, 0);
  EXPECT_TRUE(runFuzzSequence(Zeros.data(), Zeros.size()).Ok);
  std::vector<uint8_t> Fives(256, 0x55);
  EXPECT_TRUE(runFuzzSequence(Fives.data(), Fives.size()).Ok);
}

} // namespace
} // namespace fuzz
} // namespace diehard
