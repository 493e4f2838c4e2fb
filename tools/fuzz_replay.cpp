//===- tools/fuzz_replay.cpp - corpus replayer / bounded fuzz runner ------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The libFuzzer-free shell around the differential fuzz driver
/// (src/fuzz/FuzzDriver.h). Three modes, composable in one invocation:
///
///   fuzz_replay FILE...                 replay saved inputs / corpus files
///   fuzz_replay --dir DIR               replay every file in DIR (sorted)
///   fuzz_replay --random N [--len L] [--gen-seed S]
///                                       run N deterministically generated
///                                       random inputs of up to L bytes
///   fuzz_replay --emit DIR --budget N   corpus refresh: search N random
///                                       inputs, write a minimal set that
///                                       covers every error class and
///                                       configuration axis into DIR
///
/// Failures print the driver's message and (in --random mode) save the
/// offending input next to the cwd (or --save-failures DIR) so it can be
/// replayed and committed. Exit status is nonzero iff any input failed.
/// Every run is a pure function of (inputs, DIEHARD_SEED, --gen-seed).
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzDriver.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>

using diehard::Rng;
using diehard::fuzz::FuzzResult;
using diehard::fuzz::NumErrorClasses;

namespace {

struct Totals {
  uint64_t Inputs = 0;
  uint64_t Ops = 0;
  uint64_t ModelAllocs = 0;
  uint64_t FailedAllocs = 0;
  uint64_t Injected[NumErrorClasses] = {};
  uint64_t Failures = 0;
};

/// Coverage bitmask of one result, for --emit's greedy corpus selection.
enum CoverageBit {
  // Bits 0..4: the five error classes, by ErrorClass index.
  BitTcache = 5,
  BitSweeper = 6,
  BitSweeperOff = 7, // Guarantees a deterministic replay entry.
  BitOverflowOff = 8,
  BitMultiShard = 9,
  BitWorkers = 10,
  BitRandomFill = 11,
  BitLargeObjects = 12,
  BitSaturation = 13,
  BitRemoteFrees = 14,
  // Config-derived only (never from runtime counters): how many pages a
  // run actually returns depends on sweep timing, and a corpus selected
  // on timing-dependent coverage would not replay to the same bits.
  BitPageReturnOff = 15,
  BitMeshing = 16,
  NumCoverageBits = 17
};

uint32_t coverageOf(const FuzzResult &R) {
  uint32_t Bits = 0;
  for (int C = 0; C < NumErrorClasses; ++C)
    if (R.Injected[C] > 0)
      Bits |= 1u << C;
  if (R.Config.ThreadCacheSlots > 0)
    Bits |= 1u << BitTcache;
  Bits |= 1u << (R.Config.Sweeper ? BitSweeper : BitSweeperOff);
  if (!R.Config.Overflow)
    Bits |= 1u << BitOverflowOff;
  if (R.Config.NumShards > 1)
    Bits |= 1u << BitMultiShard;
  if (R.Config.Workers > 0)
    Bits |= 1u << BitWorkers;
  if (R.Config.RandomFill)
    Bits |= 1u << BitRandomFill;
  if (R.FinalStats.LargeAllocations > 0)
    Bits |= 1u << BitLargeObjects;
  if (R.FailedAllocs > 0)
    Bits |= 1u << BitSaturation;
  if (R.FinalStats.RemoteFrees > 0)
    Bits |= 1u << BitRemoteFrees;
  if (R.Config.PageReturn == diehard::PageReturnPolicy::Off)
    Bits |= 1u << BitPageReturnOff;
  if (R.Config.Meshing)
    Bits |= 1u << BitMeshing;
  return Bits;
}

void fold(Totals &T, const FuzzResult &R) {
  ++T.Inputs;
  T.Ops += R.OpsExecuted;
  T.ModelAllocs += R.ModelAllocs;
  T.FailedAllocs += R.FailedAllocs;
  for (int C = 0; C < NumErrorClasses; ++C)
    T.Injected[C] += R.Injected[C];
  if (!R.Ok)
    ++T.Failures;
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (F == nullptr)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Len = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Out.resize(Len > 0 ? static_cast<size_t>(Len) : 0);
  size_t Read = Out.empty() ? 0 : std::fread(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  return Read == Out.size();
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (F == nullptr)
    return false;
  size_t Wrote =
      Data.empty() ? 0 : std::fwrite(Data.data(), 1, Data.size(), F);
  std::fclose(F);
  return Wrote == Data.size();
}

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  DIR *D = opendir(Dir.c_str());
  if (D == nullptr)
    return Names;
  while (dirent *E = readdir(D)) {
    // Skip dotfiles and the corpus README (FuzzCorpusTest skips it too).
    if (E->d_name[0] == '.' || std::strcmp(E->d_name, "README.md") == 0)
      continue;
    Names.push_back(Dir + "/" + E->d_name);
  }
  closedir(D);
  std::sort(Names.begin(), Names.end()); // Deterministic replay order.
  return Names;
}

/// The deterministic random-input generator shared by --random and
/// --emit: input i of generation seed S is always the same bytes.
std::vector<uint8_t> generateInput(uint64_t GenSeed, uint64_t Index,
                                   size_t MaxLen) {
  Rng R(Rng::deriveStream(GenSeed, Index + 1));
  if (Index % 16 == 7) {
    // Saturation hammer: random byte soup essentially never drives a
    // partition to its 1/M bound (the driver caps live objects and sizes
    // scatter over twelve classes), so every sixteenth input is a crafted
    // storm — strict per-shard bound (overflow off), one shard, the small
    // 8 MB heap, and a run of top-size-class mallocs (16383 bytes). A few
    // dozen of those saturate the 16 KB class and the tail of the run
    // exercises FailedAllocations and the post-saturation recovery paths.
    std::vector<uint8_t> Bytes;
    Bytes.push_back(0x28); // Config: overflow OFF, 8 MB heap, all else off.
    Bytes.push_back(0x00); // One shard, no workers.
    Bytes.push_back(static_cast<uint8_t>(R.next())); // Seed entropy.
    Bytes.push_back(static_cast<uint8_t>(R.next()));
    size_t Ops = 64 + R.nextBounded(64);
    for (size_t I = 0; I < Ops; ++I) {
      Bytes.push_back(0);   // Op: malloc.
      Bytes.push_back(141); // Size: class-boundary mode, 16384 - 1.
      Bytes.push_back(0);
    }
    return Bytes;
  }
  size_t MinLen = 16;
  if (MaxLen < MinLen)
    MaxLen = MinLen;
  size_t Len =
      MinLen + R.nextBounded(static_cast<uint32_t>(MaxLen - MinLen + 1));
  std::vector<uint8_t> Bytes(Len);
  for (size_t I = 0; I < Len; ++I)
    Bytes[I] = static_cast<uint8_t>(R.next());
  return Bytes;
}

void reportFailure(const FuzzResult &R, const std::string &Origin) {
  std::fprintf(stderr, "FAIL %s: %s\n", Origin.c_str(), R.Message.c_str());
  const char *Policy =
      R.Config.PageReturn == diehard::PageReturnPolicy::Off ? "off"
                                                            : "dontneed";
  std::fprintf(stderr,
               "  config: shards=%zu tcache=%zu sweeper=%d/%zums "
               "pagereturn=%s overflow=%d fill=%d workers=%zu heap=%zuMB "
               "seed=%llu\n",
               R.Config.NumShards, R.Config.ThreadCacheSlots,
               R.Config.Sweeper ? 1 : 0,
               R.Config.SweepIntervalMs, Policy, R.Config.Overflow ? 1 : 0,
               R.Config.RandomFill ? 1 : 0, R.Config.Workers,
               R.Config.HeapSize >> 20,
               static_cast<unsigned long long>(R.Config.Seed));
}

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [FILE...] [--dir DIR] [--random N] [--len L]\n"
      "          [--gen-seed S] [--save-failures DIR]\n"
      "          [--emit DIR --budget N] [--quiet]\n"
      "Replays fuzz inputs through the differential heap checker; see\n"
      "docs/USAGE.md (Fuzzing) for the corpus-refresh recipe.\n",
      Argv0);
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Files;
  std::string EmitDir;
  std::string SaveDir = ".";
  uint64_t RandomCount = 0;
  uint64_t EmitBudget = 2000;
  uint64_t GenSeed = 20260808;
  size_t MaxLen = 512;
  bool Quiet = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--dir") {
      std::vector<std::string> Names = listDir(Next());
      Files.insert(Files.end(), Names.begin(), Names.end());
    } else if (Arg == "--random") {
      RandomCount = std::strtoull(Next(), nullptr, 10);
    } else if (Arg == "--len") {
      MaxLen = std::strtoull(Next(), nullptr, 10);
    } else if (Arg == "--gen-seed") {
      GenSeed = std::strtoull(Next(), nullptr, 10);
    } else if (Arg == "--save-failures") {
      SaveDir = Next();
    } else if (Arg == "--emit") {
      EmitDir = Next();
    } else if (Arg == "--budget") {
      EmitBudget = std::strtoull(Next(), nullptr, 10);
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      usage(Argv[0]);
      return 2;
    } else {
      Files.push_back(Arg);
    }
  }
  if (Files.empty() && RandomCount == 0 && EmitDir.empty()) {
    usage(Argv[0]);
    return 2;
  }

  Totals T;

  // --- replay saved inputs -------------------------------------------------
  for (const std::string &Path : Files) {
    std::vector<uint8_t> Bytes;
    if (!readFile(Path, Bytes)) {
      std::fprintf(stderr, "cannot read %s\n", Path.c_str());
      return 2;
    }
    FuzzResult R = diehard::fuzz::runFuzzSequence(
        Bytes.data(), Bytes.size());
    fold(T, R);
    if (!R.Ok)
      reportFailure(R, Path);
    else if (!Quiet)
      std::printf("ok %s: %llu ops, trace %016llx\n", Path.c_str(),
                  static_cast<unsigned long long>(R.OpsExecuted),
                  static_cast<unsigned long long>(R.TraceHash));
  }

  // --- bounded random sweep ------------------------------------------------
  for (uint64_t I = 0; I < RandomCount; ++I) {
    std::vector<uint8_t> Bytes = generateInput(GenSeed, I, MaxLen);
    FuzzResult R = diehard::fuzz::runFuzzSequence(
        Bytes.data(), Bytes.size());
    fold(T, R);
    if (!R.Ok) {
      char Name[64];
      std::snprintf(Name, sizeof(Name), "fuzz_failure_%llu_%06llu.bin",
                    static_cast<unsigned long long>(GenSeed),
                    static_cast<unsigned long long>(I));
      std::string Path = SaveDir + "/" + Name;
      reportFailure(R, "--random input " + std::to_string(I));
      if (writeFile(Path, Bytes))
        std::fprintf(stderr, "  input saved to %s\n", Path.c_str());
    }
  }

  // --- corpus refresh ------------------------------------------------------
  if (!EmitDir.empty()) {
    ::mkdir(EmitDir.c_str(), 0755);
    uint32_t Covered = 0;
    const uint32_t All = (1u << NumCoverageBits) - 1;
    size_t Kept = 0;
    for (uint64_t I = 0; I < EmitBudget && Covered != All; ++I) {
      std::vector<uint8_t> Bytes = generateInput(GenSeed, I, MaxLen);
      FuzzResult R = diehard::fuzz::runFuzzSequence(
          Bytes.data(), Bytes.size());
      fold(T, R);
      if (!R.Ok) {
        reportFailure(R, "--emit input " + std::to_string(I));
        continue; // A failing input is a finding, not a corpus entry.
      }
      uint32_t Bits = coverageOf(R);
      if ((Bits & ~Covered) == 0)
        continue; // Adds nothing new.
      Covered |= Bits;
      char Name[80];
      std::snprintf(Name, sizeof(Name), "seq_%02zu_gen%llu_%06llu.bin",
                    Kept, static_cast<unsigned long long>(GenSeed),
                    static_cast<unsigned long long>(I));
      if (!writeFile(EmitDir + "/" + Name, Bytes)) {
        std::fprintf(stderr, "cannot write %s/%s\n", EmitDir.c_str(), Name);
        return 2;
      }
      ++Kept;
      if (!Quiet)
        std::printf("kept %s (coverage %05x -> %05x)\n", Name,
                    Bits, Covered);
    }
    std::printf("emit: %zu entries, coverage %05x/%05x%s\n", Kept, Covered,
                All, Covered == All ? "" : " (INCOMPLETE)");
  }

  std::printf("inputs=%llu ops=%llu allocs=%llu refused=%llu failures=%llu\n",
              static_cast<unsigned long long>(T.Inputs),
              static_cast<unsigned long long>(T.Ops),
              static_cast<unsigned long long>(T.ModelAllocs),
              static_cast<unsigned long long>(T.FailedAllocs),
              static_cast<unsigned long long>(T.Failures));
  for (int C = 0; C < NumErrorClasses; ++C)
    std::printf("injected %s=%llu\n", diehard::fuzz::errorClassName(C),
                static_cast<unsigned long long>(T.Injected[C]));
  return T.Failures == 0 ? 0 : 1;
}
