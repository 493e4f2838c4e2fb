//===- fuzz/FuzzDriver.h - differential API fuzzing core --------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversarial-fuzzing core: decodes an arbitrary byte string into a
/// ShardedHeap configuration plus a malloc/calloc/realloc/memalign/free
/// operation sequence — including deliberately injected errors (double
/// frees, invalid frees, misaligned frees, cross-thread double frees
/// through spawned worker threads, and wild reallocs) — and executes it
/// differentially against a reference heap model.
///
/// The reference model is the paper's correctness contract made executable:
/// a map of live [base, base + size) ranges with deterministic content
/// patterns. After every operation the driver checks that allocations do
/// not overlap live ranges, satisfy alignment and usable-size contracts,
/// and land inside a shard; that live objects' contents round-trip
/// unchanged (so an injected error provably corrupted nothing); that no
/// partition exceeds its 1/M bound; and — at forced quiescence — that
/// every injected error was rejected *and counted* exactly once
/// (IgnoredFrees / ReallocRejects), that Allocations == Frees, that no
/// cached slots leaked, and that the locked and lock-free stats
/// aggregations agree. Section 3's probabilistic-safety argument only
/// covers callers the allocator *detects*; this harness searches for
/// caller behaviours where detection or containment fails.
///
/// The same driver core backs three shells: the libFuzzer entry point
/// (FuzzEntry.cpp, behind DIEHARD_BUILD_FUZZERS), the bounded
/// random-sequence runner and corpus replayer (tools/fuzz_replay.cpp), and
/// the tier-1 committed-corpus regression suite (tests/fuzz/).
///
/// Determinism contract: a run is a pure function of (input bytes, base
/// seed). Worker threads execute commands synchronously (the driver blocks
/// until the worker finishes), worker home shards are pinned via
/// ShardedHeap::pinThreadToken rather than taken from the process-global
/// round-robin, and a zero seed is remapped before it can select true
/// randomness. Configurations with the background sweeper enabled are the
/// one exception — sweep timing perturbs *which* path materializes a free
/// (never the totals) — and report deterministic() == false so replay
/// comparisons can skip them.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_FUZZ_FUZZDRIVER_H
#define DIEHARD_FUZZ_FUZZDRIVER_H

#include "core/DieHardHeap.h"
#include "support/MmapRegion.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace diehard {
namespace fuzz {

/// The injected error classes the acceptance criteria enumerate. Indexes
/// FuzzResult::Injected.
enum ErrorClass {
  DoubleFree = 0,          ///< free(p) twice, same thread, back to back.
  InvalidFree = 1,         ///< free of a dead slot / unowned address.
  MisalignedFree = 2,      ///< free of live object base + k, k in 1..7.
  CrossThreadDoubleFree = 3, ///< both frees on worker threads.
  WildRealloc = 4,         ///< realloc of a pointer the heap never issued.
  NumErrorClasses = 5
};

/// Human-readable name of \p Class ("double_free", ...).
const char *errorClassName(int Class);

/// The heap configuration decoded from an input's leading bytes. Exposed
/// so shells can report which axes a corpus covers.
struct FuzzConfig {
  size_t NumShards = 1;        ///< 1..4.
  size_t ThreadCacheSlots = 0; ///< 0 (tier off) or 8 (DIEHARD_TCACHE).
  bool Sweeper = false;        ///< DIEHARD_SWEEPER.
  size_t SweepIntervalMs = 2;  ///< Sweep epoch length, 1..16 ms.
  /// DIEHARD_PAGE_RETURN for the run. Off must leave every
  /// differential check untouched: page return only ever drops pages no
  /// live object overlaps, so the policy is pure footprint, never
  /// placement or content.
  PageReturnPolicy PageReturn = PageReturnPolicy::DontNeed;
  bool Overflow = true;        ///< DIEHARD_OVERFLOW.
  bool RandomFill = false;     ///< Replica-style object fill.
  /// DIEHARD_MESH for the run (forced off with RandomFill, like the
  /// shim). Meshing must leave every differential check untouched: pair
  /// remaps only change which physical frame backs a virtual page, never
  /// placement, contents, or validation outcomes.
  bool Meshing = false;
  size_t HeapSize = 0;         ///< Per-shard reservation bytes.
  size_t Workers = 0;          ///< Spawned worker threads, 0..3.
  uint64_t Seed = 0;           ///< Resolved heap seed (never 0).

  /// True when two runs of the same input must produce identical stats
  /// and placement traces: everything except sweeper configurations
  /// (whose background timing moves counts between equivalent paths).
  bool deterministic() const { return !Sweeper; }
};

/// Outcome of one driven sequence.
struct FuzzResult {
  bool Ok = true;       ///< False iff a differential check failed.
  std::string Message;  ///< First failure, with the op index; empty if Ok.
  FuzzConfig Config;    ///< The decoded configuration.
  uint64_t OpsExecuted = 0; ///< Decoded operations actually performed.
  uint64_t ModelAllocs = 0; ///< Successful allocations the model tracked.
  uint64_t FailedAllocs = 0; ///< Allocations the heap refused (saturation).
  uint64_t Injected[NumErrorClasses] = {}; ///< Errors injected, per class.
  /// FNV-1a hash of the placement trace: (op index, shard-relative offset)
  /// for every small allocation. Two replays of a deterministic() config
  /// must produce equal hashes — this is the satellite determinism check's
  /// strong signal, independent of ASLR (large objects hash their sizes,
  /// not their mmap addresses).
  uint64_t TraceHash = 1469598103934665603ULL;
  /// Locked stats() at forced quiescence (before teardown). Meaningful
  /// only when Ok.
  DieHardStats FinalStats;
};

/// The base seed replays combine with per-input entropy bytes:
/// DIEHARD_SEED when set and nonzero, else a fixed default. (input bytes,
/// base seed) is the complete replay key.
uint64_t fuzzBaseSeed();

/// Decodes only the configuration header of \p Data (zero bytes decode to
/// the all-defaults config). Cheap; never touches a heap.
FuzzConfig decodeFuzzConfig(const uint8_t *Data, size_t Size,
                            uint64_t BaseSeed);

/// Runs one full differential sequence: decode, execute against a fresh
/// ShardedHeap + reference model, force quiescence, audit the books.
/// Never throws, never crashes on any input — a non-Ok result (or a
/// sanitizer report) is a finding.
FuzzResult runFuzzSequence(const uint8_t *Data, size_t Size,
                           uint64_t BaseSeed);

/// Convenience overload using fuzzBaseSeed().
FuzzResult runFuzzSequence(const uint8_t *Data, size_t Size);

} // namespace fuzz
} // namespace diehard

#endif // DIEHARD_FUZZ_FUZZDRIVER_H
