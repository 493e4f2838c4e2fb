//===- support/Rng.h - Marsaglia multiply-with-carry RNG --------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fast, high-quality pseudo-random number generator based on Marsaglia's
/// multiply-with-carry algorithm, the generator the DieHard paper uses inside
/// its allocator (Section 4.1). The generator is deliberately tiny so it can
/// be inlined into the allocation fast path.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_SUPPORT_RNG_H
#define DIEHARD_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace diehard {

/// Marsaglia's multiply-with-carry pseudo-random number generator.
///
/// Two 32-bit MWC streams are combined into one 32-bit output per call,
/// following the classic MWC construction posted by Marsaglia (1994). The
/// state is four 32-bit words; the period is about 2^60.
class Rng {
public:
  /// Stream-derivation gamma for the *shard* axis: shard i of a sharded heap
  /// seeds its generator with deriveStream(Seed, i, ShardStreamGamma), so
  /// stream 0 is the base seed verbatim (single-shard configurations stay
  /// bit-identical to an unsharded heap).
  static constexpr uint64_t ShardStreamGamma = 0x9E3779B97F4A7C15ULL;

  /// Stream-derivation gamma for the *size-class* axis. Deliberately a
  /// different odd constant than the shard gamma so that partition c of
  /// shard s never lands on the same stream as partition c' of shard s'
  /// (equal streams would require a multiple of one gamma to equal a
  /// multiple of the other modulo 2^64).
  static constexpr uint64_t ClassStreamGamma = 0xC2B2AE3D27D4EB4FULL;

  /// Derives the seed for decorrelated stream \p Stream of a generator
  /// family rooted at \p Seed. The per-axis \p Gamma keeps orthogonal
  /// families (shards vs. size-class partitions) off each other's streams;
  /// setSeed()'s SplitMix finalizer then turns the arithmetic progression
  /// into unrelated state. Stream 0 returns \p Seed unchanged.
  static constexpr uint64_t deriveStream(uint64_t Seed, uint64_t Stream,
                                         uint64_t Gamma = ShardStreamGamma) {
    return Seed + Stream * Gamma;
  }

  /// Constructs a generator seeded with \p Seed. A zero seed is remapped to a
  /// fixed non-zero constant because an all-zero MWC state is a fixed point.
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ULL) { setSeed(Seed); }

  /// Re-seeds the generator. Splits \p Seed into the two MWC lanes and mixes
  /// it so that nearby seeds produce unrelated streams.
  void setSeed(uint64_t Seed) {
    // SplitMix64-style finalizer to decorrelate adjacent seeds.
    uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    Z = Z ^ (Z >> 31);
    Hi = static_cast<uint32_t>(Z >> 32);
    Lo = static_cast<uint32_t>(Z);
    if (Hi == 0)
      Hi = 0x9068FFFFU;
    if (Lo == 0)
      Lo = 0x464FFFFFU;
  }

  /// Returns the next 32 bits of the stream.
  uint32_t next() {
    // Marsaglia MWC: each lane is x = a*(x&0xffff) + (x>>16); the two lanes
    // are concatenated to yield one 32-bit result.
    Hi = 36969 * (Hi & 0xFFFF) + (Hi >> 16);
    Lo = 18000 * (Lo & 0xFFFF) + (Lo >> 16);
    return (Hi << 16) + (Lo & 0xFFFF);
  }

  /// Returns the next 64 bits of the stream.
  uint64_t next64() {
    uint64_t High = next();
    return (High << 32) | next();
  }

  /// Returns a uniformly distributed value in [0, \p Bound).
  ///
  /// Uses Lemire's multiply-shift reduction without its rejection step: one
  /// multiply, no division, so it stays on the allocation fast path. Like
  /// `next() % Bound`, it is not exactly uniform when \p Bound does not
  /// divide 2^32: each value's probability is off from 1/Bound by less
  /// than 1/2^32, a relative bias of at most Bound/2^32.
  uint32_t nextBounded(uint32_t Bound) {
    assert(Bound > 0 && "bound must be positive");
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(next()) * Bound) >> 32);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    return static_cast<double>(next()) / 4294967296.0;
  }

private:
  uint32_t Hi = 0;
  uint32_t Lo = 0;
};

} // namespace diehard

#endif // DIEHARD_SUPPORT_RNG_H
