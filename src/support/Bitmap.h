//===- support/Bitmap.h - allocation bitmap ---------------------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit vector used as the per-size-class allocation bitmap. The paper
/// stores exactly one bit of metadata per heap object, fully segregated from
/// the heap itself (Section 4.1), which is what makes DieHard immune to heap
/// metadata overwrites.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_SUPPORT_BITMAP_H
#define DIEHARD_SUPPORT_BITMAP_H

#include "support/MmapRegion.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace diehard {

/// Dense bit vector with one bit per heap slot.
///
/// All bits start clear (slot free). The bitmap owns its storage — a private
/// anonymous mapping, far from the managed heap, so heap overflows cannot
/// reach it. Going straight to mmap (rather than the global allocator)
/// matters twice over: fresh pages are demand-zero, so a huge bitmap costs
/// only the pages actually probed, and constructing a heap under the malloc
/// shim does not funnel megabytes of metadata through the shim's bootstrap
/// arena. Move-only, like the mapping it owns.
class Bitmap {
public:
  Bitmap() = default;

  /// Creates a bitmap of \p NumBits bits, all clear.
  explicit Bitmap(size_t NumBits) { reset(NumBits); }

  Bitmap(Bitmap &&Other) noexcept
      : Bits(Other.Bits), Storage(std::move(Other.Storage)) {
    Other.Bits = 0; // Keep size()==0 <=> no storage for the moved-from side.
  }
  Bitmap &operator=(Bitmap &&Other) noexcept {
    if (this != &Other) {
      Bits = Other.Bits;
      Storage = std::move(Other.Storage);
      Other.Bits = 0;
    }
    return *this;
  }

  /// Resizes to \p NumBits bits and clears every bit. On mapping failure
  /// the bitmap is left empty (size() == 0), which callers can detect.
  void reset(size_t NumBits) {
    Bits = NumBits;
    size_t NumWords = (NumBits + BitsPerWord - 1) / BitsPerWord;
    if (NumWords == 0 || !Storage.map(NumWords * sizeof(uint64_t)))
      Bits = 0; // Fresh mappings are demand-zero: all bits start clear.
  }

  /// Clears every bit without changing the size.
  void clear() {
    if (Storage.base() != nullptr)
      std::memset(Storage.base(), 0, Storage.size());
  }

  /// Returns the number of bits.
  size_t size() const { return Bits; }

  /// Returns true if bit \p Index is set.
  bool test(size_t Index) const {
    assert(Index < Bits && "bitmap index out of range");
    return (words()[Index / BitsPerWord] >> (Index % BitsPerWord)) & 1;
  }

  /// Sets bit \p Index. Returns false if it was already set.
  bool trySet(size_t Index) {
    assert(Index < Bits && "bitmap index out of range");
    uint64_t &Word = words()[Index / BitsPerWord];
    uint64_t Mask = uint64_t(1) << (Index % BitsPerWord);
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  /// Clears bit \p Index. Returns false if it was already clear.
  bool tryClear(size_t Index) {
    assert(Index < Bits && "bitmap index out of range");
    uint64_t &Word = words()[Index / BitsPerWord];
    uint64_t Mask = uint64_t(1) << (Index % BitsPerWord);
    if (!(Word & Mask))
      return false;
    Word &= ~Mask;
    return true;
  }

  /// Returns the number of set bits.
  size_t count() const;

  /// Returns the index of the first clear bit in [\p From, \p Limit), or
  /// \p Limit if every bit there is set. Used as the fallback linear probe
  /// when random probing is unlucky. \p Limit must not exceed size().
  size_t findNextClear(size_t From, size_t Limit) const;
  size_t findNextClear(size_t From) const { return findNextClear(From, Bits); }

  /// Returns the index of the first set bit in [\p From, \p Limit), or
  /// \p Limit if every bit there is clear. Together with findNextClear
  /// this enumerates the maximal free runs the page-return span scanner
  /// releases. \p Limit must not exceed size().
  size_t findNextSet(size_t From, size_t Limit) const;
  size_t findNextSet(size_t From) const { return findNextSet(From, Bits); }

private:
  static constexpr size_t BitsPerWord = 64;

  /// The word array inside the mapping (derived, so default moves stay
  /// correct).
  uint64_t *words() { return static_cast<uint64_t *>(Storage.base()); }
  const uint64_t *words() const {
    return static_cast<const uint64_t *>(Storage.base());
  }

  size_t Bits = 0;
  MmapRegion Storage;
};

} // namespace diehard

#endif // DIEHARD_SUPPORT_BITMAP_H
