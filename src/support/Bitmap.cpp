//===- support/Bitmap.cpp -------------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the out-of-line Bitmap operations (popcount and the
/// linear clear-bit scan).
///
//===----------------------------------------------------------------------===//

#include "support/Bitmap.h"

#include <bit>

namespace diehard {

size_t Bitmap::count() const {
  size_t Total = 0;
  size_t NumWords = (Bits + BitsPerWord - 1) / BitsPerWord;
  for (size_t I = 0; I < NumWords; ++I)
    Total += static_cast<size_t>(std::popcount(words()[I]));
  return Total;
}

size_t Bitmap::findNextClear(size_t From, size_t Limit) const {
  for (size_t Index = From; Index < Limit; ++Index) {
    size_t WordIndex = Index / BitsPerWord;
    uint64_t Word = words()[WordIndex];
    // Skip fully-set words quickly.
    if (Word == ~uint64_t(0)) {
      Index = (WordIndex + 1) * BitsPerWord - 1;
      continue;
    }
    if (!((Word >> (Index % BitsPerWord)) & 1))
      return Index;
  }
  return Limit;
}

size_t Bitmap::findNextSet(size_t From, size_t Limit) const {
  for (size_t Index = From; Index < Limit; ++Index) {
    size_t WordIndex = Index / BitsPerWord;
    uint64_t Word = words()[WordIndex];
    // Skip fully-clear words quickly.
    if (Word == 0) {
      Index = (WordIndex + 1) * BitsPerWord - 1;
      continue;
    }
    if ((Word >> (Index % BitsPerWord)) & 1)
      return Index;
  }
  return Limit;
}

} // namespace diehard
