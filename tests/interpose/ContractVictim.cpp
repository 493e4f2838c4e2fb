//===- tests/interpose/ContractVictim.cpp ---------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standalone victim asserting the POSIX/C allocation API contracts from
/// inside a plain process. InterposeTest runs it twice — once against the
/// system allocator, once under the DieHard shim — and requires both runs
/// to pass, so every assertion here is a *portable* contract, not a
/// DieHard implementation detail. Assertions where the shim's documented
/// behaviour deviates from glibc's (alignment above a page is refused with
/// ENOMEM instead of served) are gated on DIEHARD_CONTRACT_SHIM=1 in the
/// environment.
///
/// The last phase forks: heap memory must be private to each process
/// after fork(), as it is for any allocator built on private anonymous
/// mappings. A child's writes to inherited objects must never show up in
/// the parent.
///
/// Prints CONTRACT-OK and exits 0 on success; prints one CONTRACT-FAIL
/// line naming the violated contract and exits 1 otherwise.
///
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

int Failures = 0;

void check(bool Ok, const char *Contract) {
  if (!Ok) {
    std::printf("CONTRACT-FAIL: %s\n", Contract);
    ++Failures;
  }
}

bool aligned(const void *Ptr, size_t Alignment) {
  return (reinterpret_cast<uintptr_t>(Ptr) & (Alignment - 1)) == 0;
}

void checkMallocBasics() {
  // malloc returns distinct, writable, suitably aligned storage.
  void *A = std::malloc(64);
  void *B = std::malloc(64);
  check(A != nullptr && B != nullptr, "malloc(64) succeeds");
  check(A != B, "malloc returns distinct objects");
  check(aligned(A, sizeof(void *)) && aligned(B, sizeof(void *)),
        "malloc(64) is pointer-aligned");
  check(aligned(A, 16), "malloc(64) is 16-byte aligned");
  std::memset(A, 0xAB, 64);
  std::memset(B, 0xCD, 64);
  check(static_cast<unsigned char *>(A)[63] == 0xAB &&
            static_cast<unsigned char *>(B)[0] == 0xCD,
        "malloc storage is writable and disjoint");
  check(malloc_usable_size(A) >= 64,
        "malloc_usable_size >= requested size");
  std::free(A);
  std::free(B);

  // free(NULL) is a no-op; malloc(0) returns NULL or a freeable pointer.
  std::free(nullptr);
  void *Z = std::malloc(0);
  std::free(Z);

  // An impossible request fails cleanly with ENOMEM. (volatile defeats the
  // compiler's -Walloc-size-larger-than analysis — the oversized request
  // is the point of the test.)
  volatile size_t HugeSize = SIZE_MAX / 2;
  errno = 0;
  void *Huge = std::malloc(HugeSize);
  check(Huge == nullptr, "malloc(SIZE_MAX/2) returns NULL");
  check(errno == ENOMEM, "failed malloc sets errno to ENOMEM");
}

void checkCalloc() {
  // calloc zeroes every byte it hands out.
  unsigned char *P = static_cast<unsigned char *>(std::calloc(37, 13));
  check(P != nullptr, "calloc(37, 13) succeeds");
  if (P != nullptr) {
    bool AllZero = true;
    for (size_t I = 0; I < 37 * 13; ++I)
      AllZero = AllZero && P[I] == 0;
    check(AllZero, "calloc memory is zeroed");
    check(malloc_usable_size(P) >= 37 * 13,
          "calloc usable size covers Count * Size");
    std::free(P);
  }

  // Count * Size overflow must be refused, not wrapped into a tiny
  // allocation (CVE-class bug in several historical allocators). volatile
  // keeps the compiler from rejecting the deliberately absurd products.
  volatile size_t WrapCount = SIZE_MAX / 2;
  errno = 0;
  void *Wrap = std::calloc(WrapCount, 3);
  check(Wrap == nullptr, "calloc overflow (SIZE_MAX/2 * 3) returns NULL");
  check(errno == ENOMEM, "calloc overflow sets errno to ENOMEM");
  volatile size_t WrapBoth = SIZE_MAX;
  void *Wrap2 = std::calloc(WrapBoth, WrapBoth);
  check(Wrap2 == nullptr, "calloc(SIZE_MAX, SIZE_MAX) returns NULL");

  // Zero-element calloc is a valid (freeable) allocation.
  void *Zero = std::calloc(0, 16);
  std::free(Zero);
}

void checkRealloc() {
  // realloc(NULL, n) behaves as malloc(n).
  char *P = static_cast<char *>(std::realloc(nullptr, 24));
  check(P != nullptr, "realloc(NULL, 24) behaves as malloc");
  std::memcpy(P, "contract-roundtrip-data", 24);

  // Growth preserves the prefix.
  P = static_cast<char *>(std::realloc(P, 4096));
  check(P != nullptr, "realloc growth succeeds");
  check(P != nullptr && std::memcmp(P, "contract-roundtrip-data", 24) == 0,
        "realloc growth preserves contents");

  // Shrink preserves the (shorter) prefix.
  P = static_cast<char *>(std::realloc(P, 8));
  check(P != nullptr, "realloc shrink succeeds");
  check(P != nullptr && std::memcmp(P, "contract", 8) == 0,
        "realloc shrink preserves prefix");

  // realloc(p, 0) frees or returns a freeable pointer; either way no
  // crash and no double free afterwards.
  void *Q = std::realloc(P, 0);
  if (Q != nullptr)
    std::free(Q);
}

void checkAlignedAllocation() {
  bool ShimMode = std::getenv("DIEHARD_CONTRACT_SHIM") != nullptr;

  // posix_memalign honours every power-of-two alignment up to a page.
  for (size_t Alignment = sizeof(void *); Alignment <= 4096;
       Alignment *= 2) {
    void *Ptr = nullptr;
    int Err = ::posix_memalign(&Ptr, Alignment, Alignment * 2 + 3);
    check(Err == 0 && Ptr != nullptr, "posix_memalign succeeds up to 4096");
    check(Ptr == nullptr || aligned(Ptr, Alignment),
          "posix_memalign result is aligned as requested");
    std::free(Ptr);
  }

  // Invalid alignments are EINVAL, and *Out is left alone.
  void *Sentinel = reinterpret_cast<void *>(0x5A5A);
  void *Out = Sentinel;
  check(::posix_memalign(&Out, 3, 64) == EINVAL,
        "posix_memalign(non-power-of-two) returns EINVAL");
  check(::posix_memalign(&Out, sizeof(void *) / 2, 64) == EINVAL,
        "posix_memalign(alignment < sizeof(void*)) returns EINVAL");
  check(Out == Sentinel, "failed posix_memalign leaves *Out untouched");

  // aligned_alloc alignment validation: C requires it, but glibc only
  // enforces it from 2.38 — so the refusal is asserted under the shim
  // (which always validates), not against the system allocator.
  if (ShimMode) {
    errno = 0;
    void *Bad = ::aligned_alloc(24, 48);
    check(Bad == nullptr, "aligned_alloc(non-power-of-two) returns NULL");
    check(errno == EINVAL, "aligned_alloc(non-power-of-two) sets EINVAL");
  }

  void *Good = ::aligned_alloc(256, 512);
  check(Good != nullptr && aligned(Good, 256),
        "aligned_alloc(256, 512) returns 256-aligned storage");
  std::free(Good);

  if (ShimMode) {
    // Documented shim divergence: the randomized layout caps alignment at
    // a page, so larger requests fail cleanly with ENOMEM instead of
    // being served.
    void *Wide = nullptr;
    check(::posix_memalign(&Wide, 8192, 8192) == ENOMEM,
          "shim posix_memalign(8192) returns ENOMEM");
    errno = 0;
    void *WideA = ::aligned_alloc(8192, 8192);
    check(WideA == nullptr && errno == ENOMEM,
          "shim aligned_alloc(8192) fails with ENOMEM");
  } else {
    void *Wide = nullptr;
    if (::posix_memalign(&Wide, 8192, 8192) == 0) {
      check(aligned(Wide, 8192), "system posix_memalign(8192) is aligned");
      std::free(Wide);
    }
  }
}

void checkUsableSizeMonotonicity() {
  // Usable size is a floor the caller may rely on: writing exactly that
  // many bytes must be safe, and a subsequent realloc to within it must
  // preserve them.
  for (size_t Size = 1; Size <= 20000; Size = Size * 3 + 1) {
    unsigned char *P = static_cast<unsigned char *>(std::malloc(Size));
    check(P != nullptr, "malloc across the size spectrum succeeds");
    if (P == nullptr)
      continue;
    size_t Usable = malloc_usable_size(P);
    check(Usable >= Size, "usable size never undercuts the request");
    std::memset(P, 0x5C, Usable);
    std::free(P);
  }
}

/// Fills \p Len bytes at \p Ptr with \p Byte. Goes through a volatile
/// pointer, out of line: a malloc'd buffer that has not escaped is
/// otherwise assumed unchanged across fork(), and the compiler folds the
/// parent's check below away.
__attribute__((noinline)) void fillVolatile(void *Ptr, unsigned char Byte,
                                            size_t Len) {
  volatile unsigned char *P = static_cast<volatile unsigned char *>(Ptr);
  for (size_t I = 0; I < Len; ++I)
    P[I] = Byte;
}

/// True if every one of the \p Len bytes at \p Ptr equals \p Byte, read
/// through a volatile pointer (see fillVolatile).
__attribute__((noinline)) bool holdsVolatile(const void *Ptr,
                                             unsigned char Byte, size_t Len) {
  const volatile unsigned char *P =
      static_cast<const volatile unsigned char *>(Ptr);
  for (size_t I = 0; I < Len; ++I)
    if (P[I] != Byte)
      return false;
  return true;
}

void checkForkPrivacy() {
  // Objects of several size classes, plus one past the small-object
  // range. The child scribbles over all of them and churns the heap; the
  // parent's copies must be untouched.
  static const size_t Sizes[] = {16, 64, 256, 1024, 4096, 16384, 100000};
  constexpr size_t NumSizes = sizeof(Sizes) / sizeof(Sizes[0]);
  void *Objects[NumSizes] = {};
  for (size_t I = 0; I < NumSizes; ++I) {
    Objects[I] = std::malloc(Sizes[I]);
    check(Objects[I] != nullptr, "malloc before fork succeeds");
    if (Objects[I] == nullptr)
      return;
    fillVolatile(Objects[I], 0xA5, Sizes[I]);
  }

  std::fflush(stdout);
  pid_t Pid = ::fork();
  check(Pid >= 0, "fork succeeds");
  if (Pid == 0) {
    for (size_t I = 0; I < NumSizes; ++I)
      fillVolatile(Objects[I], 0x3C, Sizes[I]);
    for (size_t I = 0; I < NumSizes; ++I) {
      void *Fresh = std::malloc(Sizes[I]);
      if (Fresh != nullptr)
        fillVolatile(Fresh, 0x3C, Sizes[I]);
      std::free(Fresh);
    }
    ::_exit(0);
  }
  if (Pid > 0) {
    int Status = 0;
    check(::waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status) &&
              WEXITSTATUS(Status) == 0,
          "forked child exits cleanly");
  }
  for (size_t I = 0; I < NumSizes; ++I)
    check(holdsVolatile(Objects[I], 0xA5, Sizes[I]),
          "a child's writes after fork never reach the parent's heap");
  for (void *P : Objects)
    std::free(P);
}

} // namespace

int main() {
  checkMallocBasics();
  checkCalloc();
  checkRealloc();
  checkAlignedAllocation();
  checkUsableSizeMonotonicity();
  checkForkPrivacy();
  if (Failures != 0)
    return 1;
  std::printf("CONTRACT-OK\n");
  return 0;
}
