//===- tests/interpose/FootprintVictim.cpp - larson-shaped victim ---------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standalone victim binary executed under LD_PRELOAD by the interpose
/// footprint test: a small larson-shaped server. Two threads each keep 512
/// live objects of 8-1024 bytes and replace a random one per operation;
/// between rounds the threads swap their object arrays, so half of all
/// frees land on the other thread's objects. The live set stays under
/// 1 MB, so the process's peak RSS measures what the allocator touches
/// beyond it. Prints "FOOTPRINT-OK" and exits 0 when every object read
/// back intact.
///
//===----------------------------------------------------------------------===//

#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace {

constexpr int Threads = 2;
constexpr size_t SlotsPerThread = 512;
constexpr int Rounds = 8;
constexpr int OpsPerRound = 200000;

struct Slot {
  uint64_t *Ptr = nullptr;
  uint64_t Stamp = 0;
};

Slot Arrays[Threads][SlotsPerThread];

bool churn(int Id, std::barrier<> &Sync) {
  uint64_t State = static_cast<uint64_t>(Id) * 0x9E3779B97F4A7C15ull + 1;
  auto NextRand = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  bool Ok = true;
  for (int Round = 0; Round < Rounds; ++Round) {
    Slot *Mine = Arrays[(Id + Round) % Threads];
    for (int Op = 0; Op < OpsPerRound; ++Op) {
      Slot &S = Mine[NextRand() % SlotsPerThread];
      if (S.Ptr != nullptr) {
        Ok &= *S.Ptr == S.Stamp;
        std::free(S.Ptr);
      }
      size_t Size = 8 + NextRand() % 1017;
      S.Ptr = static_cast<uint64_t *>(std::malloc(Size));
      if (S.Ptr == nullptr)
        return false;
      S.Stamp = NextRand();
      *S.Ptr = S.Stamp;
    }
    Sync.arrive_and_wait();
  }
  return Ok;
}

} // namespace

int main() {
  std::barrier<> Sync(Threads);
  bool Ok[Threads] = {};
  std::thread Workers[Threads];
  for (int T = 0; T < Threads; ++T)
    Workers[T] = std::thread([T, &Sync, &Ok] { Ok[T] = churn(T, Sync); });
  for (std::thread &W : Workers)
    W.join();
  for (auto &Array : Arrays)
    for (Slot &S : Array) {
      if (S.Ptr != nullptr && *S.Ptr != S.Stamp)
        Ok[0] = false;
      std::free(S.Ptr);
    }
  for (bool ThreadOk : Ok)
    if (!ThreadOk) {
      std::puts("FOOTPRINT-CORRUPT");
      return 1;
    }
  std::puts("FOOTPRINT-OK");
  return 0;
}
