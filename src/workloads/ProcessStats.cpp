//===- workloads/ProcessStats.cpp -----------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the shared process memory metrics.
///
//===----------------------------------------------------------------------===//

#include "workloads/ProcessStats.h"

#include <cstdio>

#include <unistd.h>

namespace diehard {

long currentRssKb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (F == nullptr)
    return 0;
  long SizePages = 0, ResidentPages = 0;
  int N = std::fscanf(F, "%ld %ld", &SizePages, &ResidentPages);
  std::fclose(F);
  if (N != 2)
    return 0;
  return ResidentPages * (::sysconf(_SC_PAGESIZE) / 1024);
}

} // namespace diehard
