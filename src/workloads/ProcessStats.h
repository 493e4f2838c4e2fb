//===- workloads/ProcessStats.h - process memory metrics --------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level memory metrics shared by the space and gauntlet benches:
/// the current resident set from /proc. This was private to bench_space
/// before the gauntlet needed the same number; it lives in the workload
/// library so every harness reads RSS the same way.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_WORKLOADS_PROCESSSTATS_H
#define DIEHARD_WORKLOADS_PROCESSSTATS_H

namespace diehard {

/// The process's *current* resident set in KB (from /proc/self/statm) —
/// unlike ru_maxrss this can go back down, which is what the sweeper's
/// page-return measurements are about. Returns 0 on failure.
long currentRssKb();

} // namespace diehard

#endif // DIEHARD_WORKLOADS_PROCESSSTATS_H
