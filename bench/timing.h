// Wall-clock helpers shared by the experiment binaries in bench/.
//
// WallNs() reads the monotonic host clock. NsPerOp() is the microbenchmark
// loop the store, DSL-pipeline and churn experiments print their tables
// from: it sizes a batch of calls to take at least 20 ms, runs five such
// batches, and keeps the fastest batch's cost per call.

#ifndef BENCH_TIMING_H_
#define BENCH_TIMING_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace osguard {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Makes the compiler treat `value` as read, so a loop that only computes it
// is not optimized away.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// Host nanoseconds per call of `op`: the best of five batches, each sized to
// take at least 20 ms.
template <typename Op>
double NsPerOp(Op&& op) {
  constexpr int64_t kMinBatchNs = 20'000'000;
  constexpr int kBatches = 5;
  int64_t iterations = 1;
  while (iterations < (int64_t{1} << 32)) {
    const int64_t start = WallNs();
    for (int64_t i = 0; i < iterations; ++i) {
      op();
    }
    if (WallNs() - start >= kMinBatchNs) {
      break;
    }
    iterations *= 2;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int batch = 0; batch < kBatches; ++batch) {
    const int64_t start = WallNs();
    for (int64_t i = 0; i < iterations; ++i) {
      op();
    }
    best = std::min(best, static_cast<double>(WallNs() - start) /
                              static_cast<double>(iterations));
  }
  return best;
}

}  // namespace osguard

#endif  // BENCH_TIMING_H_
