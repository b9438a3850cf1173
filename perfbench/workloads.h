// The four benchmark workloads (see perfbench/README.md for why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <optional>

#include "perfbench/harness.h"

namespace perfbench {

// Generates the named workload's inputs from `options.seed`, then runs
// RunReps on it. Empty for an unknown workload name.
std::optional<Report> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
