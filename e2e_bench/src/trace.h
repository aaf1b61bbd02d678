// Per-layer trace of one workload (the benchmark's --trace 1 run).

#ifndef E2E_BENCH_TRACE_H_
#define E2E_BENCH_TRACE_H_

#include <string>

#include "inputs.h"

namespace e2e {

/// Times each layer's public functions on the inputs in `dir` (graph.txt,
/// base.snap and the delta chain) and prints one JSON line of metrics.
/// Returns 0 on success.
int RunTrace(const WorkloadSpec& spec, const std::string& dir);

}  // namespace e2e

#endif  // E2E_BENCH_TRACE_H_
