// Closed-loop load generator over loopback TCP.
//
// `RunLoad` drives one workload against a running ticl_served: an
// optional warm pass, the timed phase (whole rounds until the run length
// is reached), and the apply phase. Every request and reply is recorded
// in the run directory for the checker, which runs afterwards:
//   records.tsv  one line per request: kind phase item state ms hash cached
//                error
//   replies.txt  "<state> <item>\t<reply>" for the first reply of every
//                (graph state, query) pair
//   stats.txt    "<label>\t<stats reply>" at the phase boundaries
// The summary (latency quantiles, rates, counts) is printed as one JSON
// line on stdout.

#ifndef E2E_BENCH_CLIENT_H_
#define E2E_BENCH_CLIENT_H_

#include <cstdint>
#include <string>

#include "inputs.h"

namespace e2e {

struct LoadOptions {
  std::uint16_t port = 0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string dir;  // run directory: delta files in, records out
};

/// Returns 0 on success; non-zero when the server could not be driven
/// (a failed reply is counted, not fatal).
int RunLoad(const WorkloadSpec& spec, const LoadOptions& options);

/// Path of chain delta `index` inside the run directory.
std::string DeltaPath(const std::string& dir, std::uint32_t index);

}  // namespace e2e

#endif  // E2E_BENCH_CLIENT_H_
