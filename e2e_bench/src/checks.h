// Independent output checks of one recorded run.

#ifndef E2E_BENCH_CHECKS_H_
#define E2E_BENCH_CHECKS_H_

#include <string>

#include "inputs.h"

namespace e2e {

/// Verifies what `load` recorded in `dir` (records.tsv, replies.txt,
/// stats.txt) against the benchmark's own view of the inputs. Prints
/// every failure to stderr and a one-line JSON summary to stdout;
/// returns 0 when every check passed.
int RunChecks(const WorkloadSpec& spec, const std::string& dir);

}  // namespace e2e

#endif  // E2E_BENCH_CHECKS_H_
