// Conversions from the benchmark's own input types to the program's.

#ifndef E2E_BENCH_BRIDGE_H_
#define E2E_BENCH_BRIDGE_H_

#include <string>
#include <vector>

#include "core/query.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "inputs.h"

namespace e2e {

ticl::Query ToQuery(const MenuQuery& q);
ticl::GraphDelta ToGraphDelta(const Edits& edits);

/// Weighted program graph from the benchmark's edge list.
ticl::Graph ToGraph(const EdgeGraph& g, const std::vector<double>& weights);

/// Edge list after replaying `edits` (deletes, then inserts) on `g`.
EdgeGraph ApplyEdits(const EdgeGraph& g, const Edits& edits);

/// The distinct queries a workload sends, with their weight in the mix
/// (per_round for menus, 1 for delta-churn's step queries).
const std::vector<MenuQuery>& MixQueries(const WorkloadSpec& spec);

}  // namespace e2e

#endif  // E2E_BENCH_BRIDGE_H_
