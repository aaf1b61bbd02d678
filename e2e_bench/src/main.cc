// e2e_tool — the compiled half of the end-to-end benchmark (run.py is
// the driver). Subcommands, all taking --workload NAME --seed N --dir D:
//
//   gen-graph   write D/graph.txt, the workload's Chung-Lu edge list, and
//               print the ticl_served flags the workload needs
//   gen-chain   write the delta chain against D/base.snap: delta_NNN.snap
//               through the program's SaveDeltaSnapshot, and chain.txt
//   load        drive ticl_served on --port P for --seconds S (client.h)
//   check       verify the recorded replies independently (checks.h)
//   trace       per-layer timings in-process (trace.h)

#include <cstdio>
#include <string>

#include "bridge.h"
#include "checks.h"
#include "client.h"
#include "graph/graph_delta.h"
#include "inputs.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "util.h"

namespace e2e {
namespace {

int GenGraph(const WorkloadSpec& spec, const std::string& dir) {
  const EdgeGraph g = GenerateGraph(spec);
  std::string text;
  text.reserve(g.edges.size() * 14);
  for (const auto& [u, v] : g.edges) {
    text += std::to_string(u);
    text += ' ';
    text += std::to_string(v);
    text += '\n';
  }
  std::string error;
  if (!WriteFile(dir + "/graph.txt", text, &error)) {
    std::fprintf(stderr, "gen-graph: %s\n", error.c_str());
    return 2;
  }
  // How ticl_served must be started for this workload.
  std::printf("{\"server_flags\": [%s]}\n",
              spec.cache ? "" : "\"--cache\", \"0\"");
  return 0;
}

int GenChain(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& dir) {
  std::string error;
  ticl::Graph g;
  if (!ticl::LoadSnapshot(dir + "/base.snap", &g, &error)) {
    std::fprintf(stderr, "gen-chain: %s\n", error.c_str());
    return 2;
  }
  const std::vector<double> weights(g.weights().begin(), g.weights().end());
  const std::vector<Edits> chain =
      GenerateChain(spec, seed, GenerateGraph(spec), weights);
  for (std::uint32_t i = 0; i < chain.size(); ++i) {
    const ticl::GraphDelta delta = ToGraphDelta(chain[i]);
    const std::string problem = ticl::ValidateDelta(g, delta);
    if (!problem.empty()) {
      std::fprintf(stderr, "gen-chain: delta %u: %s\n", i, problem.c_str());
      return 2;
    }
    if (!ticl::SaveDeltaSnapshot(DeltaPath(dir, i), delta, g.fingerprint(),
                                 &error)) {
      std::fprintf(stderr, "gen-chain: %s\n", error.c_str());
      return 2;
    }
    g = ticl::ApplyValidatedDelta(g, delta);
  }
  if (!WriteChainText(dir + "/chain.txt", chain, &error)) {
    std::fprintf(stderr, "gen-chain: %s\n", error.c_str());
    return 2;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: e2e_tool gen-graph|gen-chain|load|check|trace "
                 "--workload NAME --seed N --dir D [--port P --seconds S]\n");
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  const WorkloadSpec* spec = FindWorkload(args.Get("workload"));
  const std::string dir = args.Get("dir");
  if (spec == nullptr || dir.empty() || !args.Has("seed")) {
    std::fprintf(stderr, "e2e_tool: --workload, --seed and --dir required\n");
    return 1;
  }
  const std::uint64_t seed = args.GetU64("seed");
  if (command == "gen-graph") return GenGraph(*spec, dir);
  if (command == "gen-chain") return GenChain(*spec, seed, dir);
  if (command == "check") return RunChecks(*spec, dir);
  if (command == "trace") return RunTrace(*spec, dir);
  if (command == "load") {
    LoadOptions options;
    options.port = static_cast<std::uint16_t>(args.GetU64("port"));
    options.seed = seed;
    options.seconds = std::stod(args.Get("seconds"));
    options.dir = dir;
    return RunLoad(*spec, options);
  }
  std::fprintf(stderr, "e2e_tool: unknown subcommand %s\n", command.c_str());
  return 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
