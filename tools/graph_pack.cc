// graph_pack: one-time conversion of a graph into the memory-mappable
// `.opimg` container (see graph/graph_mmap.h). Pay the parse once;
// every subsequent load is mmap + checksum instead of text parsing.
//
// Usage:
//   graph_pack --in=FILE --out=FILE.opimg [--undirected]
//              [--scheme=wc|const|tri|uniform] [--p=0.1] [--seed=1]
//              [--verify]
//
//   --in          SNAP-style text edge list
//   --undirected  edge-list lines add both directions (e.g. Orkut)
//   --scheme      weight scheme for edges without explicit probabilities:
//                 wc = weighted cascade (default), const / tri / uniform
//                 as in graph_io
//   --p           probability in [0, 1] for const/uniform schemes
//   --seed        unsigned seed for randomized schemes
//   --verify      reload the written file (mmap path) and check it
//                 matches the source graph array-for-array
//
// Exit codes: 0 = ok, 1 = I/O or validation error, 2 = usage.

#include <cstdio>
#include <cstring>
#include <string>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/graph_mmap.h"
#include "support/status.h"

namespace opim {
namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: graph_pack --in=FILE --out=FILE.opimg [--undirected]\n"
      "  [--scheme=wc|const|tri|uniform] [--p=P] [--seed=S] [--verify]\n");
  return 2;
}

template <typename T>
bool SpanEq(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

int Run(int argc, char** argv) {
  std::string in, out, scheme = "wc", v;
  EdgeListOptions opts;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--in=", &in)) {
    } else if (ParseFlag(argv[i], "--out=", &out)) {
    } else if (std::strcmp(argv[i], "--undirected") == 0) {
      opts.undirected = true;
    } else if (ParseFlag(argv[i], "--scheme=", &scheme)) {
    } else if (ParseFlag(argv[i], "--p=", &v)) {
      if (!ParseProbability(v, &opts.constant_p)) {
        std::fprintf(stderr, "bad --p: %s\n", v.c_str());
        return Usage();
      }
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      if (!ParseDecimalU64(v, &opts.seed)) {
        std::fprintf(stderr, "bad --seed: %s\n", v.c_str());
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
  if (in.empty() || out.empty()) return Usage();

  if (scheme == "wc") {
    opts.scheme = WeightScheme::kWeightedCascade;
  } else if (scheme == "const") {
    opts.scheme = WeightScheme::kConstant;
  } else if (scheme == "tri") {
    opts.scheme = WeightScheme::kTrivalency;
  } else if (scheme == "uniform") {
    opts.scheme = WeightScheme::kUniformRandom;
  } else {
    std::fprintf(stderr, "unknown scheme: %s\n", scheme.c_str());
    return Usage();
  }

  Result<Graph> loaded = LoadEdgeList(in, opts);
  if (!loaded.ok()) {
    std::fprintf(stderr, "graph_pack: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& g = loaded.ValueOrDie();

  Status saved = SaveOpimg(g, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "graph_pack: %s\n", saved.ToString().c_str());
    return 1;
  }

  if (verify) {
    Result<Graph> reload = LoadOpimg(out);
    if (!reload.ok()) {
      std::fprintf(stderr, "graph_pack: verify failed: %s\n",
                   reload.status().ToString().c_str());
      return 1;
    }
    const Graph& r = reload.ValueOrDie();
    const GraphStorageView a = g.storage_view();
    const GraphStorageView b = r.storage_view();
    if (r.num_nodes() != g.num_nodes() ||
        !SpanEq(a.out_offsets, b.out_offsets) ||
        !SpanEq(a.out_neighbors, b.out_neighbors) ||
        !SpanEq(a.out_probs, b.out_probs) ||
        !SpanEq(a.in_offsets, b.in_offsets) ||
        !SpanEq(a.in_neighbors, b.in_neighbors) ||
        !SpanEq(a.in_probs, b.in_probs) ||
        !SpanEq(a.in_weight_sum, b.in_weight_sum)) {
      std::fprintf(stderr,
                   "graph_pack: verify failed: reloaded graph differs\n");
      return 1;
    }
  }

  std::fprintf(stderr, "graph_pack: wrote %s (n=%u m=%llu)%s\n", out.c_str(),
               g.num_nodes(),
               static_cast<unsigned long long>(g.num_edges()),
               verify ? " verified" : "");
  return 0;
}

}  // namespace
}  // namespace opim

int main(int argc, char** argv) { return opim::Run(argc, argv); }
