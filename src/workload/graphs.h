#ifndef AFP_WORKLOAD_GRAPHS_H_
#define AFP_WORKLOAD_GRAPHS_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace afp {

/// A simple directed graph over nodes 0..n-1, the substrate for the
/// win–move and transitive-closure workloads.
struct Digraph {
  int n = 0;
  std::vector<std::pair<int, int>> edges;
};

/// Deterministic graph generators (all seeded; no global state).
namespace graphs {

/// Erdős–Rényi G(n, m): m distinct directed edges drawn uniformly (no
/// self-loops).
Digraph ErdosRenyi(int n, int m, std::uint64_t seed);

/// 0 -> 1 -> ... -> n-1.
Digraph Chain(int n);

/// 0 -> 1 -> ... -> n-1 -> 0.
Digraph Cycle(int n);

/// Every node gets exactly one random out-edge (a functional graph).
Digraph RandomFunctional(int n, std::uint64_t seed);

/// Complete bipartite from the first half to the second half.
Digraph CompleteBipartite(int half);

/// `clusters` strongly connected clusters of `cluster_size` nodes each
/// (a Hamiltonian cycle per cluster plus `intra_per_cluster` random
/// internal edges), wired by `inter_edges` random edges that always run
/// from a lower-indexed cluster to a higher one. The win-move program
/// over this graph grounds to one large SCC per cluster, and the sparse
/// inter-cluster wiring leaves the condensation DAG with wide antichains:
/// many multi-member components per solve, and incremental repairs whose
/// change frontier crosses several clusters (the incremental bench axis
/// and the compiled-kernel repair tests). n = clusters * cluster_size.
Digraph ClusteredScc(int clusters, int cluster_size, int intra_per_cluster,
                     int inter_edges, std::uint64_t seed);

/// An acyclic move graph matching the paper's Figure 4(a) run: sinks are
/// {c,d,f,h,i}; b, e, g move to sinks; a moves only to b, e, g. Nodes a..i
/// are 0..8. The trace in Example 5.2(a) is reproduced exactly:
/// A_P(∅) = ¬·w{c,d,f,h,i} and the AFP total model has winners {b,e,g}.
Digraph Figure4a();

/// The cyclic move graph of Figure 4(b) (partial AFP model):
/// a->b, b->a, b->c, c->d.
Digraph Figure4b();

/// The cyclic move graph of Figure 4(c) (total AFP model):
/// a->b, b->a, b->c.
Digraph Figure4c();

}  // namespace graphs

}  // namespace afp

#endif  // AFP_WORKLOAD_GRAPHS_H_
