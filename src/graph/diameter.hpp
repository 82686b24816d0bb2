// Diameter of a general graph by BFS. The interval-model queries of the
// peeling (Algorithm 1, step 1a) do not come through here: they use the
// exact closed form interval_diameter (cliqueforest/paths.hpp), and
// diameter_exact is the all-pairs reference the tests check it against.
#pragma once

#include "graph/graph.hpp"

namespace chordal {

/// Exact diameter via BFS from every vertex. O(n * m). Returns 0 for graphs
/// with <= 1 vertex; requires a connected graph otherwise (throws if not).
int diameter_exact(const Graph& g);

/// Double-sweep: BFS from `seed`, then BFS from the farthest vertex found.
/// A lower bound on the diameter, exact on trees. Not exact on interval
/// graphs: on [0,1] x 5, [0,0] x 2, [1,1] a sweep seeded at vertex 0
/// returns 1, while the diameter is 2.
int diameter_double_sweep(const Graph& g, int seed = 0);

}  // namespace chordal
