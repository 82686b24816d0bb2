// Lexicographic breadth-first search (Rose, Tarjan & Lueker).
//
// For a chordal graph the reverse of a Lex-BFS visit order is a perfect
// elimination ordering; this is the standard linear-time chordality
// recognition pipeline and also the source of our maximal-clique extraction.
//
// The implementation is partition refinement over linked lists: each class
// of equally labelled vertices is a doubly linked list of its members, and
// the classes form a doubly linked list ordered by label. It runs in
// O(n + m) time, and class storage stays O(n) because emptied classes are
// recycled through a free list.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace chordal {

/// Lex-BFS visit order (first visited vertex first). Deterministic: ties are
/// broken by smallest vertex id within the lexicographically largest label
/// class, starting from the smallest-id vertex of each component.
std::vector<int> lexbfs_order(const Graph& g);

}  // namespace chordal
