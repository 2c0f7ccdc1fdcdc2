#pragma once

/// \file pcycle.h
/// The p-cycle expander family (Definition 1 of the paper, after Lubotzky).
///
/// For a prime p, Z(p) has vertex set Z_p = {0, …, p−1} and edges
///   (1) y = x+1 mod p  (cycle successor),
///   (2) y = x−1 mod p  (cycle predecessor),
///   (3) y = x^{-1} mod p for x, y > 0  (inverse chord),
/// plus a self-loop at 0 (and the chord rule makes 1 and p−1 self-looped,
/// since 1^{-1} = 1 and (p−1)^{-1} = p−1). Every vertex thus has exactly
/// three ports (a self-loop counting 1), giving an infinite 3-regular family
/// with a constant spectral gap.
///
/// The adjacency is fully analytic — neighbors cost one lookup in a lazily
/// built inverse table — so the virtual graph is never materialized.
/// Distances and shortest paths are computed on demand by bidirectional BFS
/// (graph/bidir.h; the graph is an expander, so the frontiers meet after
/// ~diam/2 = O(log p) levels) and, for the coordinator's fixed target
/// (vertex 0), via a cached BFS tree.

#include <array>
#include <cstdint>
#include <vector>

#include "graph/bidir.h"
#include "support/assert.h"
#include "support/mathutil.h"

namespace dex {

using Vertex = std::uint64_t;

class PCycle {
 public:
  /// p must be prime (checked).
  explicit PCycle(std::uint64_t p);

  [[nodiscard]] std::uint64_t p() const { return p_; }

  [[nodiscard]] Vertex succ(Vertex x) const { return x + 1 == p_ ? 0 : x + 1; }
  [[nodiscard]] Vertex pred(Vertex x) const { return x == 0 ? p_ - 1 : x - 1; }

  /// The chord port: x^{-1} mod p for x > 0; 0 maps to itself (the explicit
  /// self-loop of Definition 1). Note inv(1) = 1 and inv(p−1) = p−1.
  /// Served from a lazily built O(p) table (the classic linear-time inverse
  /// recurrence): ports() sits under every walk step and every routing BFS,
  /// and paying an extended-Euclid per expansion made modinv two thirds of
  /// the traffic hot path.
  [[nodiscard]] Vertex inv(Vertex x) const {
    if (x == 0) return 0;
    if (inv_table_.empty()) build_inv_table();
    return inv_table_[x];
  }

  /// The three ports of x in a fixed order {succ, pred, inv}.
  [[nodiscard]] std::array<Vertex, 3> ports(Vertex x) const {
    return {succ(x), pred(x), inv(x)};
  }

  /// Degree is 3 for every vertex (self-loops count 1).
  [[nodiscard]] static constexpr unsigned degree() { return 3; }

  /// Distance from x to y (bidirectional BFS; O(sqrt p)-ish work).
  [[nodiscard]] std::uint32_t distance(Vertex x, Vertex y) const;

  /// A shortest path from x to y, inclusive of both endpoints, by
  /// bidirectional BFS over scratch reused across calls (the traffic hot
  /// path runs allocation- and hash-free). The tie-break contract routing
  /// depends on: the path is the one a forward BFS from x returns when it
  /// scans the frontier in order, ports {succ, pred, inv}, and keeps first
  /// discoverers as parents — the lexicographically least shortest path in
  /// port order — so the returned path never drifts.
  [[nodiscard]] std::vector<Vertex> shortest_path(Vertex x, Vertex y) const;

  /// Ports scanned by distance() and shortest_path() since construction:
  /// the machine-independent work count behind the routing cost pins.
  [[nodiscard]] std::uint64_t scanned_ports() const {
    return search_.scanned();
  }

  /// Distance to vertex 0 using the cached BFS tree (O(1) after the first
  /// call, which builds the tree in O(p)).
  [[nodiscard]] std::uint32_t distance_to_zero(Vertex x) const;

  /// Path from x to 0 along the cached BFS tree (a shortest path).
  [[nodiscard]] std::vector<Vertex> path_to_zero(Vertex x) const;

  /// All (undirected) edges, self-loops once: used by tests and by
  /// materialization of the real network snapshot.
  /// Enumeration order: for each x, the edge (x, succ(x)); then for each
  /// x <= inv(x), the chord (x, inv(x)).
  template <class Fn>
  void for_each_edge(Fn&& fn) const {
    for (Vertex x = 0; x < p_; ++x) fn(x, succ(x));
    for (Vertex x = 0; x < p_; ++x) {
      const Vertex y = inv(x);
      if (x <= y) fn(x, y);
    }
  }

 private:
  void ensure_zero_tree() const;
  void build_inv_table() const;

  std::uint64_t p_;
  /// x -> x^{-1} mod p, built on first chord access. u32 entries: p is the
  /// smallest prime in (4 n0, 8 n0), far below 2^32 at any simulable size
  /// (asserted at construction), so the table costs 4 bytes per vertex.
  mutable std::vector<std::uint32_t> inv_table_;
  // Lazily built BFS tree rooted at 0: parent pointer per vertex.
  mutable std::vector<std::uint32_t> zero_dist_;
  mutable std::vector<Vertex> zero_parent_;
  // distance()/shortest_path() scratch, reused across calls.
  mutable graph::BidirSearch search_;
};

}  // namespace dex
