#pragma once

/// \file bidir.h
/// BidirSearch — the one exact shortest-path search behind p-cycle routing
/// (dex::PCycle), the stretch oracle (sim::DistanceOracle) and live-view
/// routes (graph::csr_shortest_path), generic over a neighbour function.
///
/// Two breadth-first searches, one from each endpoint, expand alternately:
/// each turn the side with the smaller frontier advances one *whole* level.
/// The first level at which a vertex is reached from both sides fixes the
/// distance exactly, d = a + b, where a and b are the two sides' depths (a
/// vertex reached from both sides sits at depth a from x and b from y; had
/// any vertex a shorter split, the searches would have met a level
/// earlier). On an expander each side stops after ~diam/2 levels, so the
/// work is O(sqrt n)-ish where a forward BFS pays O(n).
///
/// path() returns the same vertex sequence as a forward BFS from x that
/// scans each frontier in order and each vertex's neighbours in order,
/// taking the first discoverer as parent. That BFS yields the
/// lexicographically least shortest path in neighbour order, which is the
/// path a greedy walk from x rebuilds when, at step k, it takes the first
/// neighbour t with dist(t, y) = d − k − 1. The backward search knows
/// dist(·, y) near y; near x the shortest-path DAG is walked back from the
/// meeting layer, giving dist(v, y) = d − j to every depth-j vertex v with
/// a neighbour on it at depth j + 1 — exactly the forward-side vertices on
/// some shortest path.
///
/// The neighbour relation must be symmetric (an undirected multigraph).
/// Scratch is flat and epoch-stamped (no O(n) clear per call) and reused
/// across calls; the owner keeps one instance per graph and must not share
/// it between threads.

#include <cstdint>
#include <vector>

#include "graph/bfs.h"

namespace dex::graph {

class BidirSearch {
 public:
  /// Distance from x to y over vertices [0, n), or kUnreached when they lie
  /// in different components. `nbrs(v)` returns a range of v's neighbours.
  template <class Nbrs>
  [[nodiscard]] std::uint32_t distance(std::size_t n, std::uint32_t x,
                                       std::uint32_t y, const Nbrs& nbrs) {
    return search(n, x, y, nbrs, /*whole_level=*/false);
  }

  /// Replaces `out` with the forward-BFS shortest path x -> y inclusive of
  /// both endpoints (see the file comment for the tie-break); empty when y
  /// is unreachable from x.
  template <class V, class Nbrs>
  void path(std::size_t n, std::uint32_t x, std::uint32_t y, const Nbrs& nbrs,
            std::vector<V>& out) {
    out.clear();
    const std::uint32_t d = search(n, x, y, nbrs, /*whole_level=*/true);
    if (d == kUnreached) return;
    // Walk the shortest-path DAG back from the meeting layer: a depth-j
    // vertex lies on a shortest path iff it neighbours one at depth j + 1
    // that does, and then dist(·, y) = d − j.
    for (auto j = static_cast<std::uint32_t>(level_start_[0].size() - 1);
         j-- > 1;) {
      layer_next_.clear();
      for (const std::uint32_t v : layer_) {
        for (const auto w : nbrs(v)) {
          ++scanned_;
          Mark& m = marks_[static_cast<std::uint32_t>(w)];
          if (m.stamp != epoch_ || m.depth[0] != tag(j) || m.depth[1] != kNone)
            continue;
          m.depth[1] = tag(d - j);
          layer_next_.push_back(static_cast<std::uint32_t>(w));
        }
      }
      layer_.swap(layer_next_);
    }
    // Greedy walk from x: the first neighbour one step closer to y.
    out.reserve(d + 1);
    out.push_back(static_cast<V>(x));
    std::uint32_t cur = x;
    for (std::uint32_t k = 0; k < d; ++k) {
      const std::uint8_t want = tag(d - k - 1);
      for (const auto w : nbrs(cur)) {
        ++scanned_;
        if (to_y(static_cast<std::uint32_t>(w)) == want) {
          cur = static_cast<std::uint32_t>(w);
          break;
        }
      }
      out.push_back(static_cast<V>(cur));
    }
  }

  /// Neighbour entries scanned over this instance's lifetime (searches,
  /// DAG walk-back and greedy walk): a machine-independent work count.
  [[nodiscard]] std::uint64_t scanned() const { return scanned_; }

 private:
  /// Per-vertex scratch: valid only where `stamp` equals the current epoch.
  /// `depth[s]` is the vertex's depth from side s (0: x, 1: y), or kNone.
  /// Depths are stored mod kWrap: they are only ever compared between
  /// neighbours, whose true depths differ by at most one, so a byte keeps
  /// the comparison exact on paths of any length.
  struct Mark {
    std::uint32_t stamp = 0;
    std::uint8_t depth[2] = {kNone, kNone};
  };
  static constexpr std::uint8_t kNone = 0xFF;
  static constexpr std::uint32_t kWrap = 0xFF;

  static std::uint8_t tag(std::uint32_t depth) {
    return static_cast<std::uint8_t>(depth % kWrap);
  }

  /// Depth tag from y, kNone when y's side has not reached u this call.
  [[nodiscard]] std::uint8_t to_y(std::uint32_t u) const {
    return marks_[u].stamp == epoch_ ? marks_[u].depth[1] : kNone;
  }

  Mark& touch(std::uint32_t u) {
    Mark& m = marks_[u];
    if (m.stamp != epoch_) m = Mark{epoch_, {kNone, kNone}};
    return m;
  }

  /// The level-synchronous search. With `whole_level` the meeting level is
  /// finished and every vertex reached from both sides — the meeting layer
  /// path() walks back from — is collected in layer_; otherwise it returns
  /// at the first such vertex.
  template <class Nbrs>
  std::uint32_t search(std::size_t n, std::uint32_t x, std::uint32_t y,
                       const Nbrs& nbrs, bool whole_level) {
    if (marks_.size() < n) marks_.resize(n);
    if (++epoch_ == 0) {  // stamp wrap: one real clear every 2^32 calls
      for (Mark& m : marks_) m.stamp = 0;
      epoch_ = 1;
    }
    const std::uint32_t ends[2] = {x, y};
    for (unsigned s = 0; s < 2; ++s) {
      order_[s].assign(1, ends[s]);
      level_start_[s].assign(1, 0);
      touch(ends[s]).depth[s] = 0;
    }
    layer_.clear();
    if (x == y) return 0;
    while (true) {
      const std::size_t width[2] = {order_[0].size() - level_start_[0].back(),
                                    order_[1].size() - level_start_[1].back()};
      if (width[0] == 0 || width[1] == 0) return kUnreached;
      const unsigned s = width[0] <= width[1] ? 0 : 1;
      const std::size_t begin = level_start_[s].back();
      const std::size_t end = order_[s].size();
      level_start_[s].push_back(end);
      const auto depth =
          static_cast<std::uint32_t>(level_start_[s].size() - 1);
      const auto other =
          static_cast<std::uint32_t>(level_start_[1 - s].size() - 1);
      for (std::size_t i = begin; i < end; ++i) {
        for (const auto w : nbrs(order_[s][i])) {
          ++scanned_;
          const auto u = static_cast<std::uint32_t>(w);
          Mark& m = touch(u);
          if (m.depth[s] != kNone) continue;
          m.depth[s] = tag(depth);
          order_[s].push_back(u);
          if (m.depth[1 - s] == kNone) continue;
          if (!whole_level) return depth + other;
          layer_.push_back(u);
        }
      }
      if (!layer_.empty()) return depth + other;
    }
  }

  std::vector<Mark> marks_;
  /// Vertices reached from each side in discovery order, level by level:
  /// level j of side s starts at level_start_[s][j], and the last level
  /// (the frontier, or the meeting layer once the search has met) runs to
  /// the end of order_[s].
  std::vector<std::uint32_t> order_[2];
  std::vector<std::size_t> level_start_[2];
  /// path(): the meeting layer, then each shallower DAG layer in turn.
  std::vector<std::uint32_t> layer_;
  std::vector<std::uint32_t> layer_next_;
  std::uint32_t epoch_ = 0;
  std::uint64_t scanned_ = 0;
};

}  // namespace dex::graph
