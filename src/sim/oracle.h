#pragma once

/// \file oracle.h
/// DistanceOracle — the per-step route/placement oracle behind the traffic
/// layer's hop accounting: the exact BFS optimum d(origin, home) every op's
/// stretch is measured against, and the whole-survivor distance vectors the
/// re-homing transfer pricing needs.
///
/// Point queries run the bidirectional search of graph/bidir.h on the
/// step's CsrView (graph/csr.h): on an expander the two frontiers meet
/// after ~diam/2 levels, so a query touches O(sqrt n)-ish vertices instead
/// of the O(n + m) a single-source BFS pays. Each query is answered fresh —
/// no memo — and every answer is an exact BFS distance, which the property
/// tests pin against graph::csr_bfs_fill across all six backends.
///
/// Rehash pricing (sim::KvStore::sync) does need whole vectors: from() and
/// reach() fill one full single-source slot, which serves the from() ->
/// reach() pair for one root. sync() prices one destination at a time in
/// sorted order, so a single slot is all it ever reuses.
///
/// The owner (sim::KvStore) calls attach() once per churn step with the
/// step's frozen CsrView; attach drops the slot (the topology changed) but
/// keeps the buffers, so steady state runs allocation-free.

#include <cstdint>
#include <vector>

#include "graph/bidir.h"
#include "graph/csr.h"

namespace dex::sim {

class DistanceOracle {
 public:
  /// Points the oracle at the step's live view and drops the slot. The
  /// view is borrowed: it must stay alive and unchanged until the next
  /// attach() (sim::KvStore re-attaches on every sync()).
  void attach(const graph::CsrView& view);

  /// Exact BFS distance between u and v on the attached view
  /// (graph::kUnreached when disconnected or either endpoint is dead), by
  /// bidirectional search.
  [[nodiscard]] std::uint32_t distance(graph::NodeId u, graph::NodeId v);

  /// The full distance vector from `src`, filled into the single slot
  /// unless `src` already holds it. Used by the re-homing transfer pricing,
  /// which needs every survivor's distance. Lifetime: the reference stays
  /// valid (and keeps meaning `src`) only until from()/reach() on another
  /// root or attach(). Read it before querying on.
  [[nodiscard]] const std::vector<std::uint32_t>& from(graph::NodeId src);

  /// Sum/count of finite distances from `src` over the alive set (the
  /// expected-recovery-pull mean used by KvStore::sync), computed once per
  /// slot fill and cached with it.
  struct Reach {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Reach reach(graph::NodeId src);

  /// Searches run since attach(): distance() queries plus full slot fills.
  [[nodiscard]] std::uint64_t bfs_runs() const { return bfs_runs_; }

 private:
  /// Fills the slot from `root` unless it already holds it.
  void materialize(graph::NodeId root);

  const graph::CsrView* view_ = nullptr;
  graph::NodeId root_ = graph::kInvalidNode;  ///< the slot's root
  std::vector<std::uint32_t> dist_;
  Reach reach_;
  bool reach_done_ = false;
  std::vector<graph::NodeId> queue_;  ///< csr_bfs_fill frontier
  graph::BidirSearch search_;
  std::uint64_t bfs_runs_ = 0;
};

}  // namespace dex::sim
