#include "sim/oracle.h"

#include "support/assert.h"

namespace dex::sim {

using graph::NodeId;

void DistanceOracle::attach(const graph::CsrView& view) {
  view_ = &view;
  root_ = graph::kInvalidNode;
  reach_done_ = false;
  bfs_runs_ = 0;
}

void DistanceOracle::materialize(NodeId root) {
  DEX_ASSERT_MSG(view_ != nullptr, "DistanceOracle used before attach()");
  if (root_ == root) return;
  root_ = root;
  reach_done_ = false;
  graph::csr_bfs_fill(*view_, root, dist_, queue_);
  ++bfs_runs_;
}

std::uint32_t DistanceOracle::distance(NodeId u, NodeId v) {
  DEX_ASSERT_MSG(view_ != nullptr, "DistanceOracle used before attach()");
  ++bfs_runs_;
  return graph::csr_distance(*view_, u, v, search_);
}

const std::vector<std::uint32_t>& DistanceOracle::from(NodeId src) {
  materialize(src);
  return dist_;
}

DistanceOracle::Reach DistanceOracle::reach(NodeId src) {
  materialize(src);
  if (!reach_done_) {
    Reach r;
    for (NodeId u = 0; u < dist_.size(); ++u) {
      if (view_->alive(u) && dist_[u] != graph::kUnreached) {
        r.sum += dist_[u];
        ++r.count;
      }
    }
    reach_ = r;
    reach_done_ = true;
  }
  return reach_;
}

}  // namespace dex::sim
