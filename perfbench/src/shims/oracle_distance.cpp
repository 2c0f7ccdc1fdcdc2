// sim.oracle: DistanceOracle::distance — the BFS-optimal hop count each
// routed operation is judged against (harness work, not the modeled
// system's).
#include "shim.h"
#include "sim/oracle.h"

std::uint32_t dex::sim::DistanceOracle::distance(graph::NodeId u,
                                                 graph::NodeId v) {
  static const auto real = perfbench::real_symbol<std::uint32_t (*)(
      DistanceOracle*, graph::NodeId, graph::NodeId)>(
      "_ZN3dex3sim14DistanceOracle8distanceEjj");
  perfbench::ScopedSpan span("sim.oracle");
  return real(this, u, v);
}
