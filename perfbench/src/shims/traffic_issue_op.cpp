// sim.issue: TrafficEngine::issue_op — a serving client's request draw and
// home lookup (a rendezvous scan for never-placed keys).
#include "shim.h"
#include "sim/workload.h"

dex::sim::TrafficEngine::IssuedOp dex::sim::TrafficEngine::issue_op() {
  static const auto real =
      perfbench::real_symbol<IssuedOp (*)(TrafficEngine*)>(
          "_ZN3dex3sim13TrafficEngine8issue_opEv");
  perfbench::ScopedSpan span("sim.issue");
  return real(this);
}
