// sim.op: TrafficEngine::complete_op — one KV operation executed at its
// service-completion event on the serving path.
#include "shim.h"
#include "sim/workload.h"

void dex::sim::TrafficEngine::complete_op(const IssuedOp& op,
                                          TrafficStepStats& st) {
  static const auto real = perfbench::real_symbol<void (*)(
      TrafficEngine*, const IssuedOp&, TrafficStepStats&)>(
      "_ZN3dex3sim13TrafficEngine11complete_opERKNS1_8IssuedOpERNS0_"
      "16TrafficStepStatsE");
  perfbench::ScopedSpan span("sim.op");
  real(this, op, st);
}
