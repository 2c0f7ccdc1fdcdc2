// sim.op: TrafficEngine::serve_one — one KV operation on the batch path.
#include "shim.h"
#include "sim/workload.h"

void dex::sim::TrafficEngine::serve_one(TrafficStepStats& st) {
  static const auto real =
      perfbench::real_symbol<void (*)(TrafficEngine*, TrafficStepStats&)>(
          "_ZN3dex3sim13TrafficEngine9serve_oneERNS0_16TrafficStepStatsE");
  perfbench::ScopedSpan span("sim.op");
  real(this, st);
}
