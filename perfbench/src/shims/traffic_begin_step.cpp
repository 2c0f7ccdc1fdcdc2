// sim.placement: TrafficEngine::begin_step — KvStore::sync, the per-step
// re-homing of displaced keys.
#include "shim.h"
#include "sim/workload.h"

dex::sim::TrafficStepStats dex::sim::TrafficEngine::begin_step(
    const adversary::AdversaryView& view) {
  static const auto real = perfbench::real_symbol<TrafficStepStats (*)(
      TrafficEngine*, const adversary::AdversaryView&)>(
      "_ZN3dex3sim13TrafficEngine10begin_stepERKNS_9adversary13AdversaryViewE");
  perfbench::ScopedSpan span("sim.placement");
  return real(this, view);
}
