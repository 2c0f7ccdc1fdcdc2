// sim.view: CachedView::advance — journal drain and CSR patching.
#include "shim.h"
#include "sim/scenario.h"

void dex::sim::CachedView::advance() {
  static const auto real = perfbench::real_symbol<void (*)(CachedView*)>(
      "_ZN3dex3sim10CachedView7advanceEv");
  perfbench::ScopedSpan span("sim.view");
  real(this);
}
