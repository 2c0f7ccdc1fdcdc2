// dex.precondition: dex::batch_feasible — the §5 batch precondition
// DexOverlay::apply checks before a parallel-walk batch.
#include "dex/batch.h"
#include "shim.h"

bool dex::batch_feasible(const DexNetwork& net, const BatchRequest& req,
                         const graph::CsrView* live) {
  static const auto real = perfbench::real_symbol<bool (*)(
      const DexNetwork&, const BatchRequest&, const graph::CsrView*)>(
      "_ZN3dex14batch_feasibleERKNS_10DexNetworkERKNS_12BatchRequestEPKNS_"
      "5graph7CsrViewE");
  perfbench::ScopedSpan span("dex.precondition");
  return real(net, req, live);
}
