#include "src/ndp/request.h"

namespace nearpm {

double NdpWorkNs(const CostModel& cost, const std::vector<NdpWorkItem>& work) {
  double ns = cost.ndp_setup_ns;
  for (const NdpWorkItem& item : work) {
    switch (item.kind) {
      case NdpWorkItem::Kind::kCopy:
        ns += static_cast<double>(item.size) * cost.ndp_dma_ns_per_byte;
        break;
      case NdpWorkItem::Kind::kLiteral:
        ns += cost.ndp_metadata_ns;
        break;
    }
  }
  return ns;
}

}  // namespace nearpm
