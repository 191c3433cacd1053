#include "broadcast/air_index.h"

namespace dtree::bcast {

Result<ProbeTrace> AirIndex::Probe(const geom::Point& p) const {
  ProbeTrace trace;
  DTREE_RETURN_IF_ERROR(ProbeInto(p, &trace));
  return trace;
}

Status ValidateTrace(const ProbeTrace& trace, int num_index_packets,
                     int num_regions, bool require_forward) {
  if (trace.region < 0 || trace.region >= num_regions) {
    return Status::Internal("trace resolves to invalid region " +
                            std::to_string(trace.region));
  }
  if (!trace.origins.empty() &&
      trace.origins.size() != trace.packets.size()) {
    return Status::Internal("trace origin annotation size " +
                            std::to_string(trace.origins.size()) +
                            " does not match " +
                            std::to_string(trace.packets.size()) +
                            " packets");
  }
  if (trace.packets.size() >
      static_cast<size_t>(ProbePacketBudget(num_index_packets))) {
    return Status::Internal("trace touches " +
                            std::to_string(trace.packets.size()) +
                            " packets, over the budget of " +
                            std::to_string(
                                ProbePacketBudget(num_index_packets)));
  }
  int prev = -1;
  for (int id : trace.packets) {
    if (id < 0 || id >= num_index_packets) {
      return Status::Internal("trace accesses out-of-range packet " +
                              std::to_string(id));
    }
    if (require_forward && id < prev) {
      return Status::Internal("trace jumps backwards: packet " +
                              std::to_string(id) + " after " +
                              std::to_string(prev));
    }
    prev = id;
  }
  return Status::OK();
}

}  // namespace dtree::bcast
