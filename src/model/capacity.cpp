#include "model/capacity.hpp"

#include "model/placement.hpp"

namespace sparcle {

CapacitySnapshot::CapacitySnapshot(const Network& net) {
  ncp_.reserve(net.ncp_count());
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j)
    ncp_.push_back(net.ncp(j).capacity);
  link_.reserve(net.link_count());
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l)
    link_.push_back(net.link(l).bandwidth);
}

void CapacitySnapshot::subtract_scaled(const LoadMap& load, double rate) {
  for (NcpId j = 0; j < static_cast<NcpId>(ncp_.size()); ++j) {
    ncp_[j] -= load.ncp_load(j) * rate;
    ncp_[j].clamp_nonnegative();
  }
  for (LinkId l = 0; l < static_cast<LinkId>(link_.size()); ++l) {
    link_[l] -= load.link_load(l) * rate;
    if (link_[l] < 0) link_[l] = 0;
  }
}

void CapacitySnapshot::scale_elements(const std::vector<ElementKey>& elements,
                                      double factor) {
  for (const ElementKey& e : elements) {
    if (e.kind == ElementKey::Kind::kNcp)
      ncp_.at(e.index) *= factor;
    else
      link_.at(e.index) *= factor;
  }
}

}  // namespace sparcle
