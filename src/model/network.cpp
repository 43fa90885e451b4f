#include "model/network.hpp"

#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace sparcle {

NcpId Network::add_ncp(std::string name, ResourceVector capacity,
                       double fail_prob, std::string region) {
  if (capacity.size() != schema_.size())
    throw std::invalid_argument("NCP '" + name +
                                "' capacity does not match schema");
  for (std::size_t r = 0; r < capacity.size(); ++r)
    if (!std::isfinite(capacity[r]) || capacity[r] < 0)
      throw std::invalid_argument("NCP '" + name +
                                  "' capacity must be finite and >= 0");
  if (!(fail_prob >= 0.0 && fail_prob < 1.0))  // NaN fails too
    throw std::invalid_argument("NCP '" + name +
                                "' failure probability out of [0,1)");
  ncps_.push_back(
      {std::move(name), std::move(capacity), fail_prob, std::move(region)});
  csr_valid_ = false;
  return static_cast<NcpId>(ncps_.size() - 1);
}

LinkId Network::add_link(std::string name, NcpId a, NcpId b, double bandwidth,
                         double fail_prob) {
  if (a < 0 || b < 0 || a >= static_cast<NcpId>(ncps_.size()) ||
      b >= static_cast<NcpId>(ncps_.size()))
    throw std::invalid_argument("link '" + name + "' has unknown endpoint");
  if (a == b)
    throw std::invalid_argument("link '" + name + "' is a self-loop");
  // NaN stays accepted: the widest-path and hop-count routers treat a NaN
  // link as dead.
  if (bandwidth <= 0 || bandwidth == std::numeric_limits<double>::infinity())
    throw std::invalid_argument("link '" + name +
                                "' must have positive finite bandwidth");
  if (!(fail_prob >= 0.0 && fail_prob < 1.0))  // NaN fails too
    throw std::invalid_argument("link '" + name +
                                "' failure probability out of [0,1)");
  links_.push_back({std::move(name), bandwidth, a, b, fail_prob, false});
  csr_valid_ = false;
  return static_cast<LinkId>(links_.size() - 1);
}

LinkId Network::add_directed_link(std::string name, NcpId from, NcpId to,
                                  double bandwidth, double fail_prob) {
  const LinkId id = add_link(std::move(name), from, to, bandwidth, fail_prob);
  links_[id].directed = true;
  return id;
}

NcpId Network::other_end(LinkId l, NcpId j) const {
  const Link& lk = links_.at(l);
  if (lk.a == j) return lk.b;
  if (lk.b == j) return lk.a;
  throw std::invalid_argument("NCP is not an endpoint of link");
}

void Network::rebuild_csr() const {
  const std::size_t n = ncps_.size();
  csr_off_.assign(n + 1, 0);
  for (const Link& lk : links_) {
    ++csr_off_[lk.a + 1];
    ++csr_off_[lk.b + 1];
  }
  for (std::size_t j = 0; j < n; ++j) csr_off_[j + 1] += csr_off_[j];
  csr_links_.resize(2 * links_.size());
  std::vector<std::int32_t> cursor(csr_off_.begin(), csr_off_.end() - 1);
  for (LinkId l = 0; l < static_cast<LinkId>(links_.size()); ++l) {
    csr_links_[cursor[links_[l].a]++] = l;
    csr_links_[cursor[links_[l].b]++] = l;
  }
  csr_valid_ = true;
}

bool Network::connected() const {
  if (ncps_.empty()) return true;
  std::vector<char> seen(ncps_.size(), 0);
  std::queue<NcpId> q;
  q.push(0);
  seen[0] = 1;
  std::size_t count = 1;
  while (!q.empty()) {
    const NcpId v = q.front();
    q.pop();
    for (LinkId l : incident_links(v)) {
      const NcpId u = other_end(l, v);
      if (!seen[u]) {
        seen[u] = 1;
        ++count;
        q.push(u);
      }
    }
  }
  return count == ncps_.size();
}

}  // namespace sparcle
