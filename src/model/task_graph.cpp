#include "model/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace sparcle {

CtId TaskGraph::add_ct(std::string name, ResourceVector requirement) {
  require_not_finalized();
  if (requirement.size() != schema_.size())
    throw std::invalid_argument("CT '" + name +
                                "' requirement does not match schema");
  for (std::size_t r = 0; r < requirement.size(); ++r)
    if (!std::isfinite(requirement[r]) || requirement[r] < 0)
      throw std::invalid_argument("CT '" + name +
                                  "' requirement must be finite and >= 0");
  cts_.push_back({std::move(name), std::move(requirement)});
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<CtId>(cts_.size() - 1);
}

TtId TaskGraph::add_tt(std::string name, double bits_per_unit, CtId src,
                       CtId dst) {
  require_not_finalized();
  if (src < 0 || dst < 0 || src >= static_cast<CtId>(cts_.size()) ||
      dst >= static_cast<CtId>(cts_.size()))
    throw std::invalid_argument("TT '" + name + "' has unknown endpoint");
  if (src == dst)
    throw std::invalid_argument("TT '" + name + "' is a self-loop");
  if (!std::isfinite(bits_per_unit) || bits_per_unit < 0)
    throw std::invalid_argument("TT '" + name +
                                "' bits must be finite and >= 0");
  tts_.push_back({std::move(name), bits_per_unit, src, dst});
  const TtId id = static_cast<TtId>(tts_.size() - 1);
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

void TaskGraph::finalize() {
  require_not_finalized();
  if (cts_.empty()) throw std::invalid_argument("task graph has no CTs");

  // Kahn's algorithm: topological order + cycle detection.
  std::vector<int> indeg(cts_.size(), 0);
  for (const auto& t : tts_) ++indeg[t.dst];
  std::queue<CtId> q;
  for (CtId i = 0; i < static_cast<CtId>(cts_.size()); ++i)
    if (indeg[i] == 0) q.push(i);
  topo_.clear();
  while (!q.empty()) {
    const CtId i = q.front();
    q.pop();
    topo_.push_back(i);
    for (TtId k : out_[i])
      if (--indeg[tts_[k].dst] == 0) q.push(tts_[k].dst);
  }
  if (topo_.size() != cts_.size())
    throw std::invalid_argument("task graph contains a cycle");

  sources_.clear();
  sinks_.clear();
  for (CtId i = 0; i < static_cast<CtId>(cts_.size()); ++i) {
    if (in_[i].empty()) sources_.push_back(i);
    if (out_[i].empty()) sinks_.push_back(i);
  }

  // Transitive closure in reverse topological order.
  reach_.assign(cts_.size(), std::vector<char>(cts_.size(), 0));
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const CtId i = *it;
    for (TtId k : out_[i]) {
      const CtId j = tts_[k].dst;
      reach_[i][j] = 1;
      for (CtId m = 0; m < static_cast<CtId>(cts_.size()); ++m)
        if (reach_[j][m]) reach_[i][m] = 1;
    }
  }

  finalized_ = true;
}

const std::vector<CtId>& TaskGraph::sources() const {
  require_finalized();
  return sources_;
}

const std::vector<CtId>& TaskGraph::sinks() const {
  require_finalized();
  return sinks_;
}

const std::vector<CtId>& TaskGraph::topological_order() const {
  require_finalized();
  return topo_;
}

bool TaskGraph::reaches(CtId a, CtId b) const {
  require_finalized();
  return reach_.at(a).at(b) != 0;
}

std::vector<TtId> TaskGraph::tts_between(CtId a, CtId b) const {
  require_finalized();
  CtId from = a, to = b;
  if (!reaches(from, to)) std::swap(from, to);
  if (!reaches(from, to)) return {};
  // TT k = (s -> d) is on a from->to path iff (from == s or from reaches s)
  // and (d == to or d reaches to).
  std::vector<TtId> result;
  for (TtId k = 0; k < static_cast<TtId>(tts_.size()); ++k) {
    const auto& t = tts_[k];
    const bool head_ok = (t.src == from) || reaches(from, t.src);
    const bool tail_ok = (t.dst == to) || reaches(t.dst, to);
    if (head_ok && tail_ok) result.push_back(k);
  }
  return result;
}

ResourceVector TaskGraph::total_ct_requirement() const {
  ResourceVector total(schema_.size(), 0.0);
  for (const auto& c : cts_) total += c.requirement;
  return total;
}

double TaskGraph::total_tt_bits() const {
  double total = 0;
  for (const auto& t : tts_) total += t.bits_per_unit;
  return total;
}

void TaskGraph::require_finalized() const {
  if (!finalized_)
    throw std::logic_error("TaskGraph query before finalize()");
}

void TaskGraph::require_not_finalized() const {
  if (finalized_)
    throw std::logic_error("TaskGraph mutation after finalize()");
}

}  // namespace sparcle
