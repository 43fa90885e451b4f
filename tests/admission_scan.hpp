#pragma once

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "policy/policy.hpp"

/// \file admission_scan.hpp
/// Decision point 1 as it ran before admission queues were keyed: every
/// pop rebuilt the class's waiting applications in arrival order and
/// scanned them for the first strictly least feature of the policy's
/// rule (FIFO: the head; sjf: size; deadline: deadline; energy: bits).
/// Kept as the oracle for policy::AdmissionQueue; it knows the built-in
/// rules by name and never calls a policy.

namespace sparcle::testutil {

/// The feature the built-in policy `name` admits least-first.
inline double scan_feature(const std::string& name,
                           const policy::PendingApp& p) {
  if (name == "sjf") return p.size;
  if (name == "deadline") return p.deadline;
  if (name == "energy") return p.bits;
  return 0.0;  // "default": FIFO
}

/// Index in `pending` (arrival order, non-empty) the old scan admitted
/// next under the built-in policy `name`.
inline std::size_t scan_pick(const std::string& name,
                             const std::vector<policy::PendingApp>& pending) {
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < pending.size(); ++i)
    if (scan_feature(name, pending[i]) < scan_feature(name, pending[chosen]))
      chosen = i;
  return chosen;
}

/// The service's three queue classes under the old scan: control
/// requests (class 0) FIFO first, then each submit class (1 = GR, 2 = BE)
/// by scan_pick.  Entries are (class, id, features).
class ScanQueues {
 public:
  struct Entry {
    std::size_t cls{0};
    std::size_t id{0};
    policy::PendingApp features;
  };

  void push(Entry e) { classes_[e.cls].push_back(std::move(e)); }
  bool empty() const {
    return classes_[0].empty() && classes_[1].empty() && classes_[2].empty();
  }
  /// Pops the next entry's id (the queues must not be empty).
  std::size_t pop(const std::string& name) {
    for (std::size_t cls = 0; cls < 3; ++cls) {
      std::deque<Entry>& q = classes_[cls];
      if (q.empty()) continue;
      std::size_t pick = 0;
      if (cls != 0) {
        std::vector<policy::PendingApp> view;
        for (const Entry& e : q) view.push_back(e.features);
        pick = scan_pick(name, view);
      }
      const std::size_t id = q[pick].id;
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
      return id;
    }
    return 0;
  }

 private:
  std::deque<Entry> classes_[3];
};

}  // namespace sparcle::testutil
