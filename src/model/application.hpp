#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "model/ids.hpp"
#include "model/task_graph.hpp"

/// \file application.hpp
/// A stream-processing application request: a task graph plus the QoE
/// contract of §III-A (Best-Effort priority / availability, or
/// Guaranteed-Rate minimum rate / min-rate availability) and the pinning
/// of its source and sink CTs to predetermined hosts (footnote 1).

namespace sparcle {

/// QoE service class (§III-A).
enum class QoeClass {
  kBestEffort,      ///< no rate floor; weighted-proportional-fair share
  kGuaranteedRate,  ///< minimum rate for a minimum fraction of time
};

/// The QoE contract an application requests.
struct QoeSpec {
  QoeClass cls{QoeClass::kBestEffort};  ///< which service class applies

  // Best-Effort fields.
  double priority{1.0};          ///< P_j, relative weight among BE apps
  double availability{0.0};      ///< A_j, required P(>=1 path works); 0 = none

  // Guaranteed-Rate fields.
  double min_rate{0.0};              ///< R_j, data units per second
  double min_rate_availability{0.0}; ///< A_j, required P(rate >= R_j)

  /// A Best-Effort contract with relative weight `priority`.
  static QoeSpec best_effort(double priority, double availability = 0.0) {
    QoeSpec q;
    q.cls = QoeClass::kBestEffort;
    q.priority = priority;
    q.availability = availability;
    return q;
  }
  /// A Guaranteed-Rate contract: `min_rate` sustained with probability
  /// at least `min_rate_availability`.
  static QoeSpec guaranteed_rate(double min_rate,
                                 double min_rate_availability) {
    QoeSpec q;
    q.cls = QoeClass::kGuaranteedRate;
    q.min_rate = min_rate;
    q.min_rate_availability = min_rate_availability;
    return q;
  }
};

/// An application request.  The task graph is shared (several scheduler
/// components hold references to it while paths accumulate).
struct Application {
  std::string name;                        ///< unique label among submissions
  std::shared_ptr<const TaskGraph> graph;  ///< finalized processing DAG
  QoeSpec qoe;                             ///< requested service contract
  /// Predetermined hosts: typically every source CT (camera/sensor site)
  /// and every sink CT (result consumer) must appear here.
  std::map<CtId, NcpId> pinned;

  /// Validates that the graph is finalized, that all sources and sinks
  /// are pinned, that the class's priority or min rate is finite and
  /// positive, and that both availability targets lie in [0, 1]; throws
  /// std::invalid_argument otherwise.
  void validate() const {
    if (!graph || !graph->finalized())
      throw std::invalid_argument("application '" + name +
                                  "' has no finalized task graph");
    for (CtId s : graph->sources())
      if (!pinned.contains(s))
        throw std::invalid_argument("application '" + name +
                                    "': source CT '" + graph->ct(s).name +
                                    "' is not pinned to a data source NCP");
    for (CtId s : graph->sinks())
      if (!pinned.contains(s))
        throw std::invalid_argument("application '" + name + "': sink CT '" +
                                    graph->ct(s).name +
                                    "' is not pinned to a consumer NCP");
    const auto finite_positive = [](double v) {
      return std::isfinite(v) && v > 0;
    };
    if (qoe.cls == QoeClass::kBestEffort && !finite_positive(qoe.priority))
      throw std::invalid_argument("application '" + name +
                                  "': BE priority must be finite and positive");
    if (qoe.cls == QoeClass::kGuaranteedRate && !finite_positive(qoe.min_rate))
      throw std::invalid_argument("application '" + name +
                                  "': GR min rate must be finite and positive");
    if (!(qoe.availability >= 0 && qoe.availability <= 1) ||
        !(qoe.min_rate_availability >= 0 && qoe.min_rate_availability <= 1))
      throw std::invalid_argument("application '" + name +
                                  "': availability must lie in [0, 1]");
  }
};

}  // namespace sparcle
