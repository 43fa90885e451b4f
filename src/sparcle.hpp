#pragma once

/// \file sparcle.hpp
/// Umbrella header: everything a downstream user of the SPARCLE library
/// needs.  Include this (with `src/` on the include path, or link the
/// CMake targets which export it) instead of cherry-picking headers.
///
///   #include "sparcle.hpp"
///   using namespace sparcle;
///
/// Layering (see DESIGN.md):
///   obs/       — metrics registry, phase timers, decision log
///   model/     — task graphs, networks, capacities, placements
///   core/      — SPARCLE's algorithms and the admission scheduler
///   baselines/ — comparator algorithms (pull in via their own headers)
///   sim/       — discrete-event simulator
///   energy/    — power/efficiency model
///   workload/  — generators, scenario files, statistics

// Observability (docs/observability.md).
#include "obs/obs.hpp"

// Substrate types.
#include "model/application.hpp"
#include "model/capacity.hpp"
#include "model/dot_export.hpp"
#include "model/ids.hpp"
#include "model/network.hpp"
#include "model/placement.hpp"
#include "model/resource.hpp"
#include "model/task_graph.hpp"

// The paper's system.
#include "core/assignment.hpp"
#include "core/availability.hpp"
#include "core/capacity_planner.hpp"
#include "core/fairness.hpp"
#include "core/latency.hpp"
#include "core/local_search.hpp"
#include "core/parallel.hpp"
#include "core/prediction.hpp"
#include "core/provisioning.hpp"
#include "core/scheduler.hpp"
#include "core/sparcle_assigner.hpp"
#include "core/widest_path.hpp"

// Validation substrate.
#include "energy/energy_model.hpp"
#include "sim/churn_injector.hpp"
#include "sim/stream_simulator.hpp"

// Workload tooling.
#include "workload/rng.hpp"
#include "workload/scenario_io.hpp"
#include "workload/scenarios.hpp"
#include "workload/stats.hpp"
#include "workload/task_graphs.hpp"
#include "workload/topologies.hpp"
