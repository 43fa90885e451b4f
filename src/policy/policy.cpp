#include "policy/policy.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace sparcle::policy {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

bool is_gr(const Application* app) {
  return app != nullptr && app->qoe.cls == QoeClass::kGuaranteedRate;
}

/// GR rate still missing against the guarantee (0 for BE / covered apps).
double gr_shortfall(const RepairCandidate& c) {
  if (!is_gr(c.app)) return 0.0;
  const double missing = c.app->qoe.min_rate - c.allocated_rate;
  return missing > 0 ? missing : 0.0;
}

/// The DefaultPolicy a null policy resolves to (or_default()).
const std::shared_ptr<const SchedulingPolicy>& shared_default() {
  static const std::shared_ptr<const SchedulingPolicy> instance =
      std::make_shared<const DefaultPolicy>();
  return instance;
}

}  // namespace

// ---------------------------------------------------------------------------
// Base rules: the default policy's.

double SchedulingPolicy::admission_key(const PendingApp& pending) const {
  (void)pending;
  return 0.0;  // FIFO: the classic pipeline submits in arrival order
}

std::size_t SchedulingPolicy::select_ct(
    const SelectContext& ctx, const std::vector<CtCandidate>& candidates)
    const {
  // Initialize against ±infinity and take the first *strictly* better
  // candidate, so ties keep the lowest CT id.  Candidate 0 is the
  // fallback: a most-constrained round whose every γ is +∞ (zero-cost CTs
  // whose relatives share their host) still commits a CT.
  double best = ctx.most_constrained_pass ? kInf : -kInf;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double g = candidates[i].gamma;
    const bool better = ctx.most_constrained_pass ? g < best : g > best;
    if (better) {
      best = g;
      chosen = i;
    }
  }
  return chosen;
}

bool SchedulingPolicy::repair_before(const RepairCandidate& a,
                                     const RepairCandidate& b) const {
  // GR before BE; GR by descending guarantee; BE by descending priority.
  const bool ga = is_gr(a.app);
  const bool gb = is_gr(b.app);
  if (ga != gb) return ga;
  if (ga) return a.app->qoe.min_rate > b.app->qoe.min_rate;
  return a.app->qoe.priority > b.app->qoe.priority;
}

// ---------------------------------------------------------------------------
// Shortest-job-first.

double ShortestJobFirstPolicy::admission_key(const PendingApp& pending) const {
  return pending.size;
}

bool ShortestJobFirstPolicy::repair_before(const RepairCandidate& a,
                                           const RepairCandidate& b) const {
  const bool ga = is_gr(a.app);
  const bool gb = is_gr(b.app);
  if (ga != gb) return ga;  // guarantees are contractual: GR still first
  return a.size < b.size;   // then cheapest restore first within the class
}

// ---------------------------------------------------------------------------
// Deadline/latency-aware.

double DeadlineAwarePolicy::admission_key(const PendingApp& pending) const {
  // Earliest deadline first; equal deadlines (e.g. all patient) keep
  // arrival order.
  return pending.deadline;
}

bool DeadlineAwarePolicy::repair_before(const RepairCandidate& a,
                                        const RepairCandidate& b) const {
  // Most degraded first: GR apps by absolute shortfall, then BE apps with
  // zero alive paths (total outage) before partially served ones.
  const double sa = gr_shortfall(a);
  const double sb = gr_shortfall(b);
  if (sa != sb) return sa > sb;
  const bool oa = !is_gr(a.app) && a.alive_paths == 0;
  const bool ob = !is_gr(b.app) && b.alive_paths == 0;
  if (oa != ob) return oa;
  return SchedulingPolicy::repair_before(a, b);
}

// ---------------------------------------------------------------------------
// Energy-aware.

double EnergyAwarePolicy::admission_key(const PendingApp& pending) const {
  // Least radio-hungry first: Σ TT bits drives the tx/rx power term.
  return pending.bits;
}

std::size_t EnergyAwarePolicy::select_ct(
    const SelectContext& ctx,
    const std::vector<CtCandidate>& candidates) const {
  // Rate per incremental watt.  Placing CT i on host j costs the CPU term
  // cpu_full_load_watts * a_i / C_j plus the idle draw if j runs nothing
  // yet (EnergyModel charges idle only to occupied NCPs), so the policy
  // consolidates onto already-awake devices.  Infeasible candidates
  // (gamma <= 0) score -infinity so a feasible one always wins when any
  // exists — matching the default policy's preference for progress.
  if (ctx.net == nullptr || ctx.graph == nullptr || ctx.ct_host == nullptr)
    return SchedulingPolicy::select_ct(ctx, candidates);
  double best = -kInf;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CtCandidate& c = candidates[i];
    double score = -kInf;
    if (c.host != kInvalidId && c.gamma > 0) {
      bool occupied = false;
      for (const NcpId h : *ctx.ct_host)
        if (h == c.host) {
          occupied = true;
          break;
        }
      const double cap = ctx.net->ncp(c.host).capacity[0];
      const double req = ctx.graph->ct(c.ct).requirement[0];
      double watts = occupied ? 0.0 : profile_.idle_watts;
      if (cap > kEps) watts += profile_.cpu_full_load_watts * (req / cap);
      score = c.gamma / (watts + kEps);
    }
    if (score > best) {
      best = score;
      chosen = i;
    }
  }
  return chosen;
}

// ---------------------------------------------------------------------------
// Admission queues.

PendingApp pending_app(const Application& app, double deadline) {
  PendingApp p{.app = &app, .deadline = deadline};
  if (app.graph != nullptr) {
    const ResourceVector need = app.graph->total_ct_requirement();
    p.size = need.size() > 0 ? need[0] : 0.0;
    p.bits = app.graph->total_tt_bits();
  }
  return p;
}

QueueOrder queue_order(const SchedulingPolicy& policy,
                       const PendingApp& pending, std::size_t cls) {
  const double key = policy.admission_key(pending);
  return {cls, std::isnan(key) ? kInf : key};
}

// ---------------------------------------------------------------------------
// Registry.

const SchedulingPolicy& or_default(const SchedulingPolicy* p) {
  return p != nullptr ? *p : *shared_default();
}

std::shared_ptr<const SchedulingPolicy> or_default(
    std::shared_ptr<const SchedulingPolicy> p) {
  return p != nullptr ? std::move(p) : shared_default();
}

std::vector<std::string> policy_names() {
  return {"default", "sjf", "deadline", "energy"};
}

std::unique_ptr<SchedulingPolicy> make_policy(const std::string& name) {
  if (name == "default") return std::make_unique<DefaultPolicy>();
  if (name == "sjf") return std::make_unique<ShortestJobFirstPolicy>();
  if (name == "deadline") return std::make_unique<DeadlineAwarePolicy>();
  if (name == "energy") return std::make_unique<EnergyAwarePolicy>();
  std::string known;
  for (const std::string& n : policy_names())
    known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown scheduling policy '" + name +
                              "' (known: " + known + ")");
}

}  // namespace sparcle::policy
