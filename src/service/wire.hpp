#pragma once

#include <map>
#include <string>

#include "service/scheduler_service.hpp"

/// \file wire.hpp
/// The placement service's dependency-free wire protocol: one request per
/// line, one response per line, each line a *flat* JSON object (string,
/// number, or boolean values only — no nesting, no arrays).  The subset is
/// small enough to parse with a hand-rolled scanner, which keeps the
/// service free of third-party JSON dependencies.  docs/service.md is the
/// protocol reference; requests:
///
///     {"verb":"submit","app":"app a be 2\n  ct f 4\n  ...\nend"}
///     {"verb":"remove","name":"a"}
///     {"verb":"query"}              — snapshot summary
///     {"verb":"query","name":"a"}   — one application's view
///     {"verb":"drain"}              — block until the queue empties
///     {"verb":"stats"}              — flat JSON health document (SLO state)
///     {"verb":"metrics"}            — Prometheus exposition in "body"
///
/// The `app` payload of submit is a scenario-format `app ... end` block
/// (workload::parse_apps_text / write_app_text) — the same text format
/// scenario files use, embedded as one JSON string.

namespace sparcle::service::wire {

/// Escapes `s` as the body of a JSON string (quotes, backslashes, control
/// characters; UTF-8 passes through).
std::string escape(const std::string& s);

/// Renders a flat string→string map as one JSON object line (values that
/// are valid JSON numbers or `true`/`false` are emitted unquoted).
std::string to_line(const std::map<std::string, std::string>& fields);

/// Parses one flat JSON object line into a string→string map (numbers and
/// booleans arrive as their raw text).  Throws std::runtime_error naming
/// the offending position on malformed input.
std::map<std::string, std::string> parse_line(const std::string& line);

/// The flat field map of a ServiceResult response:
/// `status`=admitted/..., `rate`, `availability`, `paths`, `latency_us`,
/// plus `reason` when non-empty.  Requests that reached the queue also
/// carry `trace_id` and the per-stage breakdown `queue_us`/`batch_us`/
/// `apply_us`/`solve_us`/`reply_us` (RequestTimeline — the stages sum to
/// latency_us).  Both codecs serialize this map: to_line for JSON,
/// binwire::encode for binary frames.
std::map<std::string, std::string> result_fields(const ServiceResult& result);

/// The `metrics` response fields: `status`=ok,
/// `format`=prometheus-0.0.4, and the multi-line exposition text in
/// `body`.  JSON clients recover the text by unescaping `body` (e.g.
/// `jq -r .body`); binary clients read it verbatim.
std::map<std::string, std::string> metrics_fields(const std::string& body);

/// The snapshot summary fields: `status`=ok, `version`, `apps`,
/// `total_gr_rate`, `total_be_rate`, `be_utility`.
std::map<std::string, std::string> snapshot_fields(const ServiceSnapshot& snap);

/// One application's snapshot view (`status`=ok, `name`, `class`,
/// `rate`, `paths`, and `min_rate` or `priority`), or
/// `status`=not_found when absent.
std::map<std::string, std::string> app_fields(const ServiceSnapshot& snap,
                                              const std::string& name);

/// An error response's fields: `status`=error, `reason`.
std::map<std::string, std::string> error_fields(const std::string& reason);

}  // namespace sparcle::service::wire
