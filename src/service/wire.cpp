#include "service/wire.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace sparcle::service::wire {
namespace {

/// Shortest representation of a double that round-trips (matches the
/// scenario writer's formatting).
std::string fmt(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

/// True when `s` can be emitted as a bare JSON token (number or boolean).
bool is_bare_token(const std::string& s) {
  if (s == "true" || s == "false") return true;
  if (s.empty()) return false;
  double parsed = 0.0;
  const auto [end, ec] =
      std::from_chars(s.data(), s.data() + s.size(), parsed);
  return ec == std::errc{} && end == s.data() + s.size();
}

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("wire: malformed request at offset " +
                           std::to_string(pos) + ": " + what);
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

/// Parses a JSON string starting at the opening quote; leaves `i` past the
/// closing quote.
std::string parse_string(const std::string& s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail(i, "expected '\"'");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i];
    if (c == '\\') {
      ++i;
      if (i >= s.size()) fail(i, "dangling escape");
      switch (s[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (i + 4 >= s.size()) fail(i, "truncated \\u escape");
          unsigned code = 0;
          for (int k = 1; k <= 4; ++k) {
            const char h = s[i + static_cast<std::size_t>(k)];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail(i, "bad \\u escape digit");
          }
          i += 4;
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are
          // not needed for this protocol's ASCII payloads).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(i, std::string("unknown escape '\\") + s[i] + "'");
      }
      ++i;
    } else {
      out += c;
      ++i;
    }
  }
  if (i >= s.size()) fail(i, "unterminated string");
  ++i;  // closing quote
  return out;
}

/// Parses a bare JSON token (number / true / false / null) as raw text.
std::string parse_bare(const std::string& s, std::size_t& i) {
  const std::size_t start = i;
  while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                          s[i] == '+' || s[i] == '-' || s[i] == '.')) {
    ++i;
  }
  if (i == start) fail(i, "expected a value");
  return s.substr(start, i - start);
}

}  // namespace

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_line(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape(key) + "\":";
    if (is_bare_token(value))
      out += value;
    else
      out += "\"" + escape(value) + "\"";
  }
  out += "}";
  return out;
}

std::map<std::string, std::string> parse_line(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') fail(i, "expected '{'");
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return out;
  for (;;) {
    skip_ws(line, i);
    const std::string key = parse_string(line, i);
    skip_ws(line, i);
    if (i >= line.size() || line[i] != ':') fail(i, "expected ':'");
    ++i;
    skip_ws(line, i);
    std::string value;
    if (i < line.size() && line[i] == '"')
      value = parse_string(line, i);
    else
      value = parse_bare(line, i);
    out[key] = std::move(value);
    skip_ws(line, i);
    if (i >= line.size()) fail(i, "unterminated object");
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    fail(i, "expected ',' or '}'");
  }
  return out;
}

std::map<std::string, std::string> result_fields(const ServiceResult& result) {
  std::map<std::string, std::string> fields;
  fields["status"] = to_string(result.status);
  if (!result.reason.empty()) fields["reason"] = result.reason;
  fields["rate"] = fmt(result.rate);
  fields["availability"] = fmt(result.availability);
  fields["paths"] = std::to_string(result.paths);
  fields["latency_us"] = fmt(result.latency_us);
  if (result.timeline.trace_id != 0) {
    fields["trace_id"] = std::to_string(result.timeline.trace_id);
    fields["queue_us"] = fmt(result.timeline.queue_us);
    fields["batch_us"] = fmt(result.timeline.batch_us);
    fields["apply_us"] = fmt(result.timeline.apply_us);
    fields["solve_us"] = fmt(result.timeline.solve_us);
    fields["reply_us"] = fmt(result.timeline.reply_us);
  }
  return fields;
}

std::map<std::string, std::string> metrics_fields(const std::string& body) {
  std::map<std::string, std::string> fields;
  fields["status"] = "ok";
  fields["format"] = "prometheus-0.0.4";
  fields["body"] = body;
  return fields;
}

std::map<std::string, std::string> snapshot_fields(
    const ServiceSnapshot& snap) {
  std::map<std::string, std::string> fields;
  fields["status"] = "ok";
  fields["version"] = std::to_string(snap.version);
  fields["apps"] = std::to_string(snap.apps.size());
  fields["total_gr_rate"] = fmt(snap.total_gr_rate);
  fields["total_be_rate"] = fmt(snap.total_be_rate);
  fields["be_utility"] = fmt(snap.be_utility);
  return fields;
}

std::map<std::string, std::string> app_fields(const ServiceSnapshot& snap,
                                              const std::string& name) {
  const AppView* view = snap.find(name);
  if (view == nullptr) {
    std::map<std::string, std::string> fields;
    fields["status"] = "not_found";
    fields["name"] = name;
    return fields;
  }
  std::map<std::string, std::string> fields;
  fields["status"] = "ok";
  fields["name"] = view->name;
  fields["class"] = view->guaranteed ? "gr" : "be";
  fields["rate"] = fmt(view->allocated_rate);
  fields["paths"] = std::to_string(view->paths);
  if (view->guaranteed)
    fields["min_rate"] = fmt(view->min_rate);
  else
    fields["priority"] = fmt(view->priority);
  return fields;
}

std::map<std::string, std::string> error_fields(const std::string& reason) {
  std::map<std::string, std::string> fields;
  fields["status"] = "error";
  fields["reason"] = reason;
  return fields;
}

}  // namespace sparcle::service::wire
