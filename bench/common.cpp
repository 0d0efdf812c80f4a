#include "common.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace gemfi::bench {

campaign::CampaignConfig Options::campaign_config() const {
  campaign::CampaignConfig cfg;
  cfg.cpu = sim::CpuKind::Pipelined;
  cfg.switch_to_atomic_after_fault = true;
  cfg.use_checkpoint = true;
  cfg.workers = workers == 0 ? std::max(1u, std::thread::hardware_concurrency()) : workers;
  cfg.predecode = predecode;
  cfg.fastpath = fastpath;
  cfg.fastmode = fastmode;
  return cfg;
}

std::vector<std::string> Options::app_list() const {
  return apps.empty() ? apps::app_names() : apps;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg.rfind("--n=", 0) == 0) {
      opt.n_override = std::strtoull(arg.c_str() + 4, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers = unsigned(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg == "--no-predecode") {
      opt.predecode = false;
    } else if (arg == "--no-fastpath") {
      opt.fastpath = false;
    } else if (arg == "--no-fastmode") {
      opt.fastmode = false;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json = arg.substr(7);
    } else if (arg.rfind("--apps=", 0) == 0) {
      std::string list = arg.substr(7);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        opt.apps.push_back(list.substr(pos, comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --quick | --full | --n=<count> | --apps=a,b,c | "
          "--seed=<u64> | --workers=<k> | --no-predecode | --no-fastpath | "
          "--no-fastmode | --json=<path>\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_outcome_legend() {
  std::printf("%-22s %8s %8s %8s %8s %8s %8s %8s %8s\n", "cell", "crash%", "nonprop%",
              "strict%", "correct%", "sdc%", "tmout%", "attack%", "n");
}

void print_outcome_row(const std::string& app, const std::string& row,
                       const campaign::CampaignReport& report) {
  const std::string label = app + "/" + row;
  std::printf("  %-20s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8zu\n", row.c_str(),
              100.0 * report.fraction(apps::Outcome::Crashed),
              100.0 * report.fraction(apps::Outcome::NonPropagated),
              100.0 * report.fraction(apps::Outcome::StrictlyCorrect),
              100.0 * report.fraction(apps::Outcome::Correct),
              100.0 * report.fraction(apps::Outcome::SDC),
              100.0 * report.fraction(apps::Outcome::Timeout),
              100.0 * report.fraction(apps::Outcome::AttackEffective), report.total());
  const struct {
    const char* metric;
    apps::Outcome outcome;
  } cols[] = {{"crash_pct", apps::Outcome::Crashed},
              {"nonprop_pct", apps::Outcome::NonPropagated},
              {"strict_pct", apps::Outcome::StrictlyCorrect},
              {"correct_pct", apps::Outcome::Correct},
              {"sdc_pct", apps::Outcome::SDC},
              {"timeout_pct", apps::Outcome::Timeout},
              {"attack_pct", apps::Outcome::AttackEffective}};
  for (const auto& c : cols) json_record(c.metric, 100.0 * report.fraction(c.outcome), "%", label);
  json_record("experiments", double(report.total()), "count", label);
  json_record("wall_seconds", report.wall_seconds, "s", label);
}

// --- JSON sink --------------------------------------------------------------

namespace {

std::vector<std::array<std::string, 4>>& json_records() {
  static std::vector<std::array<std::string, 4>> records;
  return records;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Recursive-descent JSON value parser over [p, end); advances p past the
/// value and returns false on any syntax violation.
bool parse_value(const char*& p, const char* end, int depth);

void skip_ws(const char*& p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
}

bool parse_string(const char*& p, const char* end) {
  if (p == end || *p != '"') return false;
  for (++p; p != end; ++p) {
    if (*p == '\\') {
      if (++p == end) return false;  // escape consumes one char (enough here)
    } else if (*p == '"') {
      ++p;
      return true;
    } else if (static_cast<unsigned char>(*p) < 0x20) {
      return false;
    }
  }
  return false;
}

bool parse_number(const char*& p, const char* end) {
  const char* start = p;
  if (p != end && *p == '-') ++p;
  while (p != end && (std::isdigit(static_cast<unsigned char>(*p)) || *p == '.' || *p == 'e' ||
                      *p == 'E' || *p == '+' || *p == '-'))
    ++p;
  if (p == start) return false;
  char* parsed = nullptr;
  std::strtod(start, &parsed);
  return parsed == p;
}

bool parse_value(const char*& p, const char* end, int depth) {
  if (depth > 64) return false;
  skip_ws(p, end);
  if (p == end) return false;
  if (*p == '"') return parse_string(p, end);
  if (*p == '{' || *p == '[') {
    const char open = *p;
    const char close = open == '{' ? '}' : ']';
    ++p;
    skip_ws(p, end);
    if (p != end && *p == close) {
      ++p;
      return true;
    }
    while (true) {
      if (open == '{') {
        skip_ws(p, end);
        if (!parse_string(p, end)) return false;
        skip_ws(p, end);
        if (p == end || *p != ':') return false;
        ++p;
      }
      if (!parse_value(p, end, depth + 1)) return false;
      skip_ws(p, end);
      if (p == end) return false;
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == close) {
        ++p;
        return true;
      }
      return false;
    }
  }
  for (const char* kw : {"true", "false", "null"}) {
    const std::size_t len = std::strlen(kw);
    if (std::size_t(end - p) >= len && std::memcmp(p, kw, len) == 0) {
      p += len;
      return true;
    }
  }
  return parse_number(p, end);
}

}  // namespace

void json_record(const std::string& metric, double value, const std::string& unit,
                 const std::string& config) {
  char num[64];
  // NaN/inf have no JSON number representation; emit null rather than a
  // document the self-check would reject.
  if (std::isfinite(value))
    std::snprintf(num, sizeof num, "%.17g", value);
  else
    std::snprintf(num, sizeof num, "null");
  json_records().push_back({metric, num, unit, config});
}

bool json_valid(const std::string& text) {
  const char* p = text.data();
  const char* end = p + text.size();
  if (!parse_value(p, end, 0)) return false;
  skip_ws(p, end);
  return p == end;  // exactly one top-level value
}

bool json_write(const std::string& path, const std::string& bench_name) {
  if (path.empty()) return true;
  std::string doc = "{\"bench\": \"BENCH_" + json_escape(bench_name) + "\", \"records\": [";
  bool first = true;
  for (const auto& r : json_records()) {
    if (!first) doc += ',';
    first = false;
    doc += "\n  {\"metric\": \"" + json_escape(r[0]) + "\", \"value\": " + r[1] +
           ", \"unit\": \"" + json_escape(r[2]) + "\", \"config\": \"" + json_escape(r[3]) +
           "\"}";
  }
  doc += "\n]}\n";
  if (!json_valid(doc)) {
    std::fprintf(stderr, "json_write: self-check failed, refusing to write %s\n", path.c_str());
    return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(doc.data(), std::streamsize(doc.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "json_write: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace gemfi::bench
