// gemfi_query — slice a campaign's JSONL results: `gemfi_cli --out` (local
// threads or the NoW master), `gemfi_submit --out` or the daemon's
// `<journal>/c<id>.results.jsonl`. Lines without an "index" (the calibration
// header, stop and summary records) are skipped; behavior and family come
// from re-parsing each record's fault line.
//
// Usage:
//   gemfi_query <file.jsonl>                     outcome histogram (default)
//   gemfi_query <file.jsonl> --by=outcome|location|behavior|family|timing|worker
//   gemfi_query <file.jsonl> --where=<col>=<value> [--where=...]  filter rows
//       columns: outcome, location, behavior, family (by name),
//                worker, applied (0/1), index
//   gemfi_query <file.jsonl> --count               just the row count
//   gemfi_query <file.jsonl> --rows [--limit=<n>]  dump matching rows as TSV
//
// Filters AND together. A non-finite metric or time_fraction (written as
// null) prints as nan. Exit codes: 0 ok, 2 bad usage, an unreadable file or
// a line that does not parse (named as path:line; nothing else is printed).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/jsonl.hpp"
#include "flag_parse.hpp"

using namespace gemfi;

namespace {

/// One experiment record, projected onto the columns worth slicing by.
struct Row {
  std::uint64_t index = 0;
  unsigned worker = 0;
  std::string outcome;
  std::string location;
  std::string behavior;
  std::string family;
  bool applied = false;
  unsigned retries = 0;
  double time_fraction = 0.0;
  double metric = 0.0;
  std::uint64_t sim_ticks = 0;
};

/// A column whose values are enum names: its Row member and every valid name.
struct NamedColumn {
  const char* name;
  std::string Row::*member;
  std::vector<std::string> names;
};

template <typename E>
std::vector<std::string> names_of(unsigned count, const char* (*name)(E)) {
  std::vector<std::string> out;
  for (unsigned i = 0; i < count; ++i) out.emplace_back(name(E(i)));
  return out;
}

const NamedColumn* named_column(const std::string& col) {
  static const NamedColumn columns[] = {
      {"outcome", &Row::outcome, names_of(apps::kNumOutcomes, apps::outcome_name)},
      {"location", &Row::location,
       names_of(fi::kNumFaultLocations, fi::fault_location_name)},
      {"behavior", &Row::behavior,
       names_of(fi::kNumFaultBehaviors, fi::fault_behavior_name)},
      {"family", &Row::family,
       names_of(fi::kNumFaultModelKinds, fi::fault_model_kind_name)},
  };
  for (const NamedColumn& c : columns)
    if (col == c.name) return &c;
  return nullptr;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <file.jsonl> [--by=outcome|location|behavior|family|"
               "timing|worker]\n"
               "          [--where=<col>=<value>]... [--count] [--rows] "
               "[--limit=<n>]\n",
               argv0);
  std::exit(2);
}

/// ObjectWriter renders a non-finite double as null.
double number_or_nan(const campaign::jsonl::Value& v) {
  return v.kind == campaign::jsonl::Value::Kind::Null
             ? std::numeric_limits<double>::quiet_NaN()
             : v.as_double();
}

Row row_from_record(const campaign::jsonl::Value& rec) {
  const fi::Fault fault = fi::parse_fault(rec.at("fault").as_string());
  Row r;
  r.index = rec.at("index").as_u64();
  r.worker = unsigned(rec.at("worker").as_u64());
  r.outcome = rec.at("outcome").as_string();
  r.location = rec.at("location").as_string();
  r.behavior = fi::fault_behavior_name(fault.behavior);
  r.family = fi::fault_model_kind_name(campaign::fault_family(fault));
  r.applied = rec.at("applied").as_bool();
  r.retries = unsigned(rec.at("retries").as_u64());
  r.time_fraction = number_or_nan(rec.at("time_fraction"));
  r.metric = number_or_nan(rec.at("metric"));
  r.sim_ticks = rec.at("sim_ticks").as_u64();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, by = "outcome";
  std::vector<std::pair<std::string, std::string>> wheres;
  bool count_only = false, dump_rows = false;
  std::uint64_t limit = ~0ull;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--by=", 0) == 0) by = arg.substr(5);
    else if (arg.rfind("--where=", 0) == 0) {
      const std::string w = arg.substr(8);
      const auto eq = w.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      wheres.emplace_back(w.substr(0, eq), w.substr(eq + 1));
    } else if (arg == "--count") count_only = true;
    else if (arg == "--rows") dump_rows = true;
    else if (arg.rfind("--limit=", 0) == 0)
      limit = cliflags::parse_u64_flag("limit", arg.substr(8));
    else if (arg.rfind("--", 0) == 0) usage(argv[0]);
    else if (path.empty()) path = arg;
    else usage(argv[0]);
  }
  if (path.empty()) usage(argv[0]);

  // Compile the filters against the enum names once, up front.
  std::vector<std::function<bool(const Row&)>> filters;
  for (const auto& [col, value] : wheres) {
    if (const NamedColumn* c = named_column(col)) {
      if (std::find(c->names.begin(), c->names.end(), value) == c->names.end()) {
        std::fprintf(stderr, "unknown %s '%s'; one of:", c->name, value.c_str());
        for (const std::string& n : c->names) std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
      }
      filters.emplace_back(
          [m = c->member, v = value](const Row& r) { return r.*m == v; });
    } else if (col == "worker") {
      const unsigned w = cliflags::parse_u32_flag("where", value);
      filters.emplace_back([w](const Row& r) { return r.worker == w; });
    } else if (col == "applied") {
      const bool a = cliflags::parse_u32_flag("where", value) != 0;
      filters.emplace_back([a](const Row& r) { return r.applied == a; });
    } else if (col == "index") {
      const std::uint64_t idx = cliflags::parse_u64_flag("where", value);
      filters.emplace_back([idx](const Row& r) { return r.index == idx; });
    } else {
      usage(argv[0]);
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "gemfi_query: %s: cannot open\n", path.c_str());
    return 2;
  }
  std::vector<Row> rows;
  std::size_t total = 0;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    try {
      const campaign::jsonl::Value rec = campaign::jsonl::parse(line);
      if (!rec.has("index")) continue;
      ++total;
      Row r = row_from_record(rec);
      bool keep = true;
      for (const auto& f : filters)
        if (!f(r)) { keep = false; break; }
      if (keep) rows.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemfi_query: %s:%zu: %s\n", path.c_str(), lineno,
                   e.what());
      return 2;
    }
  }

  if (count_only) {
    std::printf("%zu\n", rows.size());
    return 0;
  }
  if (dump_rows) {
    std::printf("index\tworker\toutcome\tlocation\tbehavior\tfamily\tapplied\t"
                "retries\ttime_fraction\tmetric\tsim_ticks\n");
    std::uint64_t printed = 0;
    for (const Row& r : rows) {
      if (printed++ >= limit) break;
      std::printf("%llu\t%u\t%s\t%s\t%s\t%s\t%d\t%u\t%.6f\t%.6f\t%llu\n",
                  (unsigned long long)r.index, r.worker, r.outcome.c_str(),
                  r.location.c_str(), r.behavior.c_str(), r.family.c_str(),
                  int(r.applied), r.retries, r.time_fraction, r.metric,
                  (unsigned long long)r.sim_ticks);
    }
    return 0;
  }

  // Histogram over the requested dimension.
  const NamedColumn* by_named = named_column(by);
  std::map<std::string, std::uint64_t> hist;
  for (const Row& r : rows) {
    std::string key;
    if (by_named != nullptr) key = r.*by_named->member;
    else if (by == "worker") key = "worker " + std::to_string(r.worker);
    else if (by == "timing") {
      const double tf = r.time_fraction;
      // A nan fraction (null in the record) lands in the first bin.
      unsigned bin = tf >= 1.0 ? campaign::kNumTimingBins - 1
                     : !(tf >= 0.0) ? 0
                                    : unsigned(tf * campaign::kNumTimingBins);
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.1f-%.1f",
                    double(bin) / campaign::kNumTimingBins,
                    double(bin + 1) / campaign::kNumTimingBins);
      key = buf;
    } else usage(argv[0]);
    ++hist[key];
  }
  for (const auto& [key, n] : hist)
    std::printf("%-20s %8llu  %5.1f%%\n", key.c_str(), (unsigned long long)n,
                rows.empty() ? 0.0 : 100.0 * double(n) / double(rows.size()));
  std::fprintf(stderr, "%zu/%zu rows (%zu groups)\n", rows.size(), total,
               hist.size());
  return 0;
}
