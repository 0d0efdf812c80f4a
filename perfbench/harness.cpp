#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace jsonl = gemfi::campaign::jsonl;

double now_s() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

namespace {

std::size_t nearest_rank(std::size_t n, unsigned permille) {
  const std::size_t rank = (std::size_t(permille) * n + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void render(const jsonl::Value& v, std::string& out) {
  using Kind = jsonl::Value::Kind;
  switch (v.kind) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += v.boolean ? "true" : "false"; return;
    case Kind::Number: out += v.text; return;
    case Kind::String: out += '"' + jsonl::escape(v.text) + '"'; return;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ',';
        render(v.array[i], out);
      }
      out += ']';
      return;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : v.object) {  // std::map: sorted keys
        if (!first) out += ',';
        first = false;
        out += '"' + jsonl::escape(key) + "\":";
        render(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

double percentile(std::vector<double> samples, unsigned permille) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), permille);
  const auto nth = samples.begin() + std::ptrdiff_t(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return samples[rank - 1];
}

TailPercentile tail_percentile(std::vector<double> samples, unsigned cap_permille) {
  static constexpr unsigned kLadder[] = {999, 990, 950, 900, 750, 500};
  const std::size_t n = samples.size();
  unsigned chosen = 500;
  for (const unsigned p : kLadder) {
    if (p > cap_permille || n == 0) continue;
    if (n - nearest_rank(n, p) >= 10) {
      chosen = p;
      break;
    }
  }
  return {chosen, percentile(std::move(samples), chosen), n};
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name))
      throw std::invalid_argument("bad metric name: " + m.name);
    if (!seen.insert(m.name).second)
      throw std::invalid_argument("repeated metric name: " + m.name);
    if (i) out += ", ";
    out += '"' + m.name + "\": {\"value\": " + format_number(m.value) + ", \"unit\": \"" +
           jsonl::escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

std::int64_t SpanRecorder::begin(const char* name, std::int64_t parent,
                                 std::int64_t exp) {
  const double t = now_s();
  spans_.push_back({name, t, t, parent, exp});
  return std::int64_t(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t span) { spans_[std::size_t(span)].end = now_s(); }

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && std::size_t(p) < spans.size()) children[std::size_t(p)].push_back(i);
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const double lo = std::max(spans[c].start, s.start);
      const double hi = std::min(spans[c].end, s.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double total = 0.0;
    double reach = s.start;  // end of the union merged so far
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      total += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = s.duration() - total;
  }
  return self;
}

std::string canonical_record(jsonl::Value record) {
  for (const char* key :
       {"worker", "wall_seconds", "fastmode", "restore_pages", "restore_bytes"})
    record.object.erase(key);
  std::string out;
  render(record, out);
  return out;
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h) {
  for (const char c : data) {
    h ^= std::uint8_t(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
