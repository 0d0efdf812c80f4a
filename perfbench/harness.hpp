// Measurement helpers of the campaign-throughput benchmark: the tail-
// percentile rule, metric names and the result line, span self times, and
// the canonical form of an experiment record. Kept apart from the workload
// program so the self-tests can exercise them without running a campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/jsonl.hpp"

namespace perfbench {

/// Monotonic host seconds (steady_clock).
double now_s();

// --- percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the sample at rank ceil(permille * n / 1000) of
/// the sorted samples (1-based). `permille` is in (0, 1000]; 0 for no samples.
double percentile(std::vector<double> samples, unsigned permille);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 500);
}

struct TailPercentile {
  unsigned permille = 500;  // which percentile was taken (990 = p99)
  double value = 0.0;
  std::size_t samples = 0;  // sample count it was taken over
};

/// The highest percentile of the ladder p99.9, p99, p95, p90, p75, p50 that is
/// at most `cap_permille` and leaves at least ten samples beyond its rank.
/// Falls back to the median when even p50 has fewer than ten beyond.
TailPercentile tail_percentile(std::vector<double> samples, unsigned cap_permille = 990);

// --- metrics and the result line ------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
bool valid_metric_name(std::string_view name);

/// The benchmark's last stdout line:
///   {"correct": .., "attempted": .., "failed": ..,
///    "metrics": {name: {"value": v, "unit": u}, ...}}
/// Values print with every significant digit. Throws std::invalid_argument
/// on an invalid or repeated name or a non-finite value.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// --- spans -----------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span in the same vector
/// (-1 for a root); `exp` is the experiment id, -1 for set-up spans.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::int64_t exp = -1;

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Appends spans for one thread; kept in memory until the run ends.
class SpanRecorder {
 public:
  std::int64_t begin(const char* name, std::int64_t parent, std::int64_t exp = -1);
  void end(std::int64_t span);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Each span's duration minus the part of its interval covered by its
/// children (overlapping children, e.g. from parallel threads, count once).
std::vector<double> self_times(const std::vector<Span>& spans);

// --- experiment records ----------------------------------------------------

/// A parsed experiment record re-rendered with sorted keys and without the
/// fields that depend on host timing or scheduling (which worker ran it, wall
/// time, the fast-mode flag, and whether its restore was full or dirty-page):
/// equal for equal experiments on every path.
std::string canonical_record(gemfi::campaign::jsonl::Value record);

/// 64-bit FNV-1a, continuing from `h`.
std::uint64_t fnv1a(std::string_view data, std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench
