// Shared scaffolding for the per-figure/table bench binaries.
//
// Every bench accepts:
//   --quick        smallest sample sizes (CI smoke run)
//   --full         paper-scale inputs and Leveugle 99%/1% sample sizes
//   --n=<count>    override experiments per cell
//   --apps=a,b,c   restrict the benchmark set
//   --seed=<u64>   campaign RNG seed
//   --workers=<k>  local experiment parallelism (default: hardware)
//   --json=<path>  additionally write every reported metric as a
//                  BENCH_<name>.json machine-readable record
// Default (no flags) is sized to finish on one core in a few minutes while
// preserving the shape of the paper's results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/now_runner.hpp"
#include "campaign/runner.hpp"

namespace gemfi::bench {

struct Options {
  bool quick = false;
  bool full = false;
  std::uint64_t n_override = 0;
  std::vector<std::string> apps;  // empty = every registered app
  std::uint64_t seed = 20260706;
  unsigned workers = 0;  // 0 = hardware_concurrency
  std::string json;  // empty = no JSON output

  /// Experiments per cell for a given default/quick/full sizing.
  [[nodiscard]] std::size_t per_cell(std::size_t dflt, std::size_t quick_n,
                                     std::size_t full_n) const {
    if (n_override != 0) return std::size_t(n_override);
    if (quick) return quick_n;
    if (full) return full_n;
    return dflt;
  }

  [[nodiscard]] apps::AppScale scale() const {
    apps::AppScale s;
    s.paper = full;
    return s;
  }

  [[nodiscard]] campaign::CampaignConfig campaign_config() const;

  [[nodiscard]] std::vector<std::string> app_list() const;
};

Options parse_options(int argc, char** argv);

/// "name  12.3%  4.5% ..." row printing helpers. print_outcome_row also
/// feeds the JSON sink under the config key "<app>/<row>", so campaign
/// benches get machine-readable records without per-bench plumbing.
void print_header(const std::string& title);
void print_outcome_row(const std::string& app, const std::string& row,
                       const campaign::CampaignReport& report);
void print_outcome_legend();

// --- machine-readable results (--json=<path>) ---
//
// Benches report human-readable tables on stdout; with --json=<path> they
// additionally write every metric as one JSON record so campaign drivers and
// CI can consume results without screen-scraping:
//   {"bench": "BENCH_<name>", "records": [
//      {"metric": "...", "value": 1.25e7, "unit": "...", "config": "..."}]}

/// Append one record to the process-wide sink. Cheap; records are only
/// serialized if json_write() runs with a non-empty path.
void json_record(const std::string& metric, double value, const std::string& unit,
                 const std::string& config);

/// Serialize all recorded metrics to `path` as a BENCH_<name>.json document
/// and verify the written bytes parse (campaign::jsonl::parse). No-op
/// (returning true) when `path` is empty; returns false on I/O or self-check
/// failure.
bool json_write(const std::string& path, const std::string& bench_name);

}  // namespace gemfi::bench
