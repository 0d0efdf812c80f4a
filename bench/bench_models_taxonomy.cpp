// Fault-model taxonomy: outcome distribution vs fault MODEL, per
// application — the Fig. 4/5-style experiment extended beyond the paper's
// transient SEUs to the full model family (stuck-at, intermittent, burst,
// attack).
//
// For each app and each model family we run a campaign of seeded random
// faults drawn by campaign::random_model_fault and print the outcome
// distribution. Shape expectations:
//   * transient rows reproduce the paper's Fig. 5 Total columns;
//   * stuck-at (permanent, re-asserted every boundary) crashes or corrupts
//     far more often than a one-shot transient at the same location;
//   * intermittent falls between the two, scaling with its duty fraction;
//   * burst (multi-bit) faults lower the non-propagated fraction — wider
//     corruption is harder to mask;
//   * attack experiments (instruction skip / opcode corruption) report in
//     the attack% column: runs that terminated normally with an altered
//     output, the adversary's success criterion. The aes app is the natural
//     target here (differential fault analysis needs exactly such runs).
#include <cstdio>

#include "common.hpp"

using namespace gemfi;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Fault-model taxonomy: outcome distribution vs fault model");

  const auto cfg = opt.campaign_config();
  const std::size_t n = opt.per_cell(40, 8, 500);
  std::printf("  experiments per (app, model) cell: %zu\n\n", n);

  for (const std::string& name : opt.app_list()) {
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    std::printf("-- %s (kernel: %llu fetched insts) --\n", name.c_str(),
                (unsigned long long)ca.kernel_fetches);
    bench::print_outcome_legend();

    campaign::CampaignReport total;
    util::Rng rng(opt.seed ^ std::hash<std::string>{}(name));
    for (unsigned ki = 0; ki < fi::kNumFaultModelKinds; ++ki) {
      const auto kind = static_cast<fi::FaultModelKind>(ki);
      std::vector<fi::Fault> faults;
      faults.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        faults.push_back(campaign::random_model_fault(rng, kind, ca.kernel_fetches));
      const auto report = campaign::run_campaign(ca, faults, cfg);
      bench::print_outcome_row(name, fi::fault_model_kind_name(kind), report);
      for (unsigned o = 0; o < apps::kNumOutcomes; ++o) total.counts[o] += report.counts[o];
      total.wall_seconds += report.wall_seconds;
    }
    bench::print_outcome_row(name, "TOTAL", total);
    std::printf("  campaign wall time: %.1f s\n\n", total.wall_seconds);
  }
  return bench::json_write(opt.json, "models_taxonomy") ? 0 : 1;
}
