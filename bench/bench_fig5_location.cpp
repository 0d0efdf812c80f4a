// Fig. 5 reproduction: outcome distribution vs fault Location, per
// application plus the per-app Total column — the paper's central
// validation result (Sec. IV-B-2).
//
// For each app and each micro-architectural location we run a campaign of
// uniformly timed single-bit flips and print the outcome distribution.
// Shape targets from the paper:
//   * FP-register faults are the most benign everywhere; Deblocking (no FP
//     instructions) is 100% strict-correct there;
//   * integer-register faults crash most (gp/sp/ra/iterators), with
//     DCT/Jacobi roughly 2x the others;
//   * PC faults are almost always fatal;
//   * load/store-data faults are mostly benign (~78% correct in the paper);
//   * PI's decode-stage crash rate is about half the other apps' (almost no
//     memory accesses).
#include <cstdio>

#include "common.hpp"
#include "util/stats.hpp"

using namespace gemfi;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Fig. 5: application behavior vs fault-injection location");

  const auto cfg = opt.campaign_config();
  const std::size_t n = opt.per_cell(50, 8, 2504);
  std::printf("  experiments per (app, location) cell: %zu\n", n);
  std::printf("  paper-scale sizing per Leveugle/DATE'09 at 99%%/1%%: %zu (finite\n"
              "  population 2944) -- rerun with --full for that sample size\n\n",
              util::required_sample_size(2944, 0.01, 0.99));

  static constexpr fi::FaultLocation kLocations[] = {
      fi::FaultLocation::IntReg,  fi::FaultLocation::FpReg,
      fi::FaultLocation::Fetch,   fi::FaultLocation::Decode,
      fi::FaultLocation::Execute, fi::FaultLocation::LoadStore,
      fi::FaultLocation::PC,
  };
  static constexpr const char* kLocNames[] = {"int-reg", "fp-reg", "fetch", "decode",
                                              "execute", "ldst",   "pc"};

  for (const std::string& name : opt.app_list()) {
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    std::printf("-- %s (kernel: %llu fetched insts) --\n", name.c_str(),
                (unsigned long long)ca.kernel_fetches);
    bench::print_outcome_legend();

    campaign::CampaignReport total;
    util::Rng rng(opt.seed ^ std::hash<std::string>{}(name));
    for (unsigned li = 0; li < std::size(kLocations); ++li) {
      std::vector<fi::Fault> faults;
      faults.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        faults.push_back(campaign::random_fault(rng, kLocations[li], ca.kernel_fetches));
      const auto report = campaign::run_campaign(ca, faults, cfg);
      bench::print_outcome_row(name, kLocNames[li], report);
      for (unsigned o = 0; o < apps::kNumOutcomes; ++o) total.counts[o] += report.counts[o];
      total.wall_seconds += report.wall_seconds;
    }
    bench::print_outcome_row(name, "TOTAL", total);
    std::printf("  campaign wall time: %.1f s\n\n", total.wall_seconds);
  }
  return bench::json_write(opt.json, "fig5_location") ? 0 : 1;
}
