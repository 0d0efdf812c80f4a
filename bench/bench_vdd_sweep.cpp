// Ablation / future-work bench (paper Sec. VII): the Vdd-vs-correctness
// sweep the paper's conclusion proposes. Not a figure of the paper — this is
// the study GemFI was built to enable: aggressively lower the supply
// voltage, let the exponential low-voltage upset model inject
// Poisson-distributed SEUs over the kernel, and chart relative power against
// the fraction of acceptable results per application.
#include <cstdio>

#include "common.hpp"
#include "fi/vdd_model.hpp"

using namespace gemfi;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Vdd sweep: power savings vs application correctness "
                      "(paper Sec. VII future work)");

  const auto cfg = opt.campaign_config();
  const std::size_t runs = opt.per_cell(20, 6, 200);
  const fi::VddModel model;
  const double levels[] = {1.00, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60};
  std::printf("  %zu runs per (app, Vdd) level; upset model: rate(vmin)=%g/inst,\n"
              "  exponential steepness beta=%g over [%.2f, %.2f] V\n\n",
              runs, model.config().rate_at_vmin, model.config().beta,
              model.config().vmin, model.config().vnom);

  const std::vector<std::string> sweep_apps =
      opt.apps.empty() ? std::vector<std::string>{"dct", "jacobi", "pi"} : opt.apps;

  for (const std::string& name : sweep_apps) {
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    std::printf("-- %s (kernel %llu insts) --\n", name.c_str(),
                (unsigned long long)ca.kernel_fetches);
    std::printf("%6s %8s %12s %10s %12s %8s\n", "Vdd", "power%", "upsets/run",
                "accept%", "crash%", "sdc%");
    util::Rng rng(opt.seed ^ std::hash<std::string>{}(name));
    const auto baseline = campaign::campaign_baseline(ca, cfg);
    campaign::ExperimentWorker ew(ca, baseline ? &*baseline : nullptr, cfg);
    for (const double vdd : levels) {
      std::size_t outcomes[apps::kNumOutcomes] = {};
      double total_faults = 0;
      for (std::size_t r = 0; r < runs; ++r) {
        const auto faults = model.sample_faults(rng, vdd, ca.kernel_fetches);
        total_faults += double(faults.size());
        if (faults.empty()) {
          ++outcomes[std::size_t(apps::Outcome::StrictlyCorrect)];
          continue;
        }
        // One experiment carries the whole Poisson batch of upsets.
        ++outcomes[std::size_t(ew.run(faults).classification.outcome)];
      }
      const double accept =
          double(outcomes[std::size_t(apps::Outcome::StrictlyCorrect)] +
                 outcomes[std::size_t(apps::Outcome::Correct)] +
                 outcomes[std::size_t(apps::Outcome::NonPropagated)]) /
          double(runs);
      std::printf("%6.2f %8.1f %12.2f %10.1f %12.1f %8.1f\n", vdd,
                  100.0 * model.relative_power(vdd), total_faults / double(runs),
                  100.0 * accept,
                  100.0 * double(outcomes[std::size_t(apps::Outcome::Crashed)]) / double(runs),
                  100.0 * double(outcomes[std::size_t(apps::Outcome::SDC)]) / double(runs));
    }
    std::printf("\n");
  }
  std::printf("  reading: each application has a voltage cliff — power falls\n"
              "  quadratically while correctness holds, then upsets pile up and\n"
              "  acceptability collapses; error-tolerant kernels ride lower Vdd.\n");
  return bench::json_write(opt.json, "vdd_sweep") ? 0 : 1;
}
