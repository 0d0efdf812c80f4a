// Checkpointed campaign on a (modeled) network of workstations — the
// paper's Sec. III-D/III-E workflow end to end:
//   1. calibrate the app, capturing the fi_read_init_all() checkpoint;
//   2. generate a uniformly random single-event-upset campaign;
//   3. run it locally without fast-forwarding, then fast-forwarded from the
//      checkpoint, then model the fast-forwarded run on the paper's NoW;
//   4. print the outcome distribution and the speedups (Fig. 8's story).
//
//   $ ./checkpoint_campaign [app] [n]      (defaults: pi, 24 experiments)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/now_runner.hpp"
#include "campaign/runner.hpp"

using namespace gemfi;

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "pi";
  const std::size_t n = argc > 2 ? std::size_t(std::atoll(argv[2])) : 24;

  campaign::CampaignConfig cfg;
  cfg.cpu = sim::CpuKind::Pipelined;
  cfg.switch_to_atomic_after_fault = true;
  cfg.workers = 2;

  std::printf("calibrating %s ...\n", app_name.c_str());
  const auto ca = campaign::calibrate(apps::build_app(app_name), cfg);
  std::printf("checkpoint: %zu bytes at tick %llu of %llu (init fraction %.2f)\n\n",
              ca.checkpoint.size_bytes(), (unsigned long long)ca.ticks_to_checkpoint,
              (unsigned long long)ca.golden_ticks,
              double(ca.ticks_to_checkpoint) / double(ca.golden_ticks));

  util::Rng rng(2026);
  std::vector<fi::Fault> faults;
  for (std::size_t i = 0; i < n; ++i)
    faults.push_back(campaign::random_fault_any(rng, ca.kernel_fetches));

  auto no_ff = cfg;
  no_ff.use_checkpoint = false;
  const auto slow = campaign::run_campaign(ca, faults, no_ff);

  auto ff = cfg;
  ff.use_checkpoint = true;
  const auto fast = campaign::run_campaign(ca, faults, ff);

  // 27 workstations x 4 slots, as in the paper, with a 0.05 s/MiB
  // checkpoint copy per workstation.
  std::vector<double> durations;
  for (const auto& er : fast.results) durations.push_back(er.wall_seconds);
  const double now_s =
      campaign::now_makespan(durations, 27, 4, ca.checkpoint.size_bytes(), 0.05);

  std::printf("outcomes over %zu experiments:\n", n);
  for (unsigned o = 0; o < apps::kNumOutcomes; ++o)
    std::printf("  %-18s %zu\n", apps::outcome_name(apps::Outcome(o)), fast.counts[o]);

  std::printf("\ncampaign times:\n");
  std::printf("  no fast-forward          %8.2f s\n", slow.wall_seconds);
  std::printf("  checkpoint fast-forward  %8.2f s  (%.1fx)\n", fast.wall_seconds,
              slow.wall_seconds / fast.wall_seconds);
  std::printf("  NoW 27x4 (modeled)       %8.3f s  (additional %.1fx)\n", now_s,
              fast.wall_seconds / now_s);
  return 0;
}
