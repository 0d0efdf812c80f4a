// Fig. 8 reproduction: effect of the GemFI optimizations on fault-injection
// campaign execution time (paper Sec. V, log-scale chart):
//   1. campaign without fast-forwarding (every experiment re-simulates boot
//      + application initialization);
//   2. campaign fast-forwarded from the fi_read_init_all() checkpoint
//      (paper: 3x-244x, average 64.5x, depending on the pre/post-checkpoint
//      time ratio);
//   3. campaign on a network of 27 workstations x 4 slots (paper: a further
//      ~108x, consistent with the number of simultaneous experiments).
//
// One host cannot provide 108 cores, so (3) reports two numbers side by
// side: the modeled makespan of the measured per-experiment durations on the
// paper's cluster geometry (campaign/now_runner.hpp), and the *measured*
// wall time of a real multi-process run through the NoW dispatch service
// (campaign/dispatch.hpp: a TCP master plus forked worker processes, each
// restoring the shipped checkpoint). On a many-core host the measured
// column approaches workers x slots; on the paper's 27x4 cluster the same
// service is what would deliver the ~108x.
// A fourth section, "sequential sizing", reproduces the statistical side of
// campaign cost (EXPERIMENTS.md): the fixed design runs
// util::required_sample_size(...) experiments (Leveugle's worst-case p=0.5
// formula); the sequential rule (campaign::Aggregator, --stop-ci) stops the
// same seeded campaign at the first index-ordered prefix whose
// finite-population-corrected Wilson half-widths all fit eps@conf. The bench
// runs the full fixed campaign once, replays it through the aggregator to
// find the stop index, and reports experiments saved plus the worst-case
// disagreement between the stop-prefix and full-campaign proportions.
// GEMFI_SEQ_SIZING=EPS@CONF overrides the per-mode default (quick/default:
// 0.05@0.95; --full: the paper-scale 0.01@0.99).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/observer.hpp"
#include "common.hpp"
#include "util/stats.hpp"

using namespace gemfi;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Fig. 8: campaign time without/with checkpointing and on a NoW");

  const std::size_t n = opt.per_cell(12, 4, 200);
  std::printf("  experiments per campaign: %zu (paper: ~2500)\n\n", n);
  // Measured NoW geometry: small enough to run everywhere, real enough to
  // show multi-process scaling when cores exist.
  const unsigned now_workers = 4, now_slots = 1;
  std::printf("%-10s %12s %12s %10s %14s %10s %12s %10s %12s\n", "app", "no-ff(s)",
              "ckpt(s)", "speedup", "now-model(s)", "now-par", "now-meas(s)",
              "meas-par", "init-frac");

  // Sequential-sizing policy: paper precision under --full, a CI-sized
  // 95%/5% otherwise; GEMFI_SEQ_SIZING=EPS@CONF overrides either.
  campaign::StopPolicy seq_policy;
  if (const char* env = std::getenv("GEMFI_SEQ_SIZING")) {
    seq_policy = campaign::parse_stop_ci(env);
  } else {
    seq_policy = opt.full ? campaign::parse_stop_ci("0.01@0.99")
                          : campaign::parse_stop_ci("0.05@0.95");
  }
  // Fixed comparator: Leveugle's worst-case (p = 0.5) sample size over an
  // effectively unbounded fault space (fetch x bit x cycle); 1e9 is within
  // 0.02% of the infinite-population (t/2e)^2.
  const std::size_t seq_fixed_n = util::required_sample_size(
      1'000'000'000ull, seq_policy.eps, seq_policy.confidence);

  auto cfg = opt.campaign_config();
  // GEMFI_JSONL=<path-prefix> streams per-experiment telemetry records from
  // the checkpointed campaign of every app to <prefix>-<app>.jsonl.
  const char* jsonl_prefix = std::getenv("GEMFI_JSONL");
  for (const std::string& name : opt.app_list()) {
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    // Per-experiment seeding: experiment i of this campaign is replayable in
    // isolation via `gemfi_cli --app=<name> --replay=i --seed=<seed>`.
    const std::uint64_t app_seed = opt.seed ^ (std::hash<std::string>{}(name) * 7);
    cfg.campaign_seed = app_seed;
    const auto faults = campaign::seeded_fault_set(app_seed, n, ca.kernel_fetches);

    auto no_ff_cfg = cfg;
    no_ff_cfg.use_checkpoint = false;
    const auto no_ff = campaign::run_campaign(ca, faults, no_ff_cfg);

    auto ff_cfg = cfg;
    ff_cfg.use_checkpoint = true;
    std::unique_ptr<campaign::JsonlSink> sink;
    if (jsonl_prefix) {
      sink = std::make_unique<campaign::JsonlSink>(std::string(jsonl_prefix) + "-" +
                                                   name + ".jsonl");
      ff_cfg.observer = sink.get();
    }
    const auto ff = campaign::run_campaign(ca, faults, ff_cfg);
    ff_cfg.observer = nullptr;

    // Modeled: the checkpointed run's own experiment durations on the
    // paper's 27 workstations x 4 slots, plus a 0.05 s/MiB checkpoint copy.
    std::vector<double> durations;
    for (const auto& er : ff.results) durations.push_back(er.wall_seconds);
    const double now_model =
        campaign::now_makespan(durations, 27, 4, ca.checkpoint.size_bytes(), 0.05);

    // Measured: the same campaign through the real dispatch service with
    // forked loopback worker processes (checkpoint shipped over TCP).
    const auto meas =
        campaign::run_campaign_service_local(ca, opt.scale(), faults, ff_cfg,
                                             now_workers, now_slots);

    const double ckpt_speedup = ff.wall_seconds > 0 ? no_ff.wall_seconds / ff.wall_seconds : 0;
    // Effective parallelism on the cluster: total serial experiment work
    // divided by the modeled makespan. Saturates at min(n, 108); the paper's
    // ~108x needs campaigns much longer than the slot count (theirs: ~2500).
    double total_work = 0;
    for (const double d : durations) total_work += d;
    const double now_par = now_model > 0 ? total_work / now_model : 0;
    // Measured effective parallelism: serial work done by the worker
    // processes divided by the service's wall time (bounded by host cores).
    // The dispatch master streams results without retaining them, so the
    // serial-work sum comes from its incremental accumulator.
    const double meas_par = meas.wall_seconds > 0
                                ? meas.experiment_wall_seconds / meas.wall_seconds
                                : 0;
    const double init_frac = double(ca.ticks_to_checkpoint) / double(ca.golden_ticks);
    std::printf("%-10s %12.2f %12.2f %9.1fx %14.3f %9.1fx %12.2f %9.1fx %12.2f\n",
                name.c_str(), no_ff.wall_seconds, ff.wall_seconds, ckpt_speedup,
                now_model, now_par, meas.wall_seconds, meas_par,
                init_frac);
    bench::json_record("noff_wall_seconds", no_ff.wall_seconds, "s", name);
    bench::json_record("ckpt_wall_seconds", ff.wall_seconds, "s", name);
    bench::json_record("ckpt_speedup", ckpt_speedup, "x", name);
    bench::json_record("now_modeled_makespan_seconds", now_model, "s", name);
    bench::json_record("now_measured_wall_seconds", meas.wall_seconds, "s",
                       name + "/w" + std::to_string(now_workers));
    bench::json_record("now_measured_parallelism", meas_par, "x",
                       name + "/w" + std::to_string(now_workers));

    // Sanity: outcome distributions must agree between all three run modes.
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o) {
      if (no_ff.counts[o] != ff.counts[o] || ff.counts[o] != meas.campaign.counts[o]) {
        std::printf("  WARNING: outcome mismatch between campaign modes (class %u)\n", o);
        break;
      }
    }

    // --- Sequential sizing: run the fixed-size campaign once, replay it in
    // index order through the aggregator, and compare the stop prefix's
    // answer with the full campaign's. The bench pays the full fixed cost to
    // *validate* agreement; production campaigns stop at seq-n.
    const auto seq_faults =
        campaign::seeded_fault_set(app_seed, seq_fixed_n, ca.kernel_fetches);
    const auto seq = campaign::run_campaign(ca, seq_faults, ff_cfg);
    campaign::Aggregator agg(seq_policy, seq_faults.size());
    double stop_wall = 0.0;
    for (std::size_t i = 0; i < seq.results.size(); ++i) {
      campaign::ExperimentRecord rec;
      rec.index = i;
      rec.seed = campaign::experiment_seed(ff_cfg.campaign_seed, i);
      rec.result = seq.results[i];
      agg.add(rec);
      if (!agg.should_stop()) stop_wall += seq.results[i].wall_seconds;
    }
    const std::uint64_t stop_n =
        agg.should_stop() ? agg.stop_index() : std::uint64_t(seq_fixed_n);
    const double saved_frac =
        seq_fixed_n ? 1.0 - double(stop_n) / double(seq_fixed_n) : 0.0;
    // Worst-case disagreement between the stop prefix's proportions and the
    // full fixed campaign's — the quantity the rule bounds by eps @ conf.
    double max_err = 0.0;
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o) {
      const double p_stop = stop_n ? double(agg.prefix_counts()[o]) / double(stop_n) : 0;
      const double p_full =
          agg.n() ? double(agg.outcome_counts()[o]) / double(agg.n()) : 0;
      max_err = std::max(max_err, std::fabs(p_stop - p_full));
    }
    const bool within = max_err <= seq_policy.eps;
    std::printf(
        "  seq-sizing %s: fixed n=%zu (%.3g@%.3g) -> stop at %llu (%.1f%% saved, "
        "%.2fs wall), max |p_stop - p_full| = %.4f %s eps\n",
        name.c_str(), seq_fixed_n, seq_policy.eps, seq_policy.confidence,
        (unsigned long long)stop_n, 100.0 * saved_frac, stop_wall, max_err,
        within ? "<=" : "EXCEEDS");
    bench::json_record("seq_fixed_n", double(seq_fixed_n), "count", name);
    bench::json_record("seq_stop_n", double(stop_n), "count", name);
    bench::json_record("seq_saved_frac", saved_frac, "x", name);
    bench::json_record("seq_agreement_err", max_err, "frac", name);
  }
  std::printf(
      "\n  paper: checkpoint fast-forwarding gives 3x-244x (avg 64.5x), governed by\n"
      "  the pre/post-checkpoint time ratio (init-frac column); the NoW adds ~108x\n"
      "  (27 workstations x 4 simultaneous experiments). The checkpoint speedup\n"
      "  here scales with init-frac the same way; now-par is the effective\n"
      "  parallelism of the modeled 27x4 cluster, which saturates at min(n, 108)\n"
      "  — run with --n=216 or --full to see it approach the paper's ~108x.\n"
      "  now-meas is a real multi-process run through the TCP dispatch service\n"
      "  (4 forked workers); meas-par is bounded by this host's cores, not the\n"
      "  paper's cluster.\n");
  return bench::json_write(opt.json, "fig8_campaign") ? 0 : 1;
}
