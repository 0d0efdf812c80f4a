// gemfi_now_master — campaign master for the NoW dispatch service (paper
// Sec. III-E): calibrates the app locally, then serves the campaign to any
// gemfi_now_worker processes that connect, shipping each one the checkpoint
// and streaming experiments until every fault has exactly one result.
//
// Usage:
//   gemfi_now_master --app=<name> --campaign=<n> [--seed=<u64>]
//       [--bind=<addr>]        listen address (default 127.0.0.1;
//                              0.0.0.0 to serve a real cluster)
//       [--port=<p>]           listen port (default 0 = ephemeral, printed)
//       [--local-workers=<n>]  additionally fork n loopback workers
//       [--slots=<k>]          slots for the forked loopback workers
//       [--worker-timeout=<s>] silence before a worker is declared dead
//       [--out=<file.jsonl>] [--progress]
//       [--colstore=<file.gfcs>] columnar result store for gemfi_query
//       [--stop-ci=EPS[@CONF]] sequential early stop: end the campaign once
//                              every outcome CI half-width is below EPS at
//                              CONF confidence (default 0.99); deterministic
//                              across worker counts and schedulings
//       [--autoscale=MIN:MAX]  elastic local fleet: grow/retire forked
//                              workers between MIN and MAX from the backlog
//       [--cpu=...] [--paper] [--deadline=<s>] [--retries=<k>] ...
//
// ^C drains gracefully: dispatch stops, in-flight results are collected,
// workers are shut down, and the partial campaign is reported.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "campaign/analytics/colstore.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "flag_parse.hpp"

using namespace gemfi;
using namespace gemfi::cliflags;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --app=<name> --campaign=<n> [--seed=<u64>] [--bind=<addr>]\n"
               "           [--port=<p>] [--local-workers=<n>] [--slots=<k>]\n"
               "           [--worker-timeout=<s>]\n"
               "           [--out=<file.jsonl>] [--progress] [--cpu=atomic|timing|"
               "pipelined]\n"
               "           [--colstore=<file.gfcs>] [--stop-ci=EPS[@CONF]]\n"
               "           [--autoscale=MIN:MAX]\n"
               "           [--paper] [--deadline=<s>] [--retries=<k>]\n"
               "           [--watchdog-mult=<k>]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name, out_path, colstore_path;
  apps::AppScale scale;
  campaign::CampaignConfig cfg;
  campaign::DispatchConfig dcfg;
  dcfg.handle_sigint = true;
  std::uint64_t campaign_n = 0;
  cfg.campaign_seed = 42;
  unsigned local_workers = 0;
  unsigned slots = 1;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--app=", 0) == 0) app_name = arg.substr(6);
    else if (arg.rfind("--campaign=", 0) == 0)
      campaign_n = parse_u64_flag("campaign", arg.substr(11));
    else if (arg.rfind("--seed=", 0) == 0)
      cfg.campaign_seed = parse_u64_flag("seed", arg.substr(7));
    else if (arg.rfind("--bind=", 0) == 0) dcfg.bind_address = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0)
      dcfg.port = parse_u16_flag("port", arg.substr(7));
    else if (arg.rfind("--local-workers=", 0) == 0)
      local_workers = parse_u32_flag("local-workers", arg.substr(16));
    else if (arg.rfind("--slots=", 0) == 0)
      slots = parse_u32_flag("slots", arg.substr(8));
    else if (arg.rfind("--worker-timeout=", 0) == 0)
      dcfg.worker_timeout_s = parse_f64_flag("worker-timeout", arg.substr(17));
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg.rfind("--colstore=", 0) == 0) colstore_path = arg.substr(11);
    else if (arg.rfind("--stop-ci=", 0) == 0) {
      try {
        dcfg.stop = campaign::parse_stop_ci(arg.substr(10));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (arg.rfind("--autoscale=", 0) == 0) {
      const std::string spec = arg.substr(12);
      const auto colon = spec.find(':');
      if (colon == std::string::npos) usage(argv[0]);
      dcfg.autoscale.min_workers =
          parse_u32_flag("autoscale", spec.substr(0, colon));
      dcfg.autoscale.max_workers =
          parse_u32_flag("autoscale", spec.substr(colon + 1));
      if (dcfg.autoscale.max_workers < dcfg.autoscale.min_workers)
        usage(argv[0]);
    } else if (arg == "--progress") progress = true;
    else if (arg.rfind("--cpu=", 0) == 0) {
      const std::string kind = arg.substr(6);
      if (kind == "atomic") cfg.cpu = sim::CpuKind::AtomicSimple;
      else if (kind == "timing") cfg.cpu = sim::CpuKind::TimingSimple;
      else if (kind == "pipelined") cfg.cpu = sim::CpuKind::Pipelined;
      else usage(argv[0]);
    } else if (arg == "--paper") scale.paper = true;
    else if (arg.rfind("--deadline=", 0) == 0)
      cfg.deadline_seconds = parse_f64_flag("deadline", arg.substr(11));
    else if (arg.rfind("--retries=", 0) == 0)
      cfg.max_retries = parse_u32_flag("retries", arg.substr(10));
    else if (arg.rfind("--watchdog-mult=", 0) == 0)
      cfg.watchdog_mult = parse_u64_flag("watchdog-mult", arg.substr(16));
    else usage(argv[0]);
  }
  if (app_name.empty() || campaign_n == 0) usage(argv[0]);

  std::fprintf(stderr, "calibrating %s...\n", app_name.c_str());
  campaign::CalibratedApp ca;
  try {
    ca = campaign::calibrate(apps::build_app(app_name, scale), cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  campaign::TeeObserver tee;
  std::unique_ptr<campaign::JsonlSink> sink;
  std::unique_ptr<campaign::ColstoreSink> colstore;
  std::unique_ptr<campaign::ProgressPrinter> reporter;
  if (!out_path.empty()) {
    try {
      sink = std::make_unique<campaign::JsonlSink>(out_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    sink->write_line(campaign::calibration_record_to_json(app_name, ca));
    tee.add(sink.get());
  }
  if (!colstore_path.empty()) {
    try {
      colstore = std::make_unique<campaign::ColstoreSink>(colstore_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    tee.add(colstore.get());
  }
  if (progress) {
    reporter = std::make_unique<campaign::ProgressPrinter>(stderr);
    tee.add(reporter.get());
  }
  cfg.observer = &tee;

  const auto faults = campaign::seeded_fault_set(cfg.campaign_seed,
                                                 std::size_t(campaign_n),
                                                 ca.kernel_fetches);
  try {
    campaign::Master master(ca, scale, faults, cfg, dcfg);
    std::fprintf(stderr, "master listening on %s:%u — start workers with:\n",
                 dcfg.bind_address.c_str(), unsigned(master.port()));
    std::fprintf(stderr, "  gemfi_now_worker --host=<this-host> --port=%u --slots=<k>\n",
                 unsigned(master.port()));

    campaign::LocalWorkerPool pool;
    if (dcfg.autoscale.enabled() &&
        local_workers > dcfg.autoscale.max_workers)
      local_workers = dcfg.autoscale.max_workers;
    if (local_workers > 0)
      pool = campaign::LocalWorkerPool::spawn(local_workers, master.port(), slots);
    if (dcfg.autoscale.enabled()) {
      const std::uint16_t port = master.port();
      master.set_spawn_callback(
          [&pool, port, slots](unsigned n) { pool.grow(n, port, slots); });
    }

    const campaign::DispatchReport dr = master.run();
    pool.wait_all();
    if (colstore) colstore->finish();

    std::fprintf(stderr,
                 "NoW service: %zu/%zu experiments in %.2fs — %u workers joined, "
                 "%u lost, %llu requeued, %llu duplicates, "
                 "%.1f KiB checkpoint shipped%s\n",
                 dr.completed, faults.size(), dr.wall_seconds, dr.workers_joined,
                 dr.workers_lost, (unsigned long long)dr.requeued,
                 (unsigned long long)dr.duplicate_results,
                 double(dr.checkpoint_bytes_shipped) / 1024.0,
                 dr.drained_early ? " (drained early)" : "");
    if (dr.stopped_early)
      std::fprintf(stderr,
                   "sequential stop: rule satisfied at prefix %llu/%zu "
                   "(%llu queued experiments cancelled, %u spawned, %u retired)\n",
                   (unsigned long long)dr.stop_index, faults.size(),
                   (unsigned long long)dr.cancelled, dr.workers_spawned,
                   dr.workers_retired);
    if (!dr.aggregate_summary.empty())
      std::printf("%s\n", dr.aggregate_summary.c_str());
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o) {
      const auto outcome = static_cast<apps::Outcome>(o);
      std::printf("%-16s %6zu  %5.1f%%\n", apps::outcome_name(outcome),
                  dr.campaign.counts[o], 100.0 * dr.campaign.fraction(outcome));
    }
    if (sink)
      std::fprintf(stderr, "wrote %zu records to %s\n", sink->lines_written(),
                   out_path.c_str());
    // A sequential stop is a successful campaign: the answer is in, within
    // the requested error bound, with the tail of the fault list unspent.
    return dr.completed == faults.size() || dr.stopped_early ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
