// Golden-run throughput: MIPS of the fault-free (golden/calibration)
// configuration across the guest apps, golden-path fast mode on vs off.
//
// This is the configuration every campaign pays over and over — the FI
// machinery fully armed (fi_activate bookkeeping, per-fetch counting) but no
// faults loaded — and the one the superblock tier targets: with fast mode on
// the atomic model batches through threaded-code traces whenever the fault
// manager is provably quiescent; with fastmode off it executes the per-tick
// interpreter loop with per-instruction hook calls. Both runs are verified
// against the app's golden output, and the FI-window fetch count (the
// calibration sampling space) is asserted identical across modes — a bench
// run that measured a semantically diverged tier would be worthless.
//
// Exit status is the JSON self-check (--json) plus the cross-mode identity
// checks; wall-clock thresholds are NOT gated here (CI hosts flake), the
// acceptance speedup is asserted explicitly via --min-speedup=<x>.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common.hpp"
#include "util/stats.hpp"

using namespace gemfi;

namespace {

struct GoldenRun {
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t kernel_fetches = 0;  // FI-window length (calibration space)
  std::uint64_t ticks = 0;
};

GoldenRun run_once(const apps::App& app, bool fastmode) {
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  cfg.fi_enabled = true;  // golden runs keep the whole FI machinery armed
  cfg.fastmode = fastmode;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult rr = s.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (rr.reason != sim::ExitReason::AllThreadsExited) {
    std::fprintf(stderr, "unexpected exit: %s\n", sim::exit_reason_name(rr.reason));
    std::exit(1);
  }
  if (s.output(0) != app.golden_output) {
    std::fprintf(stderr, "golden output mismatch on '%s' (fastmode=%d)\n",
                 app.name.c_str(), int(fastmode));
    std::exit(1);
  }
  GoldenRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.committed = rr.committed;
  r.kernel_fetches = s.fault_manager().last_deactivated_fetched();
  r.ticks = rr.ticks;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0)
      min_speedup = std::strtod(argv[i] + 14, nullptr);
    else
      passthrough.push_back(argv[i]);
  }
  const bench::Options opt =
      bench::parse_options(int(passthrough.size()), passthrough.data());
  bench::print_header("Golden-run throughput: superblock fast mode (atomic model)");

  const std::size_t reps = opt.per_cell(5, 2, 15);
  std::printf("  %zu interleaved repetitions per mode, FI machinery armed, no faults\n\n",
              reps);
  std::printf("%-10s %12s %12s %10s %10s\n", "app", "MIPS(fast)", "MIPS(slow)", "speedup",
              "ginsts");

  double worst_speedup = 1e300;
  bool identical = true;
  for (const std::string& name : opt.app_list()) {
    const apps::App app = apps::build_app(name, opt.scale());
    run_once(app, true);  // warm-up (page cache / allocator)
    run_once(app, false);
    double fast_s = 0.0, slow_s = 0.0;
    GoldenRun fast, slow;
    for (std::size_t r = 0; r < reps; ++r) {
      fast = run_once(app, true);
      slow = run_once(app, false);
      fast_s += fast.seconds;
      slow_s += slow.seconds;
    }
    // Cross-mode identity: same committed count, same simulated ticks, same
    // FI-window fetch count. The lockstep suite proves full digest equality;
    // this keeps the bench itself honest about what it compared.
    if (fast.committed != slow.committed || fast.ticks != slow.ticks ||
        fast.kernel_fetches != slow.kernel_fetches) {
      std::fprintf(stderr, "mode divergence on '%s': insts %llu/%llu ticks %llu/%llu "
                   "window %llu/%llu\n", name.c_str(),
                   (unsigned long long)fast.committed, (unsigned long long)slow.committed,
                   (unsigned long long)fast.ticks, (unsigned long long)slow.ticks,
                   (unsigned long long)fast.kernel_fetches,
                   (unsigned long long)slow.kernel_fetches);
      identical = false;
    }
    const double fast_mips = double(fast.committed) * double(reps) / fast_s / 1e6;
    const double slow_mips = double(slow.committed) * double(reps) / slow_s / 1e6;
    const double speedup = slow_s / fast_s;
    if (speedup < worst_speedup) worst_speedup = speedup;
    std::printf("%-10s %12.1f %12.1f %9.2fx %10llu\n", name.c_str(), fast_mips, slow_mips,
                speedup, (unsigned long long)fast.committed);
    bench::json_record("mips_fastmode", fast_mips, "MIPS", name);
    bench::json_record("mips_no_fastmode", slow_mips, "MIPS", name);
    bench::json_record("fastmode_speedup", speedup, "x", name);
    bench::json_record("golden_insts", double(fast.committed), "insts", name);
    bench::json_record("kernel_fetches", double(fast.kernel_fetches), "insts", name);
  }

  if (!identical) return 1;
  if (min_speedup > 0.0 && worst_speedup < min_speedup) {
    std::fprintf(stderr, "worst-case speedup %.2fx below required %.2fx\n", worst_speedup,
                 min_speedup);
    return 1;
  }
  return bench::json_write(opt.json, "golden_rate") ? 0 : 1;
}
