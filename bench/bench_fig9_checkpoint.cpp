// Checkpoint fast-path benchmark: per-experiment restore cost of the
// shared-baseline dirty-page restore vs a fresh Simulation plus a full
// parse and restore of the checkpoint (CRC the blob, copy its pages into a
// flat image, copy the whole image in) — what every experiment would pay
// without a baseline parsed once and kept across experiments.
//
// Two sections:
//   1. A synthetic sweep over checkpoint position (init iterations before
//      fi_read_init_all) x experiment length (kernel iterations after it),
//      which together set the pre/post-checkpoint ratio and the number of
//      pages an experiment dirties — the two knobs the restore cost
//      actually depends on.
//   2. The Fig. 8 campaign workload (the paper's six validation apps),
//      where the acceptance bar is a >= 5x lower per-experiment restore
//      cost for the shared-baseline path.
//
// Both paths run the same seeded faults and must produce identical outcome
// distributions (the dirty-page restore is bit-equivalent to a full one).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "assembler/assembler.hpp"
#include "common.hpp"

using namespace gemfi;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Synthetic app: an LCG whose state is stored round-robin into a fixed
/// window, init_iters times before the checkpoint and kernel_iters times
/// after. window_bytes controls how many pages each phase dirties.
apps::App build_touch_app(std::uint64_t init_iters, std::uint64_t kernel_iters,
                          std::uint64_t window_bytes) {
  using namespace assembler;
  constexpr std::uint64_t kBase = 0x180000;  // clear of code + boot arena
  constexpr std::uint64_t kSeed = 0x5eed0002;

  Assembler as;
  const Label entry = as.here("main");
  apps::emit_boot(as);

  as.li_u(reg::s1, kSeed);               // LCG state
  as.li_u(reg::s3, apps::kLcgMul);
  as.li_u(reg::s4, apps::kLcgAdd);
  as.li_u(reg::s2, kBase);               // write pointer
  as.li_u(reg::s5, kBase + window_bytes);

  unsigned phase = 0;
  const auto emit_loop = [&](std::uint64_t iters) {
    as.li(reg::s0, std::int64_t(iters));
    const Label loop = as.here(phase == 0 ? "init_loop" : "kernel_loop");
    as.mulq(reg::s1, reg::s3, reg::s1);
    as.addq(reg::s1, reg::s4, reg::s1);
    as.stq(reg::s1, 0, reg::s2);
    as.addq_i(reg::s2, 8, reg::s2);
    as.cmpeq(reg::s2, reg::s5, reg::t1);
    const Label no_wrap = as.make_label(phase == 0 ? "init_nw" : "kernel_nw");
    as.beq(reg::t1, no_wrap);
    as.li_u(reg::s2, kBase);
    as.bind(no_wrap);
    as.subq_i(reg::s0, 1, reg::s0);
    as.bne(reg::s0, loop);
    ++phase;
  };

  emit_loop(init_iters);
  as.fi_read_init();            // checkpoint boundary
  as.mov_i(0, reg::a0);
  as.fi_activate();             // FI on
  emit_loop(kernel_iters);
  as.mov_i(0, reg::a0);
  as.fi_activate();             // FI off

  as.print_str("state=");
  as.print_int_r(reg::s1);
  apps::emit_newline(as);
  as.mov_i(0, reg::a0);
  as.exit_();

  apps::App app;
  app.name = "touch";
  app.program = as.finalize(entry);

  std::uint64_t state = kSeed;
  for (std::uint64_t i = 0; i < init_iters + kernel_iters; ++i) apps::lcg_next(state);
  char buf[64];
  std::snprintf(buf, sizeof buf, "state=%" PRId64 "\n", std::int64_t(state));
  app.golden_output = buf;
  // Any deviating output is an SDC: the result is a single exact integer.
  app.acceptable = [](const std::string&, double&) { return false; };
  return app;
}

struct RestoreCompare {
  double full_ms = 0;         // mean per-experiment: construct + full restore
  double dirty_ms = 0;        // mean per-experiment: dirty-page restore
  double dirty_pages = 0;     // mean pages copied per dirty restore
  bool outcomes_match = true;
  [[nodiscard]] double speedup() const { return dirty_ms > 0 ? full_ms / dirty_ms : 0; }
};

/// Run the same faults through both restore paths, timing only the restore
/// portion of each experiment.
RestoreCompare measure_restore(const campaign::CalibratedApp& ca,
                               const std::vector<fi::Fault>& faults,
                               const campaign::CampaignConfig& cfg) {
  RestoreCompare rc;
  sim::SimConfig scfg;
  scfg.cpu = cfg.cpu;
  scfg.fi_enabled = true;
  scfg.switch_to_atomic_after_fault = cfg.switch_to_atomic_after_fault;
  const std::uint64_t watchdog = campaign::watchdog_ticks(ca, cfg);

  std::array<std::size_t, apps::kNumOutcomes> full_counts{}, dirty_counts{};

  // Full path: fresh Simulation + full parse and restore per experiment.
  double full_total = 0;
  for (const fi::Fault& f : faults) {
    const auto t0 = Clock::now();
    sim::Simulation s(scfg, ca.app.program);
    s.spawn_main_thread();
    chkpt::CheckpointImage::parse(ca.checkpoint).restore_into(s);
    full_total += ms_since(t0);
    s.fault_manager().load_faults({f});
    const sim::RunResult rr = s.run(watchdog);
    const auto c = campaign::classify(ca.app, rr, s.fault_manager(), s.output(0));
    ++full_counts[std::size_t(c.outcome)];
  }
  rc.full_ms = full_total / double(faults.size());

  // Shared-baseline path: parse once, one persistent Simulation; the first
  // restore is full (amortized across the campaign, excluded), the rest copy
  // only the pages the previous experiment dirtied.
  const auto image = chkpt::CheckpointImage::parse(ca.checkpoint);
  double dirty_total = 0;
  std::uint64_t dirty_pages = 0;
  std::size_t dirty_restores = 0;
  sim::Simulation s(scfg, ca.app.program);
  s.spawn_main_thread();
  image.restore_into(s);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i != 0) {
      const auto t0 = Clock::now();
      dirty_pages += image.restore_dirty_into(s);
      dirty_total += ms_since(t0);
      ++dirty_restores;
    }
    s.fault_manager().load_faults({faults[i]});
    const sim::RunResult rr = s.run(watchdog);
    const auto c = campaign::classify(ca.app, rr, s.fault_manager(), s.output(0));
    ++dirty_counts[std::size_t(c.outcome)];
  }
  rc.dirty_ms = dirty_restores == 0 ? 0 : dirty_total / double(dirty_restores);
  rc.dirty_pages = dirty_restores == 0 ? 0 : double(dirty_pages) / double(dirty_restores);
  rc.outcomes_match = full_counts == dirty_counts;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Fig. 9 (extension): per-experiment restore cost, full restore vs "
      "shared-baseline dirty-page restore");

  const auto cfg = opt.campaign_config();

  // --- 1. synthetic sweep: checkpoint position x experiment length ---------
  const std::size_t sweep_n = opt.per_cell(8, 4, 16);
  const std::vector<std::uint64_t> init_grid =
      opt.quick ? std::vector<std::uint64_t>{20'000}
                : std::vector<std::uint64_t>{5'000, 50'000, 200'000};
  const std::vector<std::uint64_t> kernel_grid =
      opt.quick ? std::vector<std::uint64_t>{5'000}
                : std::vector<std::uint64_t>{2'000, 20'000, 80'000};
  constexpr std::uint64_t kWindowBytes = 64 * 1024;  // 16 pages round-robin

  std::printf("  sweep: %zu experiments/cell, %" PRIu64 " KiB store window\n\n",
              sweep_n, kWindowBytes / 1024);
  std::printf("%10s %10s %8s %10s %13s %14s %10s %9s\n", "init", "kernel", "pages",
              "wire(KB)", "full-rest(ms)", "dirty-rest(ms)", "dirty-pg", "speedup");
  for (const std::uint64_t init : init_grid) {
    for (const std::uint64_t kernel : kernel_grid) {
      const auto ca =
          campaign::calibrate(build_touch_app(init, kernel, kWindowBytes), cfg);
      const auto faults =
          campaign::seeded_fault_set(opt.seed ^ init ^ kernel, sweep_n, ca.kernel_fetches);
      const auto rc = measure_restore(ca, faults, cfg);
      const auto cs = chkpt::CheckpointImage::parse(ca.checkpoint).stats();
      std::printf("%10" PRIu64 " %10" PRIu64 " %8" PRIu64 " %10.1f %13.3f %14.3f "
                  "%10.1f %8.1fx%s\n",
                  init, kernel, cs.pages_stored, double(cs.encoded_bytes) / 1024.0,
                  rc.full_ms, rc.dirty_ms, rc.dirty_pages, rc.speedup(),
                  rc.outcomes_match ? "" : "  OUTCOME-MISMATCH");
    }
  }

  // --- 2. the Fig. 8 campaign workload -------------------------------------
  const std::size_t n = opt.per_cell(12, 4, 100);
  std::printf("\n  Fig. 8 workload: %zu experiments per app\n\n", n);
  std::printf("%-10s %8s %10s %13s %14s %10s %9s\n", "app", "pages", "wire(KB)",
              "full-rest(ms)", "dirty-rest(ms)", "dirty-pg", "speedup");
  double worst = 0;
  bool first_app = true;
  bool all_match = true;
  for (const std::string& name : opt.app_list()) {
    const auto ca = campaign::calibrate(apps::build_app(name, opt.scale()), cfg);
    const std::uint64_t app_seed = opt.seed ^ (std::hash<std::string>{}(name) * 7);
    const auto faults = campaign::seeded_fault_set(app_seed, n, ca.kernel_fetches);
    const auto rc = measure_restore(ca, faults, cfg);
    const auto cs = chkpt::CheckpointImage::parse(ca.checkpoint).stats();
    std::printf("%-10s %8" PRIu64 " %10.1f %13.3f %14.3f %10.1f %8.1fx%s\n",
                name.c_str(), cs.pages_stored, double(cs.encoded_bytes) / 1024.0,
                rc.full_ms, rc.dirty_ms, rc.dirty_pages, rc.speedup(),
                rc.outcomes_match ? "" : "  OUTCOME-MISMATCH");
    if (first_app || rc.speedup() < worst) worst = rc.speedup();
    first_app = false;
    all_match = all_match && rc.outcomes_match;
    bench::json_record("full_restore_ms", rc.full_ms, "ms", name);
    bench::json_record("dirty_restore_ms", rc.dirty_ms, "ms", name);
    bench::json_record("restore_speedup", rc.speedup(), "x", name);
  }

  std::printf("\n  acceptance: shared-baseline restore >= 5x cheaper than a full"
              " restore on every app: %s (worst %.1fx); outcome distributions"
              " identical: %s\n",
              worst >= 5.0 ? "PASS" : "FAIL", worst, all_match ? "PASS" : "FAIL");
  const bool json_ok = bench::json_write(opt.json, "fig9_checkpoint");
  return (worst >= 5.0 && all_match && json_ok) ? 0 : 1;
}
