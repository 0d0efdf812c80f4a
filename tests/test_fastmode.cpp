// Lockstep differential tests for the golden-path fast mode: the threaded-
// code superblock tier above the atomic interpreter (`cfg.fastmode`). The
// tier may only change host wall time — never a single simulated observable.
// Every test runs the same workload with the tier on and off and demands
// bit-identical results: exit reason, tick and commit counts, guest output,
// the physical-memory image, the injection log, and the FI window's fetch
// accounting (which fast mode maintains in bulk per batch).
//
// The hard cases get their own fuzz sweeps: self-modifying code rewriting a
// word inside an already-stitched trace (page-version invalidation),
// checkpoint restores over a warm trace cache (full and dirty-page restore),
// armed faults of every location (the tier must provably disengage while a
// fault is live — equality under a permanent stuck-at is only possible if
// every in-window fetch went through the interpreter), preemption quanta
// across all three CPU models, and the campaign/replay JSONL byte-identity
// contract.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "assembler/assembler.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "chkpt/checkpoint.hpp"
#include "fi/fault.hpp"
#include "sim/simulation.hpp"
#include "util/bytesio.hpp"

namespace {

using namespace gemfi;
using namespace gemfi::assembler;

/// Everything a fault-armed observer-free run can observably produce. Unlike
/// the predecode lockstep suite there is no commit observer here — attaching
/// one disengages the trace tier by design — so the digest is the final
/// architectural outcome plus the tick-embedded injection log, which together
/// pin every intermediate commit that could have drifted.
struct GoldenRun {
  sim::ExitReason reason = sim::ExitReason::AllThreadsExited;
  cpu::TrapKind trap = cpu::TrapKind::None;
  std::uint64_t ticks = 0;
  std::uint64_t committed = 0;
  std::uint32_t mem_crc = 0;
  std::uint64_t window_fetches = 0;  // FI-window accounting (bulk-updated)
  std::string output;
  std::vector<std::string> fi_log;
  isa::SuperblockStats sb{};
};

struct GoldenSpec {
  sim::CpuKind cpu = sim::CpuKind::AtomicSimple;
  bool fastmode = true;
  bool fi_enabled = true;
  std::uint64_t watchdog = 500'000'000ull;
  std::vector<fi::Fault> faults;
  sim::Simulation::CheckpointHandler on_checkpoint;  // may be null
};

/// The default GoldenSpec with the trace tier on or off.
GoldenSpec tier(bool fastmode) {
  GoldenSpec spec;
  spec.fastmode = fastmode;
  return spec;
}

GoldenRun run_golden(const assembler::Program& prog, const GoldenSpec& spec) {
  sim::SimConfig cfg;
  cfg.cpu = spec.cpu;
  cfg.fi_enabled = spec.fi_enabled;
  cfg.fastmode = spec.fastmode;
  sim::Simulation s(cfg, prog);
  s.spawn_main_thread();
  if (spec.on_checkpoint) s.set_checkpoint_handler(spec.on_checkpoint);
  if (!spec.faults.empty()) s.fault_manager().load_faults(spec.faults);

  const sim::RunResult rr = s.run(spec.watchdog);
  GoldenRun g;
  g.reason = rr.reason;
  g.trap = rr.trap.kind;
  g.ticks = rr.ticks;
  g.committed = rr.committed;
  g.mem_crc = util::crc32(s.memsys().phys().raw());
  g.window_fetches = s.fault_manager().last_deactivated_fetched();
  g.output = s.output(0);
  g.fi_log = s.fault_manager().injection_log();
  g.sb = s.memsys().superblock_stats();
  return g;
}

/// The full fast-mode contract: every simulated observable identical.
void expect_identical(const GoldenRun& fast, const GoldenRun& slow, const std::string& label) {
  EXPECT_EQ(fast.reason, slow.reason) << label;
  EXPECT_EQ(fast.trap, slow.trap) << label;
  EXPECT_EQ(fast.ticks, slow.ticks) << label << ": tick count diverged";
  EXPECT_EQ(fast.committed, slow.committed) << label << ": commit count diverged";
  EXPECT_EQ(fast.mem_crc, slow.mem_crc) << label << ": memory image diverged";
  EXPECT_EQ(fast.window_fetches, slow.window_fetches)
      << label << ": FI-window fetch accounting diverged";
  EXPECT_EQ(fast.output, slow.output) << label;
  EXPECT_EQ(fast.fi_log, slow.fi_log) << label << ": injection log diverged";
}

constexpr sim::CpuKind kModels[] = {sim::CpuKind::AtomicSimple, sim::CpuKind::TimingSimple,
                                    sim::CpuKind::Pipelined};

// ---------------- golden runs: all apps, fi armed, traces engaged ----------

class FastmodeApps : public ::testing::TestWithParam<std::string> {};

TEST_P(FastmodeApps, GoldenRunBitIdenticalAndTierEngaged) {
  // fi_enabled with no faults loaded is the golden-campaign configuration:
  // the fault manager is quiescent, so fast mode stitches traces while the
  // baseline (`--no-fastmode`) walks the per-tick hook loop — the exact A/B
  // that bench_golden_rate measures. Everything simulated must match,
  // including the per-window fetch counts fast mode accumulates in bulk.
  const apps::App app = apps::build_app(GetParam());
  const GoldenRun fast = run_golden(app.program, tier(true));
  const GoldenRun slow = run_golden(app.program, tier(false));
  ASSERT_EQ(fast.reason, sim::ExitReason::AllThreadsExited) << app.name;
  expect_identical(fast, slow, app.name);
  // The speedup claim is only honest if the tier actually ran the kernel.
  EXPECT_GT(fast.sb.exec_insts, 0u) << app.name << ": trace tier never engaged";
  EXPECT_GT(fast.sb.hits, 0u) << app.name;
  EXPECT_EQ(slow.sb.exec_insts, 0u) << app.name << ": --no-fastmode still ran traces";
  EXPECT_EQ(slow.sb.builds, 0u) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, FastmodeApps, ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) { return info.param; });

// ---------------- armed faults: the tier must disengage, not approximate ---

TEST(FastmodeFaults, EveryFaultLocationBitIdentical) {
  // Faults of every location, including the sticky Tick Imm occ:3 (re-applies
  // on consecutive ticks) and a permanent stuck-at (live for the whole FI
  // window). For the permanent case, equality is itself the proof that fast
  // mode was bypassed in-window: a stuck-at must be re-applied at every
  // fetch, which a stitched trace cannot do.
  struct Case {
    const char* app;
    const char* line;
  };
  const Case cases[] = {
      {"pi", "FetchStageInjectedFault Inst:50 Flip:3 Threadid:0 system.cpu0 occ:1"},
      {"pi", "FetchStageInjectedFault Inst:400 Flip:26 Threadid:0 system.cpu0 occ:2"},
      {"pi", "ExecutionStageInjectedFault Inst:300 Xor:0xff Threadid:0 system.cpu0 occ:1"},
      {"jacobi", "LoadStoreInjectedFault Inst:120 Flip:7 Threadid:0 system.cpu0 occ:1"},
      {"pi", "RegisterInjectedFault Inst:200 Flip:21 Threadid:0 system.cpu0 occ:1 int 9"},
      {"pi", "RegisterInjectedFault Tick:1234 Imm:0xfeed Threadid:0 system.cpu0 occ:3 int 5"},
      {"pi", "PCInjectedFault Inst:400 Flip:4 Threadid:0 system.cpu0 occ:1"},
      {"pi", "RegisterInjectedFault Inst:100 StuckAt1:0x200000 Threadid:0 system.cpu0 "
             "occ:perm int 1"},
  };
  for (const auto& [app_name, line] : cases) {
    const apps::App app = apps::build_app(app_name);
    const fi::Fault f = fi::parse_fault(line);
    GoldenSpec spec;
    spec.watchdog = 8'000'000ull;  // fault-induced loops must not dominate
    spec.faults = {f};
    const GoldenRun fast = run_golden(app.program, spec);
    spec.fastmode = false;
    const GoldenRun slow = run_golden(app.program, spec);
    expect_identical(fast, slow, line);
    EXPECT_FALSE(fast.fi_log.empty()) << line << ": fault never applied";
  }
}

// ---------------- preemption quanta across all three models ----------------

struct PlainRun {
  sim::RunResult rr;
  std::vector<std::string> outputs;
  std::uint32_t mem_crc = 0;
  std::uint64_t exec_insts = 0;  // instructions retired inside traces
};

PlainRun run_plain(const assembler::Program& prog, sim::CpuKind cpu, bool fastmode,
                   std::uint64_t quantum, const std::vector<std::uint64_t>& thread_args) {
  sim::SimConfig cfg;
  cfg.cpu = cpu;
  cfg.fi_enabled = false;
  cfg.fastmode = fastmode;
  cfg.quantum_insts = quantum;
  sim::Simulation s(cfg, prog);
  for (const std::uint64_t arg : thread_args) s.spawn_thread(prog.entry, {arg});
  PlainRun pr;
  pr.rr = s.run(500'000'000ull);
  for (std::size_t t = 0; t < thread_args.size(); ++t) pr.outputs.push_back(s.output(t));
  pr.mem_crc = util::crc32(s.memsys().phys().raw());
  pr.exec_insts = s.memsys().superblock_stats().exec_insts;
  return pr;
}

/// Three threads hammer one shared counter under a preemption quantum; the
/// printed values are a direct function of where every context switch landed,
/// so a trace batch that overruns its scheduling bound by even one commit
/// diverges architecturally. Same program as the predecode lockstep suite.
assembler::Program shared_counter_program() {
  Assembler as;
  const DataRef cell = as.data_u64(std::uint64_t(0));
  const Label entry = as.here("main");
  as.la(reg::s2, cell);
  as.li(reg::s0, 40);
  const Label loop = as.here("loop");
  as.ldq(reg::t0, 0, reg::s2);
  as.addq(reg::t0, reg::a0, reg::t0);
  as.stq(reg::t0, 0, reg::s2);
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, loop);
  as.ldq(reg::t1, 0, reg::s2);
  as.print_int_r(reg::t1);
  as.instret();
  as.print_int_r(reg::v0);
  as.mov_i(0, reg::a0);
  as.exit_();
  return as.finalize(entry);
}

TEST(FastmodeDispatch, PreemptsOnTheExactSameInstructionOnAllModels) {
  const assembler::Program prog = shared_counter_program();
  for (const sim::CpuKind cpu : kModels) {
    for (const std::uint64_t quantum : {7ull, 50ull, 333ull}) {
      const std::string label =
          std::string(sim::cpu_kind_name(cpu)) + " q=" + std::to_string(quantum);
      const PlainRun fast = run_plain(prog, cpu, true, quantum, {1, 2, 3});
      const PlainRun slow = run_plain(prog, cpu, false, quantum, {1, 2, 3});
      ASSERT_EQ(fast.rr.reason, sim::ExitReason::AllThreadsExited) << label;
      EXPECT_EQ(fast.rr.ticks, slow.rr.ticks) << label;
      EXPECT_EQ(fast.rr.committed, slow.rr.committed) << label;
      EXPECT_EQ(fast.outputs, slow.outputs) << label;
      EXPECT_EQ(fast.mem_crc, slow.mem_crc) << label;
      // The tier is atomic-only; on the timing models the flag is a no-op.
      if (cpu != sim::CpuKind::AtomicSimple) {
        EXPECT_EQ(fast.exec_insts, 0u) << label;
      }
      EXPECT_EQ(slow.exec_insts, 0u) << label;
    }
  }
}

TEST(FastmodeDispatch, WatchdogFiresAtTheSameTick) {
  // An infinite loop is the best case for trace stitching (one hot block,
  // hit forever); the batch must still consume its watchdog budget in
  // exactly as many ticks/commits as the per-tick loop.
  Assembler as;
  const Label entry = as.here("main");
  const Label spin = as.here("spin");
  as.addq_i(reg::t0, 1, reg::t0);
  as.br(spin);
  const assembler::Program prog = as.finalize(entry);

  const PlainRun fast = run_plain(prog, sim::CpuKind::AtomicSimple, true, 50000, {0});
  const PlainRun slow = run_plain(prog, sim::CpuKind::AtomicSimple, false, 50000, {0});
  EXPECT_EQ(fast.rr.reason, sim::ExitReason::Watchdog);
  EXPECT_EQ(slow.rr.reason, sim::ExitReason::Watchdog);
  EXPECT_EQ(fast.rr.ticks, slow.rr.ticks);
  EXPECT_EQ(fast.rr.committed, slow.rr.committed);
  EXPECT_GT(fast.exec_insts, 0u) << "spin loop never entered the trace tier";
}

// ---------------- SMC fuzz: stores into stitched traces --------------------

/// A loop whose body word is patched mid-run by the checkpoint handler (the
/// host-side stand-in for a store into the code segment). With kIters
/// iterations and a patch arriving at fi_read_init call `patch_call`, the
/// counter accumulates (patch_call - 1) ones plus the remaining iterations
/// at the patched delta. The loop is hot from iteration one, so the patched
/// word sits inside an already-stitched superblock: a trace cache that
/// misses the page-version bump keeps replaying the stale body.
constexpr int kSmcIters = 6;

assembler::Program smc_program() {
  Assembler as;
  const Label entry = as.here("main");
  as.li(reg::s0, kSmcIters);
  as.li(reg::t0, 0);
  const Label loop = as.here("loop");
  as.fi_read_init();  // host handler patches the next instruction
  as.here("patchme");
  as.addq_i(reg::t0, 1, reg::t0);
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, loop);
  as.print_int_r(reg::t0);
  as.mov_i(0, reg::a0);
  as.exit_();
  return as.finalize(entry);
}

isa::Word addq_delta_word(std::int64_t delta) {
  Assembler as;
  const Label entry = as.here("main");
  as.addq_i(reg::t0, delta, reg::t0);
  return as.finalize(entry).code.at(0);
}

TEST(FastmodeSmc, PatchTimingAndValueFuzzBitIdentical) {
  const assembler::Program prog = smc_program();
  const std::uint64_t patch_addr = prog.symbol("patchme");
  for (const std::int64_t delta : {5ll, 9ll}) {
    const isa::Word new_word = addq_delta_word(delta);
    for (int patch_call = 1; patch_call <= kSmcIters; ++patch_call) {
      const std::string label =
          "delta=" + std::to_string(delta) + " call=" + std::to_string(patch_call);
      GoldenRun runs[2];
      int i = 0;
      for (const bool fastmode : {true, false}) {
        int calls = 0;
        GoldenSpec spec;
        spec.fastmode = fastmode;
        spec.on_checkpoint = [&calls, patch_call, patch_addr, new_word](sim::Simulation& s) {
          if (++calls == patch_call) {
            ASSERT_EQ(s.memsys().phys().store(patch_addr, 4, new_word),
                      mem::AccessError::None);
          }
        };
        runs[i++] = run_golden(prog, spec);
      }
      expect_identical(runs[0], runs[1], label);
      // The patch lands at iteration patch_call's fi_read_init, before that
      // iteration's add: (patch_call - 1) old increments, the rest patched.
      const std::int64_t expect =
          (patch_call - 1) + std::int64_t(kSmcIters - patch_call + 1) * delta;
      EXPECT_EQ(runs[0].output, std::to_string(expect))
          << label << ": stale stitched trace executed after rewrite";
      EXPECT_GT(runs[0].sb.exec_insts, 0u) << label << ": trace tier never engaged";
    }
  }
}

TEST(FastmodeSmc, FaultingStoreInsideTraceTrapsAtTheSameCommit) {
  // A guest store aimed at the trace's own code page: the memory system
  // write-protects [code_base, code_end), so the store faults ReadOnly —
  // from the middle of a stitched trace. The trace must abandon the batch at
  // exactly that commit and surface the identical trap, tick and commit
  // count as the interpreter. (Pure-guest SMC is architecturally impossible
  // here; real SMC arrives via host-side stores, covered by the fuzz above.)
  Assembler as;
  const Label entry = as.here("main");
  as.li(reg::s0, 4);
  as.li(reg::t0, 0);
  const Label loop = as.here("loop");
  const Label next = as.make_label("next");
  as.bsr(reg::t3, next);  // t3 = address of `next` (PC-relative anchor)
  as.bind(next);
  as.addq_i(reg::t0, 1, reg::t0);  // warm the trace before the bad store
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, loop);
  as.stl(reg::t0, 4, reg::t3);  // store into the code page: ReadOnly trap
  as.print_int_r(reg::t0);
  as.mov_i(0, reg::a0);
  as.exit_();
  const assembler::Program prog = as.finalize(entry);

  const GoldenRun fast = run_golden(prog, tier(true));
  const GoldenRun slow = run_golden(prog, tier(false));
  expect_identical(fast, slow, "faulting store inside a trace");
  EXPECT_NE(fast.trap, cpu::TrapKind::None) << "code-page store did not trap";
  EXPECT_GT(fast.sb.exec_insts, 0u) << "trace tier never engaged before the trap";
}

// ---------------- checkpoint restores over a warm trace cache --------------

TEST(FastmodeCheckpoint, FullAndDirtyRestoreOverWarmTracesBitIdentical) {
  // The campaign worker lifecycle: restore, run to completion, restore the
  // same image again (full, then dirty-page) into the *same* simulation and
  // re-run. Each restore rewrites memory under the stitched traces of the
  // previous run; stale traces must be detected (full restore bumps every
  // page version) or correctly retained (dirty restore leaves clean code
  // pages alone). Every run must reproduce the golden output and every
  // fast/slow pair must agree tick for tick.
  campaign::CampaignConfig ccfg;
  ccfg.cpu = sim::CpuKind::AtomicSimple;
  const campaign::CalibratedApp ca = campaign::calibrate(apps::build_app("pi"), ccfg);
  const chkpt::CheckpointImage image = chkpt::CheckpointImage::parse(ca.checkpoint);
  const std::uint64_t watchdog = 8 * ca.golden_ticks + 1'000'000;

  struct Cycle {
    std::vector<std::uint64_t> ticks;
    std::vector<std::string> outputs;
    std::vector<std::uint32_t> crcs;
    isa::SuperblockStats sb{};
  };
  Cycle cycles[2];
  int ci = 0;
  for (const bool fastmode : {true, false}) {
    sim::SimConfig cfg;
    cfg.cpu = sim::CpuKind::AtomicSimple;
    cfg.fastmode = fastmode;
    sim::Simulation s(cfg, ca.app.program);
    s.spawn_main_thread();

    Cycle& c = cycles[ci++];
    auto run_once = [&](const char* phase) {
      const sim::RunResult rr = s.run(watchdog);
      ASSERT_EQ(rr.reason, sim::ExitReason::AllThreadsExited) << phase;
      c.ticks.push_back(rr.ticks);
      c.outputs.push_back(s.output(0));
      c.crcs.push_back(util::crc32(s.memsys().phys().raw()));
    };
    image.restore_into(s);
    run_once("first full restore");
    image.restore_into(s);  // full restore over run 1's warm trace cache
    run_once("second full restore");
    image.restore_dirty_into(s);  // dirty-page restore over run 2's cache
    run_once("dirty restore");
    c.sb = s.memsys().superblock_stats();
  }

  const Cycle& fast = cycles[0];
  const Cycle& slow = cycles[1];
  ASSERT_EQ(fast.ticks.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(fast.ticks[r], slow.ticks[r]) << "run " << r;
    EXPECT_EQ(fast.outputs[r], slow.outputs[r]) << "run " << r;
    EXPECT_EQ(fast.crcs[r], slow.crcs[r]) << "run " << r;
    EXPECT_EQ(fast.outputs[r], ca.app.golden_output) << "run " << r << ": output not golden";
  }
  // All three runs resume from the same image: identical trajectories.
  EXPECT_EQ(fast.ticks[1], fast.ticks[0]);
  EXPECT_EQ(fast.ticks[2], fast.ticks[0]);
  EXPECT_GT(fast.sb.exec_insts, 0u) << "trace tier never engaged across the cycle";
  // The second full restore bumped every page version, so run 2's lookups
  // found run 1's traces stale — the invalidation the test exists to prove.
  EXPECT_GT(fast.sb.stale, 0u) << "full restore left stale traces undetected";
}

// ---------------- campaign records and replay ------------------------------

/// A canonical record line without restore_pages and restore_bytes: a
/// campaign restores by dirty-page copy and an isolated replay by a full
/// restore, so those two cost fields are all that may differ between them.
std::string without_restore_cost(std::string line) {
  for (const std::string key : {",\"restore_pages\":", ",\"restore_bytes\":"}) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + key.size();
    while (end < line.size() && std::isdigit(static_cast<unsigned char>(line[end])))
      ++end;
    line.erase(at, end - at);
  }
  return line;
}

/// Collects the canonical (host-timing-free) JSON line of every record.
class CanonicalCollector final : public campaign::CampaignObserver {
 public:
  void on_experiment(const campaign::ExperimentRecord& rec) override {
    std::lock_guard lock(mutex_);
    if (rec.index >= lines_.size()) lines_.resize(rec.index + 1);
    lines_[rec.index] =
        campaign::experiment_record_to_json(rec, /*include_host_timing=*/false);
  }
  [[nodiscard]] const std::vector<std::string>& lines() const noexcept { return lines_; }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(FastmodeCampaign, CanonicalRecordsByteIdenticalAndReplayForcesTier) {
  // The JSONL determinism contract extended to the trace tier: the same
  // seeded campaign on the atomic model — where fast mode actually engages —
  // streams byte-identical canonical records with the tier on and off, and
  // the full record names the tier so --replay can force the identical
  // engagement decision.
  constexpr std::uint64_t kSeed = 20260809;
  constexpr std::size_t kExperiments = 6;
  campaign::CampaignConfig base;
  base.cpu = sim::CpuKind::AtomicSimple;
  base.workers = 1;
  base.campaign_seed = kSeed;
  const campaign::CalibratedApp ca = campaign::calibrate(apps::build_app("pi"), base);
  EXPECT_GT(ca.calib_wall_seconds, 0.0) << "calibration wall time not measured";

  const auto faults = campaign::seeded_fault_set(kSeed, kExperiments, ca.kernel_fetches);
  std::vector<std::string> lines[2];
  int i = 0;
  for (const bool fastmode : {true, false}) {
    CanonicalCollector collector;
    campaign::CampaignConfig cfg = base;
    cfg.fastmode = fastmode;
    cfg.observer = &collector;
    const campaign::CampaignReport report = campaign::run_campaign(ca, faults, cfg);
    EXPECT_EQ(report.total(), kExperiments);
    lines[i++] = collector.lines();
  }
  ASSERT_EQ(lines[0].size(), kExperiments);
  ASSERT_EQ(lines[1].size(), kExperiments);
  for (std::size_t r = 0; r < kExperiments; ++r)
    EXPECT_EQ(lines[0][r], lines[1][r]) << "record " << r << " differs with --no-fastmode";

  // The --replay contract: the isolated re-run reproduces the canonical
  // bytes, the result records which tier ran it, and the full JSONL form
  // carries the flag (the canonical form must not).
  for (const bool fastmode : {true, false}) {
    campaign::CampaignConfig cfg = base;
    cfg.fastmode = fastmode;
    const campaign::ExperimentResult er =
        campaign::run_experiment_with_retry(ca, faults[0], cfg);
    EXPECT_EQ(er.fastmode, fastmode) << "result does not record its engine tier";
    const campaign::ExperimentRecord rec{0, 0, campaign::experiment_seed(kSeed, 0), er};
    const std::string replayed =
        campaign::experiment_record_to_json(rec, /*include_host_timing=*/false);
    EXPECT_EQ(without_restore_cost(replayed), without_restore_cost(lines[0][0]))
        << "replay with fastmode=" << fastmode << " diverged from the campaign record";
    const std::string full = campaign::experiment_record_to_json(rec);
    EXPECT_NE(full.find("\"fastmode\""), std::string::npos);
    EXPECT_EQ(lines[0][0].find("\"fastmode\""), std::string::npos)
        << "canonical record leaks the host-side tier flag";
  }

  // The calibration header record carries the golden-run costs and the tier.
  const std::string header = campaign::calibration_record_to_json("pi", ca, true);
  for (const char* key : {"\"event\":\"calibrated\"", "\"app\":\"pi\"", "\"golden_insts\"",
                          "\"kernel_fetches\"", "\"calib_wall_seconds\"", "\"fastmode\""})
    EXPECT_NE(header.find(key), std::string::npos) << key << " missing from " << header;
}

}  // namespace
