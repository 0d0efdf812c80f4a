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
// armed faults of every location (the tier runs up to the fault horizon and
// must hand every instruction a triggered fault could hit to the
// interpreter — equality under a permanent stuck-at is only possible if
// every in-window fetch after the trigger went through it), the horizon's
// exact edges and watched-register exits, preemption quanta
// across all three CPU models, and the campaign/replay JSONL byte-identity
// contract.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
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
  sim::TierInsts tiers{};
  std::uint64_t cpu_retired = 0;  // CpuStats::committed (counts EXIT too)
};

struct GoldenSpec {
  sim::CpuKind cpu = sim::CpuKind::AtomicSimple;
  bool fastmode = true;
  bool fi_enabled = true;
  std::uint64_t watchdog = 500'000'000ull;
  std::vector<fi::Fault> faults;
  sim::Simulation::CheckpointHandler on_checkpoint;  // may be null
  // One thread per entry, started at the program entry with the value in
  // a0; empty runs the main thread alone.
  std::vector<std::uint64_t> threads;
  std::uint64_t quantum = 50000;
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
  cfg.quantum_insts = spec.quantum;
  sim::Simulation s(cfg, prog);
  if (spec.threads.empty()) s.spawn_main_thread();
  for (const std::uint64_t arg : spec.threads) s.spawn_thread(prog.entry, {arg});
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
  for (std::size_t t = 1; t < spec.threads.size(); ++t) g.output += "|" + s.output(t);
  g.fi_log = s.fault_manager().injection_log();
  g.sb = s.memsys().superblock_stats();
  g.tiers = s.tier_insts();
  g.cpu_retired = s.cpu().stats().committed;
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
  // baseline (`fastmode=false`) walks the per-tick hook loop — the exact A/B
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
  EXPECT_EQ(slow.sb.exec_insts, 0u) << app.name << ": fastmode=false still ran traces";
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

// ---------------- the fault horizon: exact edges -------------------------

/// A small FI-window kernel for the horizon edge cases. Every thread runs it
/// with its FI id in a0 (also its private memory cell). The 40-iteration
/// loop is one hot trace that reads s1, overwrites t2 before reading it,
/// round-trips a memory cell and accumulates in f2 — and never names t11.
/// The window closes after a GET_INSTRET pseudo-op and an (invalid-number)
/// syscall, so faults can land right behind either.
assembler::Program horizon_kernel() {
  Assembler as;
  const DataRef cells = as.data_zeros(16);
  const Label entry = as.here("main");
  as.mov(reg::a0, reg::s3);
  as.la(reg::s2, cells);
  as.s8addq(reg::s3, reg::s2, reg::s2);
  as.fi_activate();
  as.li(reg::s0, 40);
  as.li(reg::s1, 3);
  as.li(reg::t0, 0);
  as.fli(1, 1.5);
  as.fli(2, 0.0);
  const Label loop = as.here("loop");
  as.addq(reg::t0, reg::s1, reg::t0);
  as.mov_i(7, reg::t2);
  as.addq(reg::t0, reg::t2, reg::t0);
  as.ldq(reg::t3, 0, reg::s2);
  as.addq_i(reg::t3, 1, reg::t3);
  as.stq(reg::t3, 0, reg::s2);
  as.addt(2, 1, 2);
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, loop);
  as.instret();
  as.addq(reg::t0, reg::v0, reg::t0);
  as.li(reg::v0, 999);
  as.syscall_();
  as.addq(reg::t0, reg::v0, reg::t0);
  as.addq_i(reg::t0, 1, reg::t0);
  as.mov(reg::s3, reg::a0);
  as.fi_activate();
  as.print_int_r(reg::t0);
  as.print_int_r(reg::t3);
  as.fmov(2, reg::a0);
  as.print_fp();
  as.mov_i(0, reg::a0);
  as.exit_();
  return as.finalize(entry);
}

/// Runs `line` with the tier on and off and demands every observable equal;
/// returns the fast run for tier-specific checks.
GoldenRun expect_horizon_exact(const assembler::Program& prog, const std::string& line,
                               std::vector<std::uint64_t> threads = {},
                               std::uint64_t quantum = 50000) {
  GoldenSpec spec;
  spec.watchdog = 200'000;
  spec.faults = {fi::parse_fault(line)};
  spec.threads = std::move(threads);
  spec.quantum = quantum;
  const GoldenRun fast = run_golden(prog, spec);
  spec.fastmode = false;
  const GoldenRun slow = run_golden(prog, spec);
  expect_identical(fast, slow, line);
  // Every commit is counted on exactly one tier, and the trace tier's count
  // is the superblock cache's own.
  for (const GoldenRun* g : {&fast, &slow}) {
    const sim::TierInsts& t = g->tiers;
    EXPECT_EQ(t.trace + t.batch + t.tick + t.detailed, g->cpu_retired) << line;
    EXPECT_EQ(t.trace, g->sb.exec_insts) << line;
  }
  EXPECT_EQ(slow.tiers.trace, 0u) << line;
  return fast;
}

/// A fault line "<head> <kind>:<t> <behavior> Threadid:<tid> system.cpu0
/// occ:1[ <target>]".
std::string at(const char* head, const char* kind, std::uint64_t t, const char* behavior,
               const char* target = "", int tid = 0) {
  std::string line = std::string(head) + " " + kind + ":" + std::to_string(t) + " " +
                     behavior + " Threadid:" + std::to_string(tid) + " system.cpu0 occ:1";
  if (*target != 0) line += std::string(" ") + target;
  return line;
}

/// FI-window length of the kernel's thread 0 in a fault-free run.
std::uint64_t horizon_window(const assembler::Program& prog) {
  return run_golden(prog, tier(true)).window_fetches;
}

TEST(FastmodeFaults, HorizonHandsTheInterpreterOnlyTheFiringInstruction) {
  // A transient stage fault is handed to the interpreter for exactly its
  // firing instruction, which commits and resolves it — one per-tick
  // instruction in the whole run, wherever it lands (Inst:1 included), and
  // traces before and after it. A horizon one short of the trigger costs a
  // second per-tick instruction; one past it never fires the fault.
  const assembler::Program prog = horizon_kernel();
  const std::uint64_t window = horizon_window(prog);
  ASSERT_GT(window, 300u);
  for (std::uint64_t n = 1; n <= window; n += (n < 24 ? 1 : 29)) {
    const std::string line = at("ExecutionStageInjectedFault", "Inst", n, "Xor:0x8");
    const GoldenRun fast = expect_horizon_exact(prog, line);
    ASSERT_EQ(fast.fi_log.size(), 1u) << line;
    EXPECT_EQ(fast.tiers.tick, 1u) << line << ": interpreter ran more than the firing op";
    EXPECT_GT(fast.tiers.trace, 0u) << line;
  }
}

TEST(FastmodeFaults, InstOneOnEveryLocationBitIdentical) {
  // Inst:1 is the first fetch after fi_activate: the horizon is 0 (stage
  // faults) or 1 (register/PC faults, applied after the first fetch) the
  // moment the window opens.
  const assembler::Program prog = horizon_kernel();
  for (const char* line :
       {"FetchStageInjectedFault Inst:1 Flip:2 Threadid:0 system.cpu0 occ:1",
        "DecodeStageInjectedFault Inst:1 Flip:1 Threadid:0 system.cpu0 occ:1 field rc",
        "ExecutionStageInjectedFault Inst:1 Xor:0x10 Threadid:0 system.cpu0 occ:1",
        "LoadStoreInjectedFault Inst:1 Flip:4 Threadid:0 system.cpu0 occ:1",
        "RegisterInjectedFault Inst:1 Flip:3 Threadid:0 system.cpu0 occ:1 int 10",
        "RegisterInjectedFault Inst:1 Flip:60 Threadid:0 system.cpu0 occ:1 float 1",
        "PCInjectedFault Inst:1 Flip:3 Threadid:0 system.cpu0 occ:1"}) {
    const GoldenRun fast = expect_horizon_exact(prog, line);
    EXPECT_FALSE(fast.fi_log.empty()) << line << ": fault never applied";
  }
}

TEST(FastmodeFaults, TriggerOnPreemptionQuantumBoundariesBitIdentical) {
  // Two threads under a 7-instruction quantum: sweeping the trigger over
  // the first 30 fetches lands it on, before and after the instruction at
  // which the scheduler preempts — the batch then has two equal bounds.
  const assembler::Program prog = horizon_kernel();
  for (std::uint64_t n = 1; n <= 30; ++n) {
    for (const std::string& line :
         {at("ExecutionStageInjectedFault", "Inst", n, "Xor:0x10"),
          at("RegisterInjectedFault", "Inst", n, "Flip:1", "int 10")}) {
      const GoldenRun fast = expect_horizon_exact(prog, line, {0, 1}, 7);
      EXPECT_FALSE(fast.fi_log.empty()) << line;
    }
  }
}

TEST(FastmodeFaults, TriggerRightAfterPseudoOpOrSyscallBitIdentical) {
  // The window's tail is GET_INSTRET, two ALU ops, the syscall, and the ops
  // that read its result: sweep every one of its last 12 fetch indices.
  const assembler::Program prog = horizon_kernel();
  const std::uint64_t window = horizon_window(prog);
  for (std::uint64_t n = window - 11; n <= window; ++n) {
    for (const std::string& line :
         {at("ExecutionStageInjectedFault", "Inst", n, "Xor:0x10"),
          at("RegisterInjectedFault", "Inst", n, "Flip:5", "int 1"),
          at("RegisterInjectedFault", "Inst", n, "Flip:2", "int 0")})
      expect_horizon_exact(prog, line);
  }
}

TEST(FastmodeFaults, FaultOfAnotherThreadDoesNotBoundTheRunningOne) {
  // Both threads open their own window (ids 0 and 1); a Threadid:1 fault
  // can only trigger while thread 1 runs, so thread 0's window stays on
  // the trace tier until the scheduler switches.
  const assembler::Program prog = horizon_kernel();
  for (const std::uint64_t n : {3ull, 120ull, 333ull}) {
    for (const std::uint64_t quantum : {50ull, 50000ull}) {
      const GoldenRun fast = expect_horizon_exact(
          prog, at("RegisterInjectedFault", "Inst", n, "Flip:1", "int 10", 1), {0, 1},
          quantum);
      EXPECT_FALSE(fast.fi_log.empty()) << n;
      EXPECT_GT(fast.tiers.trace, 300u) << n << ": thread 0's window left the trace tier";
    }
  }
}

TEST(FastmodeFaults, LoadStoreLandingOnNonMemoryInstructionBitIdentical) {
  // A LoadStore Inst:N fault arms at fetch N and fires on the next memory
  // transaction: traces run up to that load or store, which alone goes to
  // the interpreter. One loop iteration of trigger points covers ALU, FP,
  // branch and memory ops.
  const assembler::Program prog = horizon_kernel();
  for (std::uint64_t n = 30; n <= 40; ++n) {
    const GoldenRun fast =
        expect_horizon_exact(prog, at("LoadStoreInjectedFault", "Inst", n, "Flip:4"));
    ASSERT_EQ(fast.fi_log.size(), 1u) << n;
    EXPECT_EQ(fast.tiers.tick, 1u) << n << ": interpreter ran more than the memory op";
  }
}

TEST(FastmodeFaults, TickTimedFaultsBitIdentical) {
  // Tick:T triggers on the first tick at or after activation + T; in the
  // atomic model every tick is one instruction, so the horizon is exact
  // here too: a transient stage fault costs one per-tick instruction.
  const assembler::Program prog = horizon_kernel();
  for (const std::uint64_t t : {1ull, 2ull, 17ull, 150ull, 301ull}) {
    const std::string stage_line =
        at("ExecutionStageInjectedFault", "Tick", t, "Xor:0x10");
    const GoldenRun stage = expect_horizon_exact(prog, stage_line);
    ASSERT_EQ(stage.fi_log.size(), 1u) << t;
    EXPECT_EQ(stage.tiers.tick, 1u) << t;
    for (const std::string& line :
         {at("RegisterInjectedFault", "Tick", t, "Flip:1", "int 10"),
          at("LoadStoreInjectedFault", "Tick", t, "Flip:4"),
          "RegisterInjectedFault Tick:" + std::to_string(t) +
              " Imm:0x5 Threadid:0 system.cpu0 occ:2 int 1"}) {
      const GoldenRun fast = expect_horizon_exact(prog, line);
      EXPECT_FALSE(fast.fi_log.empty()) << line;
    }
  }
}

TEST(FastmodeFaults, WatchedRegisterResolvesInsideTheTraceTier) {
  // A corrupted register stays under propagation tracking until its first
  // read (consumed) or overwrite. Traces keep running and stop in front of
  // the first instruction naming it, which the interpreter retires with
  // on_commit — so the whole run costs at most the applying instruction
  // plus that one per-tick. Cases: s1, read by the hot trace every
  // iteration; t2, overwritten inside it before each read; t11, never
  // named (tracked to the end of the run, entirely on traces); f1, read
  // by the FP op.
  const assembler::Program prog = horizon_kernel();
  struct Case {
    const char* reg;
    bool resolved;
  };
  for (const Case c : {Case{"int 10", true}, Case{"int 3", true}, Case{"int 25", false},
                       Case{"float 1", true}}) {
    for (const std::uint64_t n : {10ull, 33ull, 34ull, 35ull, 36ull, 200ull}) {
      const std::string line = at("RegisterInjectedFault", "Inst", n, "Flip:2", c.reg);
      const GoldenRun fast = expect_horizon_exact(prog, line);
      ASSERT_EQ(fast.fi_log.size(), 1u) << line;
      EXPECT_LE(fast.tiers.tick, 2u) << line;
      EXPECT_GT(fast.tiers.trace, 300u) << line;
      sim::SimConfig cfg;
      cfg.cpu = sim::CpuKind::AtomicSimple;
      sim::Simulation s(cfg, prog);
      s.spawn_main_thread();
      s.fault_manager().load_faults({fi::parse_fault(line)});
      s.run(200'000);
      const fi::FaultState& fs = s.fault_manager().states().at(0);
      EXPECT_EQ(fs.consumed || fs.overwritten, c.resolved) << line;
    }
  }
}

// ---------------- engine-tier split of a whole campaign --------------------

/// Share of a seeded atomic campaign's retired instructions that ran on the
/// trace tier: every experiment restored into one Simulation from the
/// calibration checkpoint, as a campaign worker does.
double campaign_trace_share(const char* app_name, std::size_t experiments) {
  constexpr std::uint64_t kSeed = 7;
  campaign::CampaignConfig ccfg;
  ccfg.cpu = sim::CpuKind::AtomicSimple;
  const campaign::CalibratedApp ca = campaign::calibrate(apps::build_app(app_name), ccfg);
  const chkpt::CheckpointImage image = chkpt::CheckpointImage::parse(ca.checkpoint);
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, ca.app.program);
  s.spawn_main_thread();
  sim::TierInsts sum;
  for (std::size_t i = 0; i < experiments; ++i) {
    if (i == 0) image.restore_into(s);
    else image.restore_dirty_into(s);
    s.fault_manager().load_faults(
        {campaign::seeded_fault_any(kSeed, i, ca.kernel_fetches)});
    s.run(campaign::watchdog_ticks(ca, ccfg));
    const sim::TierInsts& t = s.tier_insts();
    sum.trace += t.trace;
    sum.batch += t.batch;
    sum.tick += t.tick;
    sum.detailed += t.detailed;
  }
  EXPECT_NE(s.stats_report().find("sim.tier.trace_insts"), std::string::npos);
  const std::uint64_t total = sum.trace + sum.batch + sum.tick + sum.detailed;
  std::printf("%s: %zu experiments, %llu insts: trace %.4f batch %.4f tick %.4f\n",
              app_name, experiments, static_cast<unsigned long long>(total),
              double(sum.trace) / double(total), double(sum.batch) / double(total),
              double(sum.tick) / double(total));
  EXPECT_EQ(sum.detailed, 0u) << app_name;
  return double(sum.trace) / double(total);
}

TEST(FastmodeTiers, SeededAtomicCampaignRetiresOnTheTraceTier) {
  // The deterministic counter behind the campaign speedup: with the fault
  // horizon, the per-tick interpreter runs only the instructions a hook can
  // observe. (Refusing the tier for the whole armed window and for every
  // unresolved register fault left DCT at 32%.) Pi has almost no memory
  // traffic, so a load/store fault waits long for its transaction: the
  // memory-access exit keeps that wait on the trace tier.
  EXPECT_GE(campaign_trace_share("dct", 100), 0.85);
  EXPECT_GE(campaign_trace_share("pi", 100), 0.85);
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
  const std::uint64_t watchdog = campaign::watchdog_ticks(ca, ccfg);

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

TEST(FastmodeCampaign, CanonicalRecordsByteIdenticalAndReplayMatchesOnEitherTier) {
  // The JSONL determinism contract extended to the trace tier: the same
  // seeded campaign on the atomic model — where fast mode actually engages —
  // streams byte-identical canonical records with the tier on and off, so a
  // record names no tier and --replay reproduces it on either.
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
    EXPECT_EQ(lines[0][r], lines[1][r]) << "record " << r << " differs with fastmode=false";

  // The --replay contract: the isolated re-run reproduces the canonical
  // bytes on either tier.
  for (const bool fastmode : {true, false}) {
    campaign::CampaignConfig cfg = base;
    cfg.fastmode = fastmode;
    const campaign::ExperimentResult er =
        campaign::run_experiment_with_retry(ca, faults[0], cfg);
    const campaign::ExperimentRecord rec{0, 0, campaign::experiment_seed(kSeed, 0), er};
    const std::string replayed =
        campaign::experiment_record_to_json(rec, /*include_host_timing=*/false);
    EXPECT_EQ(without_restore_cost(replayed), without_restore_cost(lines[0][0]))
        << "replay with fastmode=" << fastmode << " diverged from the campaign record";
  }

  // The calibration header record carries the golden-run costs.
  const std::string header = campaign::calibration_record_to_json("pi", ca);
  for (const char* key : {"\"event\":\"calibrated\"", "\"app\":\"pi\"", "\"golden_insts\"",
                          "\"kernel_fetches\"", "\"calib_wall_seconds\""})
    EXPECT_NE(header.find(key), std::string::npos) << key << " missing from " << header;
}

}  // namespace
