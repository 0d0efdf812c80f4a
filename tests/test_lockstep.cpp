// Lockstep differential tests for the host-side fast paths: every guest app
// on every CPU model, with the predecoded-instruction cache on and off, must
// produce bit-identical commit traces — a running digest over the full
// architectural state (PC + both register files) folded at every commit,
// plus the final physical-memory image, output and exit status. The same
// harness drives the two hard cases for the cache: a fetch-stage fault
// that corrupts a word whose page is already predecoded (the bypass path),
// and self-modifying code that rewrites an already-cached instruction
// (the page-version invalidation path).
//
// The second half proves the timing-model fast lane (MRU cache hits, the
// fetch line buffer and stall-cycle warping) tick-exact against the
// `fastpath=false` per-tick reference: identical exit reason, tick count,
// commit count, guest output, memory image AND the L1I/L1D/L2
// hit/miss/writeback counters — including under stage faults, direct
// register/PC faults due inside a warped window, preemption, and a watchdog
// that expires mid-stall. The last case wakes a sleeping thread inside a
// trace batch or a warped stall on all three models.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "assembler/assembler.hpp"
#include "fi/fault.hpp"
#include "fi/syscall_fault.hpp"
#include "sim/simulation.hpp"
#include "util/bytesio.hpp"

namespace {

using namespace gemfi;
using namespace gemfi::assembler;

constexpr std::uint64_t kFoldMul = 6364136223846793005ull;
constexpr std::uint64_t kFoldAdd = 1442695040888963407ull;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  return (h ^ v) * kFoldMul + kFoldAdd;
}

/// Everything a run can observably produce, digested for equality checks.
struct Trace {
  std::uint64_t commits = 0;
  std::uint64_t state_hash = 0;  // per-commit fold of PC + all registers
  std::uint32_t mem_crc = 0;     // final physical-memory image
  std::uint64_t bypasses = 0;    // predecode entries bypassed for FI
  std::string output;
  sim::ExitReason reason = sim::ExitReason::AllThreadsExited;
  cpu::TrapKind trap = cpu::TrapKind::None;

  // Timing-visible state, compared only by expect_tick_exact(): the timing
  // fast lane must preserve these bit-for-bit, but they legitimately differ
  // across CPU models (so they stay out of operator==, which also backs the
  // cross-model assertions).
  std::uint64_t ticks = 0;
  std::array<std::uint64_t, 9> cache{};  // hits/misses/writebacks × L1I,L1D,L2
  std::vector<std::string> fi_log;       // injection log; entries embed ticks

  // Architecturally observable state only: `bypasses` is a host-side cache
  // counter that legitimately differs between predecode on and off.
  bool operator==(const Trace& o) const {
    return commits == o.commits && state_hash == o.state_hash && mem_crc == o.mem_crc &&
           output == o.output && reason == o.reason && trap == o.trap;
  }
};

/// The fast lane's full contract: the architectural trace of operator==,
/// plus the simulated tick count, every cache counter, and the injection
/// log (whose entries embed the tick at which each fault applied).
void expect_tick_exact(const Trace& fast, const Trace& slow, const std::string& label) {
  EXPECT_EQ(fast, slow) << label << ": architectural trace diverged";
  EXPECT_EQ(fast.ticks, slow.ticks) << label << ": tick count diverged";
  EXPECT_EQ(fast.cache, slow.cache) << label << ": cache counters diverged";
  EXPECT_EQ(fast.fi_log, slow.fi_log) << label << ": injection log diverged";
  EXPECT_EQ(fast.bypasses, slow.bypasses) << label;
}

/// A stall-heavy memory configuration: tiny caches so the timing models
/// spend most ticks inside multi-cycle miss stalls — exactly the windows
/// the fast lane warps over or batches through.
void use_small_caches(mem::MemSysConfig& mem) {
  mem.l1i = {.size_bytes = 1024, .line_bytes = 64, .ways = 2, .hit_latency = 1, .name = "l1i"};
  mem.l1d = {.size_bytes = 1024, .line_bytes = 64, .ways = 2, .hit_latency = 2, .name = "l1d"};
  mem.l2 = {.size_bytes = 4096, .line_bytes = 64, .ways = 4, .hit_latency = 10, .name = "l2"};
}

struct RunSpec {
  sim::CpuKind cpu = sim::CpuKind::AtomicSimple;
  bool predecode = true;
  bool fastpath = true;
  bool small_caches = false;
  std::uint64_t watchdog = 500'000'000ull;
  std::vector<fi::Fault> faults;
  sim::Simulation::CheckpointHandler on_checkpoint;  // may be null
};

/// The default RunSpec on `cpu` with the predecode cache on or off.
RunSpec predecode_spec(sim::CpuKind cpu, bool predecode,
                       std::vector<fi::Fault> faults = {}) {
  RunSpec spec;
  spec.cpu = cpu;
  spec.predecode = predecode;
  spec.faults = std::move(faults);
  return spec;
}

Trace run_traced(const assembler::Program& prog, const RunSpec& spec) {
  sim::SimConfig cfg;
  cfg.cpu = spec.cpu;
  cfg.predecode = spec.predecode;
  cfg.fastpath = spec.fastpath;
  if (spec.small_caches) use_small_caches(cfg.mem);
  sim::Simulation s(cfg, prog);
  s.spawn_main_thread();
  if (spec.on_checkpoint) s.set_checkpoint_handler(spec.on_checkpoint);
  if (!spec.faults.empty()) s.fault_manager().load_faults(spec.faults);

  Trace t;
  s.set_commit_observer([&t](const cpu::CommitEvent& ev, const cpu::ArchState& arch) {
    ++t.commits;
    std::uint64_t h = t.state_hash;
    h = fold(h, ev.pc);
    h = fold(h, arch.pc());
    for (unsigned r = 0; r < 31; ++r) h = fold(h, arch.ireg(r));
    for (unsigned r = 0; r < 31; ++r) h = fold(h, arch.freg_bits(r));
    t.state_hash = h;
  });

  const sim::RunResult rr = s.run(spec.watchdog);
  t.mem_crc = util::crc32(s.memsys().phys().raw());
  t.bypasses = s.memsys().predecode_stats().bypasses;
  t.output = s.output(0);
  t.reason = rr.reason;
  t.trap = rr.trap.kind;
  t.ticks = rr.ticks;
  const mem::CacheStats* cs[3] = {&s.memsys().l1i_stats(), &s.memsys().l1d_stats(),
                                  &s.memsys().l2_stats()};
  for (std::size_t i = 0; i < 3; ++i) {
    t.cache[i * 3 + 0] = cs[i]->hits;
    t.cache[i * 3 + 1] = cs[i]->misses;
    t.cache[i * 3 + 2] = cs[i]->writebacks;
  }
  t.fi_log = s.fault_manager().injection_log();
  return t;
}

constexpr sim::CpuKind kModels[] = {sim::CpuKind::AtomicSimple, sim::CpuKind::TimingSimple,
                                    sim::CpuKind::Pipelined};

// ---------------- all six apps, three models, predecode on vs off ----------

class LockstepApps : public ::testing::TestWithParam<std::string> {};

TEST_P(LockstepApps, PredecodeOnOffAndCrossModelBitIdentical) {
  const apps::App app = apps::build_app(GetParam());
  Trace reference;
  bool have_reference = false;
  for (const sim::CpuKind cpu : kModels) {
    const Trace on = run_traced(app.program, predecode_spec(cpu, true));
    const Trace off = run_traced(app.program, predecode_spec(cpu, false));
    ASSERT_EQ(on.reason, sim::ExitReason::AllThreadsExited)
        << app.name << " on " << sim::cpu_kind_name(cpu);
    EXPECT_EQ(on, off) << app.name << " on " << sim::cpu_kind_name(cpu)
                       << ": predecode changed the commit trace";
    EXPECT_EQ(on.bypasses, 0u) << "fault-free run must never bypass";
    // Fault-free, the commit trace is also identical across the models.
    if (!have_reference) {
      reference = on;
      have_reference = true;
    } else {
      EXPECT_EQ(on, reference) << app.name << ": " << sim::cpu_kind_name(cpu)
                               << " diverged from " << sim::cpu_kind_name(kModels[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, LockstepApps, ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) { return info.param; });

// ---------------- fetch-stage fault onto a predecoded page ----------------

TEST(LockstepFaults, FetchFaultBypassesCacheBitIdentically) {
  const apps::App app = apps::build_app("pi");
  const fi::Fault fault =
      fi::parse_fault("FetchStageInjectedFault Inst:50 Flip:3 Threadid:0 system.cpu0 occ:1");
  for (const sim::CpuKind cpu : kModels) {
    const Trace on = run_traced(app.program, predecode_spec(cpu, true, {fault}));
    const Trace off = run_traced(app.program, predecode_spec(cpu, false, {fault}));
    EXPECT_EQ(on, off) << sim::cpu_kind_name(cpu)
                       << ": fetch fault outcome differs with predecode";
    // The corrupted fetch hit a page that was already predecoded (the kernel
    // loop runs from it), so the cache must have taken its bypass path.
    EXPECT_GE(on.bypasses, 1u) << sim::cpu_kind_name(cpu);
    EXPECT_EQ(off.bypasses, 0u);  // cache disabled: nothing to bypass
  }
}

TEST(LockstepFaults, FetchFaultSweepAcrossBitsAndTimes) {
  // A denser sweep on the atomic model (the fast-path owner): several
  // injection times and bit positions, each compared on vs off.
  const apps::App app = apps::build_app("pi");
  for (const std::uint64_t inst : {1ull, 17ull, 400ull}) {
    for (const unsigned bit : {0u, 13u, 26u, 31u}) {
      fi::Fault f;
      f.location = fi::FaultLocation::Fetch;
      f.time_kind = fi::FaultTimeKind::Instruction;
      f.time = inst;
      f.behavior = fi::FaultBehavior::Flip;
      f.operand = bit;
      const sim::CpuKind cpu = sim::CpuKind::AtomicSimple;
      const Trace on = run_traced(app.program, predecode_spec(cpu, true, {f}));
      const Trace off = run_traced(app.program, predecode_spec(cpu, false, {f}));
      EXPECT_EQ(on, off) << "Inst:" << inst << " Flip:" << bit;
    }
  }
}

// ---------------- self-modifying code invalidates cached pages ------------

/// A loop whose body is patched mid-run by the checkpoint handler (the
/// host-side stand-in for a store into the code segment): iteration 1 runs
/// the original `addq t0, 1`, the handler then rewrites it to `addq t0, 5`,
/// and iterations 2 and 3 must execute the new word — 1 + 5 + 5 = 11.
/// A predecode cache that misses the rewrite keeps serving the stale decode
/// and prints 3 instead.
assembler::Program smc_program() {
  Assembler as;
  const Label entry = as.here("main");
  as.li(reg::s0, 3);
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

isa::Word addq5_word() {
  Assembler as;
  const Label entry = as.here("main");
  as.addq_i(reg::t0, 5, reg::t0);
  return as.finalize(entry).code.at(0);
}

TEST(LockstepSmc, StoreIntoCachedPageInvalidates) {
  const assembler::Program prog = smc_program();
  const std::uint64_t patch_addr = prog.symbol("patchme");
  const isa::Word new_word = addq5_word();
  for (const sim::CpuKind cpu : kModels) {
    Trace traces[2];
    int i = 0;
    for (const bool predecode : {true, false}) {
      int calls = 0;
      RunSpec spec;
      spec.cpu = cpu;
      spec.predecode = predecode;
      spec.on_checkpoint = [&calls, patch_addr, new_word](sim::Simulation& s) {
        if (++calls == 2) {
          ASSERT_EQ(s.memsys().phys().store(patch_addr, 4, new_word), mem::AccessError::None);
        }
      };
      traces[i++] = run_traced(prog, spec);
    }
    EXPECT_EQ(traces[0], traces[1]) << sim::cpu_kind_name(cpu);
    EXPECT_EQ(traces[0].output, "11")
        << sim::cpu_kind_name(cpu) << ": stale predecoded word executed after rewrite";
  }
}

// ---------------- batched fast dispatch loop vs the per-tick loop ---------
//
// With predecode on, no FI hooks and no commit observer, the atomic model
// runs the batched fast dispatch loop; with predecode=false it runs the
// legacy one-commit-per-tick loop. The two must agree on every observable:
// outputs, tick and commit counts, the memory image, the exit status.

struct FastRun {
  sim::RunResult rr;
  std::vector<std::string> outputs;  // one per thread
  std::uint32_t mem_crc = 0;
  std::uint64_t hits = 0;                // predecode-cache hits (0 when disabled)
  std::array<std::uint64_t, 9> cache{};  // hits/misses/writebacks × L1I,L1D,L2
};

struct PlainSpec {
  sim::CpuKind cpu = sim::CpuKind::AtomicSimple;
  bool predecode = true;
  bool fastpath = true;
  bool fastmode = true;
  bool small_caches = false;
  std::uint64_t quantum = 50000;
  std::uint64_t watchdog = 500'000'000ull;
  std::string syscall_plan = {};  // empty: none
};

FastRun run_plain(const assembler::Program& prog, const PlainSpec& spec,
                  const std::vector<std::uint64_t>& thread_args) {
  sim::SimConfig cfg;
  cfg.cpu = spec.cpu;
  cfg.fi_enabled = false;  // no stage hooks, no observer: batches may engage
  cfg.predecode = spec.predecode;
  cfg.fastpath = spec.fastpath;
  cfg.fastmode = spec.fastmode;
  cfg.quantum_insts = spec.quantum;
  if (spec.small_caches) use_small_caches(cfg.mem);
  sim::Simulation s(cfg, prog);
  for (const std::uint64_t arg : thread_args) s.spawn_thread(prog.entry, {arg});
  if (!spec.syscall_plan.empty())
    s.syscall_injector().add_plan(fi::parse_syscall_plan(spec.syscall_plan));
  FastRun fr;
  fr.rr = s.run(spec.watchdog);
  for (std::size_t t = 0; t < thread_args.size(); ++t)
    fr.outputs.push_back(s.output(t));
  fr.mem_crc = util::crc32(s.memsys().phys().raw());
  fr.hits = s.memsys().predecode_stats().hits;
  const mem::CacheStats* cs[3] = {&s.memsys().l1i_stats(), &s.memsys().l1d_stats(),
                                  &s.memsys().l2_stats()};
  for (std::size_t i = 0; i < 3; ++i) {
    fr.cache[i * 3 + 0] = cs[i]->hits;
    fr.cache[i * 3 + 1] = cs[i]->misses;
    fr.cache[i * 3 + 2] = cs[i]->writebacks;
  }
  return fr;
}

TEST(LockstepFastDispatch, MatchesPerTickLoopOnAllApps) {
  for (const std::string& name : apps::app_names()) {
    const apps::App app = apps::build_app(name);
    const FastRun fast = run_plain(app.program, {.predecode = true}, {0});
    const FastRun slow = run_plain(app.program, {.predecode = false}, {0});
    ASSERT_EQ(fast.rr.reason, sim::ExitReason::AllThreadsExited) << name;
    EXPECT_EQ(fast.rr.reason, slow.rr.reason) << name;
    EXPECT_EQ(fast.rr.ticks, slow.rr.ticks) << name;
    EXPECT_EQ(fast.rr.committed, slow.rr.committed) << name;
    EXPECT_EQ(fast.outputs, slow.outputs) << name;
    EXPECT_EQ(fast.mem_crc, slow.mem_crc) << name;
    EXPECT_GT(fast.hits, 0u) << name << ": fast path never hit the cache";
    EXPECT_EQ(slow.hits, 0u) << name;
  }
}

/// Three threads hammer one shared counter — load, add the thread id, store
/// — under a tiny preemption quantum, then print the final counter value
/// they observe and their own GET_INSTRET. Both are sensitive to the exact
/// commit at which preemption lands, so a batched loop that context-switches
/// even one instruction early or late diverges from the per-tick loop.
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

TEST(LockstepFastDispatch, PreemptsOnTheExactSameInstruction) {
  const assembler::Program prog = shared_counter_program();
  for (const std::uint64_t quantum : {7ull, 50ull, 333ull}) {
    const FastRun fast = run_plain(prog, {.predecode = true, .quantum = quantum}, {1, 2, 3});
    const FastRun slow = run_plain(prog, {.predecode = false, .quantum = quantum}, {1, 2, 3});
    ASSERT_EQ(fast.rr.reason, sim::ExitReason::AllThreadsExited) << "q=" << quantum;
    EXPECT_EQ(fast.rr.ticks, slow.rr.ticks) << "q=" << quantum;
    EXPECT_EQ(fast.rr.committed, slow.rr.committed) << "q=" << quantum;
    EXPECT_EQ(fast.outputs, slow.outputs) << "q=" << quantum;
    EXPECT_EQ(fast.mem_crc, slow.mem_crc) << "q=" << quantum;
    // The counter is racy by design — a preemption between a thread's load
    // and store loses updates — so the printed values are a direct function
    // of where every context switch landed. (No atomicity to assert; the
    // fast-vs-slow equality above is the whole point.)
    for (const std::string& out : fast.outputs) EXPECT_FALSE(out.empty());
  }
}

TEST(LockstepFastDispatch, WatchdogFiresAtTheSameTick) {
  // An infinite loop: the batched loop must consume its watchdog budget in
  // exactly as many ticks as the per-tick loop.
  Assembler as;
  const Label entry = as.here("main");
  const Label spin = as.here("spin");
  as.addq_i(reg::t0, 1, reg::t0);
  as.br(spin);
  const assembler::Program prog = as.finalize(entry);

  for (const bool predecode : {true, false}) {
    sim::SimConfig cfg;
    cfg.cpu = sim::CpuKind::AtomicSimple;
    cfg.fi_enabled = false;
    cfg.predecode = predecode;
    sim::Simulation s(cfg, prog);
    s.spawn_main_thread();
    const sim::RunResult rr = s.run(12345);
    EXPECT_EQ(rr.reason, sim::ExitReason::Watchdog) << predecode;
    EXPECT_EQ(rr.ticks, 12345u) << predecode;
    EXPECT_EQ(rr.committed, 12345u) << predecode;
  }
}

// ---------------- the timing-model fast lane, fast vs slow ----------------
//
// cfg.fastpath gates the MRU cache hit path + fetch line buffer and
// stall-cycle warping; fastpath=false reverts both to the per-tick
// reference. Both timing models run per tick with or without a commit
// observer, so run_traced() and the observer-free run_plain() exercise the
// same fast lane.

constexpr sim::CpuKind kTimingModels[] = {sim::CpuKind::TimingSimple, sim::CpuKind::Pipelined};

std::string lane_label(const std::string& what, sim::CpuKind cpu, bool small) {
  return what + " on " + sim::cpu_kind_name(cpu) + (small ? " (small caches)" : "");
}

TEST(LockstepFastLane, AppsTickExactOnTimingModels) {
  for (const std::string& name : apps::app_names()) {
    const apps::App app = apps::build_app(name);
    for (const sim::CpuKind cpu : kTimingModels) {
      for (const bool small : {false, true}) {
        RunSpec spec;
        spec.cpu = cpu;
        spec.small_caches = small;
        const Trace fast = run_traced(app.program, spec);
        spec.fastpath = false;
        const Trace slow = run_traced(app.program, spec);
        ASSERT_EQ(fast.reason, sim::ExitReason::AllThreadsExited)
            << lane_label(name, cpu, small);
        expect_tick_exact(fast, slow, lane_label(name, cpu, small));
      }
    }
  }
}

TEST(LockstepFastLane, StageAndMemFaultsTickExact) {
  // Fetch- and memory-stage faults fire from the instruction flow, which the
  // fast lane never skips; the corrupted run must stay tick-exact even when
  // the fault changes control flow, latencies, or ends in a crash. The
  // LoadStore fault targets jacobi — pi's kernel is pure arithmetic and
  // would never present a memory transaction to corrupt.
  struct Case {
    const char* app;
    const char* line;
  };
  const Case cases[] = {
      {"pi", "FetchStageInjectedFault Inst:50 Flip:3 Threadid:0 system.cpu0 occ:1"},
      {"pi", "FetchStageInjectedFault Inst:400 Flip:26 Threadid:0 system.cpu0 occ:2"},
      {"jacobi", "LoadStoreInjectedFault Inst:120 Flip:7 Threadid:0 system.cpu0 occ:1"},
      {"pi", "ExecutionStageInjectedFault Inst:300 Xor:0xff Threadid:0 system.cpu0 occ:1"},
  };
  for (const auto& [app_name, line] : cases) {
    const apps::App app = apps::build_app(app_name);
    const fi::Fault f = fi::parse_fault(line);
    for (const sim::CpuKind cpu : kTimingModels) {
      RunSpec spec;
      spec.cpu = cpu;
      spec.small_caches = true;
      spec.watchdog = 50'000'000ull;
      spec.faults = {f};
      const Trace fast = run_traced(app.program, spec);
      spec.fastpath = false;
      const Trace slow = run_traced(app.program, spec);
      expect_tick_exact(fast, slow, lane_label(line, cpu, true));
      EXPECT_FALSE(fast.fi_log.empty()) << lane_label(line, cpu, true) << ": fault never applied";
    }
  }
}

TEST(LockstepFastLane, DirectFaultsBoundWarpsTickExact) {
  // Register/PC faults apply at tick boundaries — including ticks in the
  // middle of a stall the fast lane would warp over. The warp horizon must
  // stop exactly at each due tick: the injection log (whose entries embed
  // the application tick) has to match the per-tick loop line for line.
  // Tick:.. Imm is the sticky case — it re-applies on consecutive ticks
  // until its occurrence budget drains, pinning the horizon tick by tick.
  const apps::App app = apps::build_app("pi");
  const char* lines[] = {
      "RegisterInjectedFault Inst:200 Flip:21 Threadid:0 system.cpu0 occ:1 int 9",
      "RegisterInjectedFault Tick:900 Flip:13 Threadid:0 system.cpu0 occ:1 int 3",
      "RegisterInjectedFault Tick:1234 Imm:0xfeed Threadid:0 system.cpu0 occ:3 int 5",
      "PCInjectedFault Inst:400 Flip:4 Threadid:0 system.cpu0 occ:1",
  };
  for (const char* line : lines) {
    const fi::Fault f = fi::parse_fault(line);
    for (const sim::CpuKind cpu : kTimingModels) {
      RunSpec spec;
      spec.cpu = cpu;
      spec.small_caches = true;
      // Tight enough that a fault-induced infinite loop doesn't dominate the
      // suite; every injection lands within the first few thousand ticks.
      spec.watchdog = 8'000'000ull;
      spec.faults = {f};
      const Trace fast = run_traced(app.program, spec);
      spec.fastpath = false;
      const Trace slow = run_traced(app.program, spec);
      expect_tick_exact(fast, slow, lane_label(line, cpu, true));
      EXPECT_FALSE(fast.fi_log.empty()) << lane_label(line, cpu, true) << ": fault never applied";
    }
  }
}

/// An endless 4 KiB-stride load walk starting at 2 MiB (mapped, far from
/// both the image and the stacks): under the small-cache config every load
/// misses to DRAM, so the run is almost entirely multi-cycle stall windows.
assembler::Program dram_stride_program() {
  Assembler as;
  const Label entry = as.here("main");
  as.li(reg::s2, 0x200000);
  as.li(reg::t1, 4096);
  const Label loop = as.here("loop");
  as.ldq(reg::t0, 0, reg::s2);
  as.addq(reg::s2, reg::t1, reg::s2);
  as.br(loop);
  return as.finalize(entry);
}

TEST(LockstepFastLane, WatchdogExpiresInsideWarpedStallTickExact) {
  // Sweep 16 consecutive watchdog budgets: with ~72-cycle DRAM stalls most
  // land strictly inside a stall the fast lane is warping (or batching)
  // through. The run must still stop at exactly the budgeted tick.
  const assembler::Program prog = dram_stride_program();
  for (const sim::CpuKind cpu : kTimingModels) {
    for (std::uint64_t wd = 600; wd < 616; ++wd) {
      RunSpec spec;
      spec.cpu = cpu;
      spec.small_caches = true;
      spec.watchdog = wd;
      const Trace fast = run_traced(prog, spec);
      spec.fastpath = false;
      const Trace slow = run_traced(prog, spec);
      ASSERT_EQ(fast.reason, sim::ExitReason::Watchdog) << lane_label("stride", cpu, true);
      EXPECT_EQ(fast.ticks, wd) << lane_label("stride", cpu, true);
      expect_tick_exact(fast, slow, lane_label("stride wd=" + std::to_string(wd), cpu, true));
    }
  }
}

TEST(LockstepFastLane, PreemptsOnTheExactSameInstruction) {
  // Preemption is commit-indexed, so a warp never crosses it; a context
  // switch must land on the same instruction and at the same tick as in the
  // per-tick loop. The shared counter makes any drift architectural.
  const assembler::Program prog = shared_counter_program();
  for (const sim::CpuKind cpu : kTimingModels) {
    for (const std::uint64_t quantum : {7ull, 50ull, 333ull}) {
      PlainSpec base;
      base.cpu = cpu;
      base.small_caches = true;
      base.quantum = quantum;
      PlainSpec off = base;
      off.fastpath = false;
      const FastRun fast = run_plain(prog, base, {1, 2, 3});
      const FastRun slow = run_plain(prog, off, {1, 2, 3});
      const std::string label = lane_label("q=" + std::to_string(quantum), cpu, true);
      ASSERT_EQ(fast.rr.reason, sim::ExitReason::AllThreadsExited) << label;
      EXPECT_EQ(fast.rr.ticks, slow.rr.ticks) << label;
      EXPECT_EQ(fast.rr.committed, slow.rr.committed) << label;
      EXPECT_EQ(fast.outputs, slow.outputs) << label;
      EXPECT_EQ(fast.mem_crc, slow.mem_crc) << label;
      EXPECT_EQ(fast.cache, slow.cache) << label;
    }
  }
}

// ---------------- sleeper wakes bound every multi-tick step ---------------

/// Two threads on one CPU. Thread 0 (a0 = 0) makes four sys_alloc calls,
/// each parked by a latency plan, and after each wake prints the loader's
/// progress counter. Thread 1 walks a 32 KiB region at a 64-byte stride —
/// on the small caches every walk load misses — bumping that counter per
/// load, and sets a done flag before it exits. The first three calls park
/// while thread 1 runs, so their wakes land inside an atomic trace batch or
/// a warped miss stall. The fourth comes only after the done flag, so every
/// live thread sleeps and the run loop jumps the clock to the wake. With a
/// short quantum the woken thread gets the CPU within a few commits, so a
/// wake serviced late shows in the printed counters.
assembler::Program sleeper_loader_program() {
  Assembler as;
  const DataRef counter = as.data_u64(std::uint64_t(0));
  const DataRef done = as.data_u64(std::uint64_t(0));
  const DataRef region = as.data_zeros(32 * 1024, 64);
  const Label entry = as.here("main");
  const Label loader = as.make_label("loader");
  const auto parked_alloc = [&as] {
    as.li(reg::a0, 64);
    as.li(reg::v0, 1);  // sys_alloc
    as.syscall_();
  };
  const auto print_counter = [&as] {
    as.ldq(reg::t0, 0, reg::s2);
    as.print_int_r(reg::t0);
    as.li(reg::t0, ',');
    as.print_char_r(reg::t0);
  };
  as.bne(reg::a0, loader);

  as.la(reg::s2, counter);
  as.la(reg::s3, done);
  as.li(reg::s0, 3);
  const Label again = as.here("again");
  parked_alloc();
  print_counter();
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, again);
  const Label wait = as.here("wait");
  as.ldq(reg::t0, 0, reg::s3);
  as.beq(reg::t0, wait);
  parked_alloc();  // the loader has exited: every live thread sleeps
  print_counter();
  as.mov_i(0, reg::a0);
  as.exit_();

  as.bind(loader);
  as.la(reg::s2, counter);
  as.la(reg::s3, done);
  as.la(reg::s4, region);
  as.li(reg::s0, 512);
  const Label walk = as.here("walk");
  as.ldq(reg::t0, 0, reg::s4);
  as.lda(reg::s4, 64, reg::s4);
  as.ldq(reg::t1, 0, reg::s2);
  as.addq_i(reg::t1, 1, reg::t1);
  as.stq(reg::t1, 0, reg::s2);
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, walk);
  as.li(reg::t0, 1);
  as.stq(reg::t0, 0, reg::s3);
  as.mov_i(0, reg::a0);
  as.exit_();
  return as.finalize(entry);
}

TEST(LockstepEventBound, SleeperWakesInsideBatchOrStallTickExact) {
  // The trace batch, the stall warp and the all-asleep jump share one bound,
  // whose sleeper term ends each of them on the wake tick. A batch or jump
  // that overshoots it moves the woken thread's schedule, which the
  // per-tick reference shows in the printed counters and the tick count.
  const assembler::Program prog = sleeper_loader_program();
  for (const sim::CpuKind cpu : kModels) {
    for (const std::uint64_t latency : {9ull, 150ull, 1001ull, 4099ull}) {
      PlainSpec fast_spec;
      fast_spec.cpu = cpu;
      fast_spec.small_caches = true;
      fast_spec.quantum = 20;
      fast_spec.syscall_plan = "alloc@idx:1-4 latency:" + std::to_string(latency);
      PlainSpec slow_spec = fast_spec;
      slow_spec.fastpath = false;
      slow_spec.fastmode = false;
      const FastRun fast = run_plain(prog, fast_spec, {0, 1});
      const FastRun slow = run_plain(prog, slow_spec, {0, 1});
      const std::string label = lane_label("latency " + std::to_string(latency), cpu, true);
      ASSERT_EQ(fast.rr.reason, sim::ExitReason::AllThreadsExited) << label;
      EXPECT_EQ(fast.rr.reason, slow.rr.reason) << label;
      EXPECT_EQ(fast.rr.ticks, slow.rr.ticks) << label;
      EXPECT_EQ(fast.rr.committed, slow.rr.committed) << label;
      EXPECT_EQ(fast.outputs, slow.outputs) << label;
      EXPECT_EQ(fast.mem_crc, slow.mem_crc) << label;
      EXPECT_EQ(fast.cache, slow.cache) << label;
      // The last wake comes after the loader's 512 loads.
      EXPECT_TRUE(fast.outputs[0].ends_with(",512,")) << label << ": " << fast.outputs[0];
    }
  }
}

}  // namespace
