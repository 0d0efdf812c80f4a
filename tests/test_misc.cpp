// Cross-cutting edge cases: checkpoint/config mismatches, assembler link
// errors, paper-scale app builds, injection-log contents, and watchdog
// behavior under fault-induced livelock.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "assembler/assembler.hpp"
#include "chkpt/checkpoint.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace gemfi;
using namespace gemfi::assembler;

TEST(CheckpointMismatch, RestoreIntoDifferentMemoryGeometryThrows) {
  const apps::App app = apps::build_app("pi");
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation a(cfg, app.program);
  a.spawn_main_thread();
  chkpt::Checkpoint ckpt;
  a.set_checkpoint_handler(
      [&](sim::Simulation& s) { ckpt = chkpt::Checkpoint::capture(s); });
  ASSERT_EQ(a.run(2'000'000'000ull).reason, sim::ExitReason::AllThreadsExited);

  sim::SimConfig other = cfg;
  other.mem.phys_bytes = 2 * 1024 * 1024;  // different geometry
  sim::Simulation b(other, app.program);
  b.spawn_main_thread();
  EXPECT_THROW(chkpt::CheckpointImage::parse(ckpt).restore_into(b), util::DeserializeError);
}

TEST(CheckpointMismatch, RestoreIntoDifferentCpuModelStillWorks) {
  // The checkpoint records the active CPU kind; restoring into a simulation
  // constructed with another kind re-instantiates the captured one.
  const apps::App app = apps::build_app("pi");
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation a(cfg, app.program);
  a.spawn_main_thread();
  chkpt::Checkpoint ckpt;
  a.set_checkpoint_handler(
      [&](sim::Simulation& s) { ckpt = chkpt::Checkpoint::capture(s); });
  ASSERT_EQ(a.run(2'000'000'000ull).reason, sim::ExitReason::AllThreadsExited);

  sim::SimConfig cfg2;
  cfg2.cpu = sim::CpuKind::Pipelined;
  sim::Simulation b(cfg2, app.program);
  b.spawn_main_thread();
  chkpt::CheckpointImage::parse(ckpt).restore_into(b);
  EXPECT_EQ(b.active_cpu_kind(), sim::CpuKind::AtomicSimple);
  const auto rr = b.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(b.output(0), app.golden_output);
}

TEST(AssemblerLimits, BranchDisplacementOverflowIsLinkError) {
  Assembler as;
  const Label entry = as.here("main");
  const Label far = as.make_label("far");
  as.br(far);
  // 2^20 + slack instructions of padding puts the target out of the 21-bit
  // signed displacement range.
  for (int i = 0; i < (1 << 20) + 16; ++i) as.emit(isa::encode_operate(
      isa::Opcode::INTA, 0x20, 31, 31, 31));
  as.bind(far);
  as.exit_();
  EXPECT_THROW((void)as.finalize(entry), std::runtime_error);
}

TEST(PaperScale, AppsBuildAndValidateAtPaperInputs) {
  // Golden-equivalence at paper-scale inputs for the cheaper kernels
  // (the full six at paper scale run in the --full benches).
  apps::AppScale scale;
  scale.paper = true;
  for (const auto& name : {"dct", "deblock", "knapsack"}) {
    const apps::App app = apps::build_app(name, scale);
    sim::SimConfig cfg;
    cfg.cpu = sim::CpuKind::AtomicSimple;
    sim::Simulation s(cfg, app.program);
    s.spawn_main_thread();
    const auto rr = s.run(4'000'000'000ull);
    ASSERT_EQ(rr.reason, sim::ExitReason::AllThreadsExited) << name;
    EXPECT_EQ(s.output(0), app.golden_output) << name;
    double metric = 0.0;
    EXPECT_TRUE(app.acceptable(app.golden_output, metric)) << name;
  }
}

TEST(InjectionLog, RecordsDisassemblyAndValues) {
  Assembler as;
  const Label entry = as.here("main");
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.li(reg::t1, 3);
  as.addq(reg::t1, reg::t1, reg::t0);
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.mov_i(0, reg::a0);
  as.exit_();

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, as.finalize(entry));
  s.spawn_main_thread();
  s.fault_manager().load_faults({fi::parse_fault(
      "ExecutionStageInjectedFault Inst:2 Flip:4 Threadid:0 system.cpu0 occ:1")});
  (void)s.run(1'000'000);
  ASSERT_EQ(s.fault_manager().injection_log().size(), 1u);
  const std::string& line = s.fault_manager().injection_log()[0];
  // Post-mortem record: stage, affected assembly, before/after values.
  EXPECT_NE(line.find("ExecutionStageInjectedFault"), std::string::npos) << line;
  EXPECT_NE(line.find("addq t1, t1, t0"), std::string::npos) << line;
  EXPECT_NE(line.find("0x6 -> 0x16"), std::string::npos) << line;
  const auto& st = s.fault_manager().states()[0];
  EXPECT_EQ(st.original_value, 6u);
  EXPECT_EQ(st.corrupted_value, 0x16u);
}

TEST(Watchdog, FaultInducedLivelockIsCaughtAsCrash) {
  // Corrupt the loop counter of a countdown so it never reaches zero
  // (bne keeps spinning); the campaign watchdog must classify it crashed.
  Assembler as;
  const Label entry = as.here("main");
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.li(reg::s0, 10);
  const Label loop = as.here("loop");
  as.subq_i(reg::s0, 1, reg::s0);
  as.bne(reg::s0, loop);
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.mov_i(0, reg::a0);
  as.exit_();

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, as.finalize(entry));
  s.spawn_main_thread();
  // Set a high bit in the counter: it stays nonzero for ~2^62 iterations.
  s.fault_manager().load_faults({fi::parse_fault(
      "RegisterInjectedFault Inst:3 Flip:62 Threadid:0 system.cpu0 occ:1 int 9")});
  const auto rr = s.run(100'000);
  EXPECT_EQ(rr.reason, sim::ExitReason::Watchdog);
}

TEST(Outputs, MultiFaultFileInjectsAll) {
  Assembler as;
  const Label entry = as.here("main");
  as.li(reg::s0, 0);
  as.li(reg::s1, 0);
  as.mov_i(0, reg::a0);
  as.fi_activate();
  for (int i = 0; i < 30; ++i) as.addq_i(reg::t0, 1, reg::t0);
  as.mov(reg::s0, reg::a0);
  as.print_int();
  as.print_str(" ");
  as.mov(reg::s1, reg::a0);
  as.print_int();
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.mov_i(0, reg::a0);
  as.exit_();

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, as.finalize(entry));
  s.spawn_main_thread();
  s.fault_manager().load_faults(fi::parse_fault_file(
      "# two faults in one experiment (multi-bit upset)\n"
      "RegisterInjectedFault Inst:2 Flip:0 Threadid:0 system.cpu0 occ:1 int 9\n"
      "RegisterInjectedFault Inst:4 Flip:1 Threadid:0 system.cpu0 occ:1 int 10\n"));
  const auto rr = s.run(1'000'000);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), "1 2");
}

TEST(Outputs, PrintsAreCapturedOutsideFiWindowToo) {
  Assembler as;
  const Label entry = as.here("main");
  as.print_str("pre ");
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.print_str("mid ");
  as.mov_i(0, reg::a0);
  as.fi_activate();
  as.print_str("post");
  as.mov_i(0, reg::a0);
  as.exit_();
  sim::SimConfig cfg;
  sim::Simulation s(cfg, as.finalize(entry));
  s.spawn_main_thread();
  (void)s.run(1'000'000);
  EXPECT_EQ(s.output(0), "pre mid post");
}

}  // namespace
