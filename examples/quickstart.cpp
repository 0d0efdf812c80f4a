// Quickstart: the paper's Listing 1 + Listing 2 end to end.
//
// We assemble a tiny guest program with the GemFI intrinsics
// (fi_read_init_all / fi_activate_inst), describe one fault in the paper's
// input-file syntax, run it as one experiment from the fi_read_init_all()
// checkpoint, and show the fault-free vs faulty results, the outcome class
// and GemFI's injection log (the "information on the affected assembly
// instruction" used for post-mortem analysis).
//
//   $ ./quickstart
#include <cstdio>

#include "assembler/assembler.hpp"
#include "campaign/runner.hpp"

using namespace gemfi;
using namespace gemfi::assembler;

namespace {

// The analog of Listing 2's main(): init, fi_read_init_all(),
// fi_activate_inst(0), foo() (here: sum the first 100 integers),
// fi_activate_inst(0), print, exit.
Program make_program() {
  Assembler as;
  const Label entry = as.here("main");
  as.fi_read_init();        // void fi_read_init_all(void)
  as.mov_i(0, reg::a0);
  as.fi_activate();         // void fi_activate_inst(int id = 0)

  as.li(reg::s0, 0);        // sum
  as.li(reg::s1, 1);        // i
  const Label loop = as.here("loop");
  as.addq(reg::s0, reg::s1, reg::s0);
  as.addq_i(reg::s1, 1, reg::s1);
  as.cmple_i(reg::s1, 100, reg::t0);
  as.bne(reg::t0, loop);

  as.mov_i(0, reg::a0);
  as.fi_activate();         // toggle FI off

  as.print_str("sum=");
  as.print_int_r(reg::s0);
  as.print_str("\n");
  as.mov_i(0, reg::a0);
  as.exit_();
  return as.finalize(entry);
}

}  // namespace

int main() {
  apps::App app;
  app.name = "quickstart";
  app.program = make_program();
  app.golden_output = "sum=5050\n";  // 1 + 2 + ... + 100
  std::printf("guest program: %zu instructions, entry 0x%llx\n", app.program.code.size(),
              (unsigned long long)app.program.entry);

  // The fault-free run: it checks the guest against its golden output and
  // takes the checkpoint at fi_read_init_all() that every experiment
  // restores.
  const campaign::CampaignConfig cfg;  // pipelined model, checkpointed
  const campaign::CalibratedApp ca = campaign::calibrate(std::move(app), cfg);
  std::printf("fault-free run -> %s", ca.app.golden_output.c_str());

  // The paper's Listing 1, adapted: flip bit 21 of integer register s0 (R9)
  // when the thread fetches its 57th instruction after fi_activate_inst.
  const std::string fault_line =
      "RegisterInjectedFault Inst:57 Flip:21 Threadid:0 system.cpu0 occ:1 int 9";
  std::printf("\nfault config   -> %s\n", fault_line.c_str());

  campaign::ExperimentWorker ew(ca, nullptr, cfg);
  const campaign::ExperimentResult er = ew.run(fi::parse_fault(fault_line));
  const std::string& faulty = ew.simulation().output(0);
  if (er.exit_reason == sim::ExitReason::Crashed) {
    std::printf("faulty run     -> CRASH: %s at pc=0x%llx\n", cpu::trap_name(er.trap),
                (unsigned long long)er.crash_pc);
  } else {
    std::printf("faulty run     -> %s", faulty.c_str());
  }
  for (const auto& line : ew.simulation().fault_manager().injection_log())
    std::printf("injection log  -> %s\n", line.c_str());
  std::printf("outcome        -> %s\n", apps::outcome_name(er.classification.outcome));
  std::printf("\nthe flipped bit adds 2^21=2097152 to the running sum: %s\n",
              faulty == ca.app.golden_output ? "masked (fault landed on a dead value)"
                                             : "observed");
  return 0;
}
