// Simulation: the full simulated system — memory hierarchy, one CPU (any of
// the three models, switchable mid-run), the lightweight kernel, and the
// GemFI fault-injection layer.
//
// The run loop implements the paper's methodology end to end:
//   * pseudo-instructions dispatch here (fi_activate_inst toggles FI for the
//     running thread keyed by its PCB; fi_read_init_all invokes the
//     checkpoint handler);
//   * context switches drain the pipeline, swap contexts and notify the
//     FaultManager of the PCB change;
//   * register/PC faults are applied at tick boundaries; a corrupted PC
//     flushes and redirects the pipeline;
//   * with switch_to_atomic_after_fault set, the simulation swaps the
//     detailed (pipelined) model for the atomic one once every transient
//     fault has committed or squashed — the campaign speed trick of
//     Sec. IV-B-1;
//   * any guest trap ends the run as a crash; a watchdog bounds runaway
//     (e.g. fault-induced infinite-loop) executions.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "assembler/program.hpp"
#include "cpu/atomic_cpu.hpp"
#include "cpu/pipelined_cpu.hpp"
#include "fi/fault_manager.hpp"
#include "fi/syscall_fault.hpp"
#include "os/scheduler.hpp"
#include "os/syscall.hpp"

namespace gemfi::sim {

enum class CpuKind : std::uint8_t { AtomicSimple, TimingSimple, Pipelined };

const char* cpu_kind_name(CpuKind k) noexcept;

struct SimConfig {
  CpuKind cpu = CpuKind::Pipelined;
  mem::MemSysConfig mem;
  cpu::PredictorConfig predictor;
  std::uint64_t quantum_insts = 50000;   // preemption quantum
  std::uint64_t stack_bytes = 256 * 1024;
  bool fi_enabled = true;                // false = "unmodified gem5" baseline
  bool switch_to_atomic_after_fault = false;
  // Engine tiers. Each is purely a host-side optimization, set only in
  // process: false selects the reference loop that the oracle tests
  // (lockstep, fastmode, predecode fuzz, campaign determinism) and the
  // in-process A/B benches compare against. No CLI, wire message or record
  // carries them.
  bool predecode = true;                 // page-granular predecoded-inst cache
  // Timing-model fast lane: inline MRU cache hits + the fetch line buffer,
  // and stall-cycle warping on both timing models. Simulated ticks,
  // outcomes and statistics are bit-identical either way (the lockstep
  // suite proves it); false is the per-tick reference.
  bool fastpath = true;
  // Fault-horizon fast mode: the superblock (threaded-code) tier above the
  // atomic interpreter. Under FI it runs up to the fault horizon — the
  // instruction before any armed fault could trigger — hands the firing
  // instructions to the per-tick interpreter and its hooks, and re-engages
  // as soon as the fault has fired; while a corrupted register awaits its
  // first read or overwrite, traces stop in front of any instruction naming
  // it. It disengages at every trap, syscall, watchdog deadline and
  // scheduling boundary. Digests, ticks, statistics and fi_log are
  // bit-identical either way (the fastmode lockstep suite proves it); false
  // runs every atomic instruction on the per-tick loop.
  bool fastmode = true;
  // OS syscall surface: sys_alloc heap carved above the apps' boot arena,
  // per-file capacity of the in-memory FS (ENOSPC bound) and per-channel
  // byte budget of the message channels (EAGAIN bound).
  std::uint64_t sys_heap_bytes = 256 * 1024;
  std::uint64_t sys_file_capacity = 16 * 1024;
  std::uint64_t sys_chan_capacity = 4096;
};

enum class ExitReason : std::uint8_t {
  AllThreadsExited,
  Crashed,
  Watchdog,
  TickLimit,  // run(max_ticks) budget exhausted without watchdog semantics
  Deadline,   // host wall-clock deadline expired (run()'s second argument)
};

const char* exit_reason_name(ExitReason r) noexcept;

struct RunResult {
  ExitReason reason = ExitReason::AllThreadsExited;
  cpu::TrapInfo trap;          // valid when reason == Crashed
  std::uint64_t crash_pc = 0;
  std::uint64_t ticks = 0;     // total simulated ticks so far
  std::uint64_t committed = 0; // total committed instructions so far

  [[nodiscard]] bool crashed() const noexcept { return reason == ExitReason::Crashed; }
};

/// Instructions the CPU retired per engine tier since construction or the
/// last checkpoint restore (a thread's final EXIT included, which the
/// scheduler's committed counts leave out).
struct TierInsts {
  std::uint64_t trace = 0;     // superblock traces (fast mode)
  std::uint64_t batch = 0;     // hook-free atomic interpreter steps inside a trace batch
  std::uint64_t tick = 0;      // per-tick simple-model interpreter (FI hooks)
  std::uint64_t detailed = 0;  // per-tick pipelined model
};

class Simulation {
 public:
  Simulation(SimConfig cfg, const assembler::Program& program);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Create a guest thread at `entry` with up to 6 integer arguments in
  /// a0..a5. Threads get disjoint stacks carved from the top of memory.
  std::uint64_t spawn_thread(std::uint64_t entry, std::initializer_list<std::uint64_t> args = {});

  /// Convenience: spawn a thread at the program's entry symbol.
  std::uint64_t spawn_main_thread(std::initializer_list<std::uint64_t> args = {});

  /// Run until all threads exit, a crash, or the tick budget is exhausted.
  /// `watchdog_ticks` == 0 means "no limit". `wall_deadline_seconds` > 0 adds
  /// a host wall-clock deadline on top of the tick watchdog (checked every
  /// few thousand ticks): a run that outlives it exits with
  /// ExitReason::Deadline — the backstop for experiments whose simulated-time
  /// watchdog is generous but whose host is wedged or the run livelocked.
  RunResult run(std::uint64_t watchdog_ticks = 0, double wall_deadline_seconds = 0.0);

  /// Invoked when a guest executes fi_read_init_all() (checkpoint request).
  using CheckpointHandler = std::function<void(Simulation&)>;
  void set_checkpoint_handler(CheckpointHandler handler) {
    checkpoint_handler_ = std::move(handler);
  }

  /// Invoked once per architectural commit with the commit event and the
  /// post-writeback architectural state. The observation point is identical
  /// across all three CPU models (squashed wrong-path work never reaches it),
  /// which is what the lockstep differential tests compare against.
  using CommitObserver = std::function<void(const cpu::CommitEvent&, const cpu::ArchState&)>;
  void set_commit_observer(CommitObserver obs) { commit_observer_ = std::move(obs); }

  // --- component access ---
  [[nodiscard]] fi::FaultManager& fault_manager() noexcept { return fm_; }
  [[nodiscard]] const fi::FaultManager& fault_manager() const noexcept { return fm_; }
  [[nodiscard]] os::SyscallLayer& syscalls() noexcept { return sys_; }
  [[nodiscard]] const os::SyscallLayer& syscalls() const noexcept { return sys_; }
  [[nodiscard]] fi::SyscallFaultInjector& syscall_injector() noexcept { return sysfi_; }
  [[nodiscard]] const fi::SyscallFaultInjector& syscall_injector() const noexcept {
    return sysfi_;
  }
  [[nodiscard]] os::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] const os::Scheduler& scheduler() const noexcept { return sched_; }
  [[nodiscard]] mem::MemSystem& memsys() noexcept { return ms_; }
  [[nodiscard]] const mem::MemSystem& memsys() const noexcept { return ms_; }
  [[nodiscard]] cpu::CpuModel& cpu() noexcept { return *cpu_; }
  [[nodiscard]] const cpu::CpuModel& cpu() const noexcept { return *cpu_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const assembler::Program& program() const noexcept { return program_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return tick_; }
  [[nodiscard]] CpuKind active_cpu_kind() const noexcept { return active_cpu_; }

  /// Output of thread `tid` (bytes emitted through the print pseudo-ops).
  [[nodiscard]] const std::string& output(std::uint64_t tid = 0) const {
    return sched_.thread(tid).output;
  }

  [[nodiscard]] const TierInsts& tier_insts() const noexcept { return tiers_; }

  /// Total committed instructions across all threads.
  [[nodiscard]] std::uint64_t total_committed() const noexcept;

  /// gem5-style statistics dump: simulation, CPU, branch-predictor, cache
  /// and per-thread counters. The paper's Sec. IV-A validation compares
  /// exactly this report between GemFI and the unmodified simulator ("the
  /// statistical results provided by the simulator ... were identical").
  [[nodiscard]] std::string stats_report() const;

  // --- checkpoint plumbing (used by chkpt::Checkpoint) ---
  /// Machine state *minus* the physical-memory image: CPU kind, cache/timing
  /// state, CPU, scheduler and simulation counters. The checkpoint stores
  /// this as its own CRC-guarded section beside the page-granular memory
  /// section; callers restore memory separately. Requires a quiesced
  /// pipeline; run() only invokes the checkpoint handler at such a boundary.
  void serialize_machine(util::ByteWriter& w) const;
  /// Restore machine state; throws util::DeserializeError on an unknown CPU
  /// kind. Fault-injection state is deliberately NOT part of a checkpoint:
  /// per the paper, a restore re-arms the FaultManager so one checkpoint can
  /// seed many differently-configured experiments.
  void deserialize_machine(util::ByteReader& r);

 private:
  /// How retire() left the running thread.
  enum class Retired { Ok, ThreadLeft, Crashed };
  /// The one retire boundary of every engine: account `commits` plain
  /// commits, then `ev` if non-null — a trap (Halt ends the thread, anything
  /// else the run), a pseudo-op or an ordinary commit — and start or finish
  /// the context-switch drain. ThreadLeft: the thread exited or parked and
  /// the loop must reschedule before anything else.
  Retired retire(std::uint64_t commits, const cpu::CommitEvent* ev, RunResult& result);
  void leave_finished_thread();
  void dispatch_pseudo(const cpu::CommitEvent& ev);
  void dispatch_syscall(os::Thread& t);
  void make_cpu(CpuKind kind);
  void ensure_thread_scheduled();
  void perform_context_switch();
  void service_wakeups();

  SimConfig cfg_;
  assembler::Program program_;
  mem::MemSystem ms_;
  std::unique_ptr<cpu::CpuModel> cpu_;
  CpuKind active_cpu_ = CpuKind::Pipelined;
  os::Scheduler sched_;
  fi::FaultManager fm_;
  os::SyscallLayer sys_;
  fi::SyscallFaultInjector sysfi_;
  CheckpointHandler checkpoint_handler_;
  CommitObserver commit_observer_;
  std::uint64_t tick_ = 0;
  std::uint64_t warped_ticks_ = 0;  // ticks advanced by stall warps (fast lane)
  std::uint64_t idle_ticks_ = 0;    // ticks skipped while every thread slept
  TierInsts tiers_;
  std::uint64_t next_stack_top_ = 0;
  bool drain_for_switch_ = false;
  bool mode_switch_done_ = false;
};

}  // namespace gemfi::sim
