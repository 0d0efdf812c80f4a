// Round-robin preemptive scheduler for the lightweight in-simulator kernel.
//
// One CPU, many threads. Preemption happens at commit boundaries after a
// fixed instruction quantum (a stand-in for the timer interrupt of the
// paper's full-system Linux); the simulation drains the pipeline and calls
// switch_to(), which swaps architectural contexts and reports the PCB
// transition so the fault-injection layer can re-bind its per-thread state —
// the mechanism Sec. III-C of the paper describes.
#pragma once

#include <cstdint>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "os/thread.hpp"

namespace gemfi::os {

struct ContextSwitchEvent {
  std::uint64_t old_pcb = 0;  // 0 when nothing was running
  std::uint64_t new_pcb = 0;
  std::uint64_t new_tid = 0;
};

class Scheduler {
 public:
  explicit Scheduler(std::uint64_t quantum_insts = 50000) : quantum_(quantum_insts) {}

  /// Create a thread with the given initial context. Returns its tid.
  std::uint64_t add_thread(const cpu::ArchState& initial_ctx);

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_.size(); }
  [[nodiscard]] Thread& thread(std::uint64_t tid) { return threads_.at(tid); }
  [[nodiscard]] const Thread& thread(std::uint64_t tid) const { return threads_.at(tid); }

  /// True when a thread is actively scheduled on the CPU. A thread that
  /// parked itself (deschedule_current) keeps current_ as the round-robin
  /// anchor but is no longer "on" the CPU.
  [[nodiscard]] bool has_current() const noexcept { return current_ >= 0 && !parked_; }
  [[nodiscard]] Thread& current() { return threads_.at(std::size_t(current_)); }
  [[nodiscard]] const Thread& current() const { return threads_.at(std::size_t(current_)); }

  [[nodiscard]] bool all_finished() const noexcept;
  [[nodiscard]] std::size_t runnable_count() const noexcept;

  /// Account one committed instruction of the running thread; true when the
  /// quantum is exhausted (time to preempt) and another thread is runnable.
  bool on_commit();

  /// Account `n` committed instructions at once — the batched fast-path
  /// equivalent of n on_commit() calls, returning the last call's verdict.
  /// Exact as long as callers cap batches at commits_before_preempt().
  bool on_commits(std::uint64_t n);

  /// How many more commits the running thread can make before on_commit()
  /// would signal preemption; ~0 when it never will (no other runnable
  /// thread). Used to size fast-path batches so preemption still lands on
  /// exactly the same instruction as the one-commit-per-tick loop.
  [[nodiscard]] std::uint64_t commits_before_preempt() const noexcept {
    if (current_ < 0 || runnable_count() <= 1) return ~0ull;
    return quantum_used_ >= quantum_ ? 1 : quantum_ - quantum_used_;
  }

  /// Ticks until the scheduler itself needs the per-tick loop to run —
  /// the scheduler's half of the simulation's "next outside event" bound on
  /// trace batches, stall warps and idle jumps. Preemption is commit-indexed
  /// (the quantum counts committed instructions and
  /// commits_before_preempt() already bounds commit batches), so the only
  /// tick-based event is a sleeper's wake: distance from `now` to the
  /// earliest wake_tick, ~0 when nobody sleeps.
  [[nodiscard]] std::uint64_t ticks_before_tick_event(std::uint64_t now) const noexcept {
    if (sleepers_ == 0) return ~0ull;
    const std::uint64_t wake = next_wake_tick();
    return wake > now ? wake - now : 0;
  }

  /// Force the current quantum to end (YIELD pseudo-op).
  void yield() noexcept { quantum_used_ = quantum_; }

  /// Mark the running thread finished (EXIT pseudo-op / trap).
  void finish_current(int exit_code);

  // --- sleeping (latency-delayed syscalls) ---
  /// Park the running thread until `wake_tick`; it stops being runnable and
  /// the simulation must context-switch away (or idle-advance the clock).
  void sleep_current(std::uint64_t wake_tick);
  [[nodiscard]] bool has_sleepers() const noexcept { return sleepers_ != 0; }
  /// Earliest wake among sleepers; ~0 when none sleep.
  [[nodiscard]] std::uint64_t next_wake_tick() const noexcept;
  /// Wake every sleeper with wake_tick <= now, appending their tids (in tid
  /// order — replay determinism) to `woken`.
  void wake_sleepers(std::uint64_t now, std::vector<std::uint64_t>& woken);

  /// Take the (just-slept) current thread off the CPU, saving its context
  /// now so a wakeup can deposit a syscall result into it before the next
  /// switch. current_ stays put as the round-robin anchor; has_current()
  /// reports false until switch_to_next() schedules somebody.
  void deschedule_current(cpu::CpuModel& cpu);

  /// Take a just-finished current thread off the CPU when nobody is
  /// runnable, so the run loop can idle-advance the clock to the next wake
  /// instead of switching (switch_to_next() would have no thread to pick —
  /// the exit-while-everyone-sleeps case). current_ stays put as the
  /// round-robin anchor; has_current() reports false.
  void retire_current();

  /// Swap out the current thread (saving `cpu.arch()`), pick the next
  /// runnable one round-robin, load its context into the CPU and redirect
  /// fetch. Returns the PCB transition. Requires cpu.quiesced().
  ContextSwitchEvent switch_to_next(cpu::CpuModel& cpu);

  void serialize(util::ByteWriter& w) const;
  void deserialize(util::ByteReader& r);

 private:
  std::vector<Thread> threads_;
  std::int64_t current_ = -1;
  std::uint64_t quantum_;
  std::uint64_t quantum_used_ = 0;
  std::size_t sleepers_ = 0;
  bool parked_ = false;  // current_ thread descheduled (context already saved)
};

}  // namespace gemfi::os
