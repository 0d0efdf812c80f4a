// FaultManager — the core of GemFI (paper Sec. III-C, Fig. 2).
//
// Implements the paper's machinery faithfully:
//   * threads that executed fi_activate_inst() are represented by
//     ThreadEnabledFault objects, held in a hash table keyed by the thread's
//     PCB address; the running core holds a direct pointer so the per-tick
//     fast path never touches the hash table;
//   * context switches (PCB changes) re-bind that pointer;
//   * faults parsed from the input file are distributed into per-stage
//     queues sorted by trigger time; every instruction served at a stage
//     scans only its queue;
//   * register-file and PC faults are applied directly to architectural
//     state at cycle boundaries;
//   * every injection is logged with the affected assembly instruction
//     (the paper's post-mortem correlation record);
//   * propagation is tracked so campaigns can classify "non propagated"
//     outcomes (corrupted register overwritten or never read; corrupted
//     instruction squashed; corruption that did not change the value).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "fi/fault.hpp"
#include "isa/disasm.hpp"

namespace gemfi::fi {

/// Per-thread fault-injection bookkeeping (paper's ThreadEnabledFault class).
struct ThreadEnabledFault {
  int user_id = 0;            // id passed to fi_activate_inst(id)
  std::uint64_t pcb = 0;
  std::uint64_t fetched = 0;  // instructions fetched since activation
  std::uint64_t activation_tick = 0;
};

/// Lifecycle of one configured fault during an experiment.
struct FaultState {
  Fault fault;
  std::uint64_t applied = 0;        // number of corruptions performed
  bool value_changed = false;       // at least one application altered bits
  bool consumed = false;            // corrupted value reached later computation
  bool overwritten = false;         // corrupted register rewritten before a read
  bool squashed = false;            // affected instruction was squashed
  std::uint64_t affected_seq = 0;   // fi_seq of the (last) affected instruction
  std::uint64_t last_marker = ~0ull;  // dedupe repeated application at one boundary
  std::uint64_t original_value = 0;   // value before the first application
  std::uint64_t corrupted_value = 0;  // value after the first application
  std::string affected_disasm;

  /// Did this fault manifest as an architecturally visible error?
  [[nodiscard]] bool propagated() const noexcept {
    return applied > 0 && value_changed && consumed && !squashed;
  }
};

class FaultManager final : public cpu::StageHooks {
 public:
  FaultManager() = default;

  /// Load a fault configuration (replaces any previous one, re-arming all
  /// bookkeeping). This is what happens at GemFI startup and again after
  /// every checkpoint restore.
  void load_faults(std::vector<Fault> faults);
  [[nodiscard]] const std::vector<Fault>& faults() const noexcept { return config_; }

  /// fi_read_init_all() semantics: drop all thread state and re-arm faults
  /// so the same checkpoint can seed many differently-configured runs.
  void reset_campaign_state();

  // --- kernel/simulation notifications ---
  /// fi_activate_inst(id) executed by the thread with this PCB: toggles FI.
  /// Returns true if FI is now active for the thread.
  bool on_fi_activate(std::uint64_t pcb, int user_id);
  /// The scheduler switched threads; re-bind the core pointer.
  void on_context_switch(std::uint64_t new_pcb);
  /// Which simulated core this manager instance serves ("system.cpuN" in
  /// the fault grammar). Faults naming another core never trigger here.
  void set_core_id(unsigned core) noexcept { core_id_ = core; }
  [[nodiscard]] unsigned core_id() const noexcept { return core_id_; }
  /// Advance the manager's notion of time (once per simulated tick).
  void set_now(std::uint64_t tick) noexcept { now_ = tick; }

  /// True when the configuration contains register-file/PC faults; lets the
  /// per-tick fast path skip apply_direct_faults entirely when there are
  /// none (the common case for stage-fault experiments and for the Fig. 7
  /// overhead runs, where no faults are loaded at all).
  [[nodiscard]] bool has_direct_faults() const noexcept { return !q_direct_.empty(); }

  /// Apply due register-file/PC faults to architectural state. Returns true
  /// if any application changed a value: the caller must then flush + redirect the
  /// pipeline so the fault lands at a precise inter-instruction boundary
  /// (otherwise an in-flight producer's writeback could overwrite the
  /// injected value before any instruction observes it).
  bool apply_direct_faults(cpu::ArchState& st);

  /// Stall-warp event horizon: the earliest tick >= `from` at which
  /// apply_direct_faults could perform an application, assuming no
  /// instruction fetches (and hence no fetched-index advance, activation or
  /// context switch) happen before then — exactly the invariant inside a
  /// pure-stall window. ~0 when nothing can fire. Sticky tick-relative
  /// behaviors (Imm/AllZero/AllOne/StuckAt0/StuckAt1) re-apply every tick
  /// once due, so they pin the horizon to their due tick; self-inverting
  /// behaviors (Flip/Xor/Burst/RandK) and instruction-relative faults
  /// already applied at the current fetch index impose no bound. Duty
  /// cycling is phased off the fetch counter, which is frozen during a
  /// stall, so an inactive phase imposes no bound either.
  [[nodiscard]] std::uint64_t next_direct_fault_tick(std::uint64_t from) const noexcept;

  // --- cpu::StageHooks ---
  FetchResult on_fetch(std::uint64_t pc, std::uint32_t word) override;
  void on_decode(isa::Decoded& d, std::uint64_t pc, std::uint64_t fi_seq) override;
  void on_execute(cpu::ExecOut& out, const isa::Decoded& d, std::uint64_t pc,
                  std::uint64_t fi_seq) override;
  std::uint64_t on_load(std::uint64_t addr, std::uint64_t raw, unsigned bytes,
                        std::uint64_t fi_seq) override;
  std::uint64_t on_store(std::uint64_t addr, std::uint64_t raw, unsigned bytes,
                         std::uint64_t fi_seq) override;
  void on_commit(const isa::Decoded& d, std::uint64_t pc, std::uint64_t fi_seq) override;
  void on_squash(std::uint64_t fi_seq) override;

  // --- status / reporting ---
  [[nodiscard]] bool fi_active() const noexcept { return cur_ != nullptr; }
  [[nodiscard]] const ThreadEnabledFault* current_thread() const noexcept { return cur_; }
  [[nodiscard]] std::size_t enabled_thread_count() const noexcept { return threads_.size(); }
  [[nodiscard]] const std::vector<FaultState>& states() const noexcept { return states_; }
  [[nodiscard]] const std::vector<std::string>& injection_log() const noexcept { return log_; }

  /// Fetched-instruction count of the most recently deactivated thread —
  /// i.e. the length of the FI-active region in a fault-free calibration run
  /// (used to sample fault times uniformly over the kernel).
  [[nodiscard]] std::uint64_t last_deactivated_fetched() const noexcept {
    return last_deactivated_fetched_;
  }

  [[nodiscard]] bool any_applied() const noexcept;
  [[nodiscard]] bool any_propagated() const noexcept;
  /// All faults done their damage (transient faults committed or squashed):
  /// the simulation may switch from the detailed to the atomic CPU model.
  [[nodiscard]] bool safe_to_switch_cpu() const noexcept;

  /// Fault horizon: how far a hook-free batch starting after tick `now` may
  /// run before any hook could act — the bound of the superblock tier while
  /// FI is compiled in. Each instruction of an atomic batch is one fetch and
  /// one tick, so every trigger is exact in batch instructions:
  ///   * Inst:N stage and memory faults test the index the next fetch takes
  ///     (fetched + 1), register/PC faults the index before it (fetched);
  ///     the batch stops one instruction short of index N, and a finite
  ///     trigger window that has already passed imposes no bound;
  ///   * Tick:N faults of any location trigger on the first tick at or after
  ///     activation + N, so the batch stops on the tick before it.
  /// Once triggered, a live fault (occurrences left) pins `insts` at 0: the
  /// interpreter runs every instruction it might hit — the firing
  /// instruction of a transient fault, the whole active window of a
  /// duty-cycled, PC-windowed, intermittent or permanent one. A triggered
  /// load/store fault instead adds kWatchMemAccess to `watch`: it fires on
  /// the next memory transaction, and a batch stops in front of every one.
  /// Faults of another thread or core, and everything outside an FI window,
  /// impose no bound: activation and context switches are batch boundaries.
  /// After an application, commit-side propagation tracking must see the
  /// right commits: an applied stage fault whose instruction has neither
  /// committed nor squashed pins `insts` at 0, and the register of an
  /// applied register fault not yet read or overwritten joins `watch` (that
  /// tracking runs on every commit, in or out of an FI window). The caller
  /// still owns bulk fetch-window accounting (add_window_fetches) for any
  /// batch it runs under this bound.
  struct FastmodeBound {
    std::uint64_t insts = ~0ull;  // instructions before a trigger; 0: interpreter
    std::uint64_t watch = 0;      // isa::Decoded::watch_mask() bits to stop at
  };
  [[nodiscard]] FastmodeBound fastmode_horizon(std::uint64_t now) const noexcept;

  /// Bulk equivalent of the per-fetch `++cur_->fetched` bookkeeping for a
  /// hook-free batch of `n` fetches, keeping calibration's fetched-index
  /// sampling space exact. Faulting fetch attempts never reach on_fetch, so
  /// the caller must not count them here.
  void add_window_fetches(std::uint64_t n) noexcept {
    if (cur_ != nullptr) cur_->fetched += n;
  }

 private:
  ThreadEnabledFault* find_thread(std::uint64_t pcb) noexcept;
  bool stage_triggers(const FaultState& fs, std::uint64_t fi_seq) const noexcept;
  bool mem_triggers(const FaultState& fs, std::uint64_t fi_seq) const noexcept;
  void record(FaultState& fs, std::uint64_t fi_seq, std::uint64_t pc,
              const std::string& what, std::uint64_t before, std::uint64_t after);

  std::vector<Fault> config_;
  std::vector<FaultState> states_;
  // Queues of indices into states_, one per stage plus register/PC direct
  // faults, each sorted by trigger time (paper: "each queue corresponds to a
  // different pipeline stage ... entries are sorted by timing").
  std::vector<std::size_t> q_fetch_, q_decode_, q_execute_, q_mem_, q_direct_;
  std::unordered_map<std::uint64_t, std::unique_ptr<ThreadEnabledFault>> threads_;
  ThreadEnabledFault* cur_ = nullptr;  // the "core pointer" of the paper
  unsigned core_id_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t last_deactivated_fetched_ = 0;
  std::vector<std::string> log_;
};

}  // namespace gemfi::fi
