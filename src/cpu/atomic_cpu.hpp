// AtomicSimpleCpu and TimingSimpleCpu: one instruction at a time through the
// full fetch/decode/execute/memory/writeback sequence.
//
// Atomic ignores memory timing (1 IPC); TimingSimple charges L1I/L1D/L2/DRAM
// latencies by idling for the appropriate number of ticks before committing —
// the same behavioral distinction gem5 draws between its AtomicSimple and
// TimingSimple models.
#pragma once

#include "cpu/cpu_model.hpp"

namespace gemfi::cpu {

/// Result of one SimpleCpu::run_trace_batch call.
struct BatchResult {
  std::uint64_t ticks = 0;    // instruction attempts (commits, +1 if trapped)
  std::uint64_t commits = 0;  // instructions that architecturally committed
  std::uint64_t traced = 0;   // of those, retired inside superblock traces
  bool stopped = false;       // the out-param event holds a trap or pseudo-op
};

class SimpleCpu final : public CpuModel {
 public:
  /// `timing` selects TimingSimple behavior (charge memory latencies).
  SimpleCpu(mem::MemSystem& ms, bool timing) : CpuModel(ms), timing_(timing) {}

  CycleResult cycle() override;

  /// Superblock (threaded-code) tier of the atomic model: execute up to
  /// `max_ticks` instructions through lowered straight-line traces served by
  /// the MemSystem's superblock cache, falling back to single interpreter
  /// steps (atomic_batch_step) for untraceable entries. Tick/commit/trap
  /// accounting is bit-identical to cycle() — each instruction is one tick,
  /// a trapping instruction consumes its tick without committing and leaves
  /// the architectural PC at the trapping instruction. Stops early at a trap
  /// or pseudo-op, describing it in `ev` (stopped == true).
  ///
  /// The tier itself never calls stage hooks: the caller (Simulation::run)
  /// bounds `max_ticks` by the fault manager's horizon and owns the bulk FI
  /// fetch-window accounting for the batch. `watch` is a
  /// Decoded::watch_mask() set (FaultManager::FastmodeBound::watch): the
  /// batch ends, unstopped, in front of the first instruction touching it,
  /// so the interpreter's hooks see that instruction. Only engages in atomic
  /// mode with fetch enabled; otherwise returns an empty result.
  BatchResult run_trace_batch(std::uint64_t max_ticks, CommitEvent& ev,
                              std::uint64_t watch);

  /// Timing mode spends busy_ ticks idling per instruction; all but the
  /// last (which surfaces the queued commit) are warpable.
  [[nodiscard]] std::uint64_t stall_cycles() const noexcept override {
    return timing_ && busy_ > 1 ? busy_ - 1 : 0;
  }
  void warp(std::uint64_t k) noexcept override {
    stats_.ticks += k;
    busy_ -= std::uint32_t(k);
  }

  void flush_and_redirect(std::uint64_t new_pc) override;
  void set_fetch_enabled(bool enabled) override { fetch_enabled_ = enabled; }
  [[nodiscard]] bool quiesced() const override { return busy_ == 0; }
  [[nodiscard]] const char* name() const noexcept override {
    return timing_ ? "timing-simple" : "atomic-simple";
  }

  void serialize(util::ByteWriter& w) const override;
  void deserialize(util::ByteReader& r) override;

 private:
  CommitEvent step_one();
  void exec_one(CommitEvent& ev);

  /// Batch-exit boundary: materialize the stop event the trace batch hands
  /// back to the simulation loop for its trap / pseudo-op handling.
  static void make_stop_event(CommitEvent& ev, const isa::Decoded* d, std::uint64_t pc,
                              const TrapInfo& trap, bool is_pseudo) noexcept;
  /// One hookless interpreter step inside a batch: counts the tick and the
  /// commit in `br`, and on a trap/pseudo-op fills `ev`, sets br.stopped and
  /// returns false. Also returns false, without executing or counting, when
  /// the instruction touches the Decoded::watch_mask() set `watch`.
  bool atomic_batch_step(BatchResult& br, CommitEvent& ev, std::uint64_t watch);

  bool timing_;
  bool fetch_enabled_ = true;
  std::uint32_t busy_ = 0;          // remaining stall ticks (timing mode)
  std::optional<CommitEvent> pending_;  // commit delayed until busy_ drains
};

}  // namespace gemfi::cpu
