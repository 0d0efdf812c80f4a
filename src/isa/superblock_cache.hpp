// Superblock translation cache: the threaded-code tier above the interpreter.
//
// A superblock is a straight-line run of predecoded instructions starting at
// an entry PC and ending at the first control transfer (or at kMaxOps / an
// unlowerable instruction / the third code page). Each instruction is
// lowered once into a flat SbOp — opcode+function collapsed into a dense
// SbKind, register indices resolved, literals and displacements folded — so
// the fast executor (cpu/fastmode.cpp) dispatches one switch per op over raw
// register arrays instead of re-running the full read-operands / execute /
// writeback machinery of the interpreter.
//
// Coherence mirrors the predecode cache: every trace records (page, version)
// guards for the up-to-two code pages it was lowered from, stamped from
// PhysMem's per-page mutation counters. The owner (MemSystem) revalidates
// the guards on every lookup, so self-modifying code or a checkpoint restore
// can never execute a stale trace — there is no invalidation callback to
// forget. Traces are never serialized.
//
// Fault-injection contract: the tier carries no FI hooks at all. The caller
// (Simulation::run) bounds each batch by the fault manager's horizon — the
// number of instructions before any armed fault could trigger — and passes a
// watch set: registers whose corruption still awaits a read or an overwrite,
// and memory accesses while an armed load/store fault waits for its next
// transaction. The executor stops in front of any instruction touching the
// watch set, so the interpreter runs exactly the instructions a hook could
// observe. Lowered semantics are shared with the interpreter via
// cpu/exec_units.hpp, keeping one source of truth.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/decoder.hpp"

namespace gemfi::isa {

/// Dense flattened operation kinds. One switch case each in the executor;
/// opcode/function sub-dispatch is resolved at lowering time.
enum class SbKind : std::uint8_t {
  // integer arithmetic (INTA)
  AddL, SubL, AddQ, SubQ, S4AddQ, S8AddQ,
  CmpEq, CmpLt, CmpLe, CmpULt, CmpULe,
  // logical + conditional moves (INTL)
  And, Bic, Bis, OrNot, Xor, Eqv,
  CmovEq, CmovNe, CmovLt, CmovGe, CmovLe, CmovGt, CmovLbs, CmovLbc,
  // shifts (INTS)
  Sll, Srl, Sra,
  // multiply/divide (INTM); DivQ/RemQ can raise the arithmetic trap
  MulL, MulQ, UMulH, DivQ, RemQ,
  // FP operate (FLTI/FLTL), operands are raw double bits
  AddT, SubT, MulT, DivT, CmpTUn, CmpTEq, CmpTLt, CmpTLe, SqrtT, CvtTQ, CvtQT,
  CpyS, CpySN, FCmovEq, FCmovNe,
  // register-file transfers
  Itof,  // integer reg -> FP reg, pure bit copy
  Ftoi,  // FP reg -> integer reg, pure bit copy
  // address arithmetic (LDA/LDAH share one kind; disp is pre-shifted)
  Lda,
  // memory (disp pre-sign-extended to bytes)
  LdL, LdQ, LdS, LdT, StL, StQ, StS, StT,
  // terminals — always the last op of a trace
  CondBrI,  // integer conditional branch; func = raw Opcode for branch_cond
  CondBrF,  // FP conditional branch; a indexes the FP file
  Br,       // unconditional, optional link to dst
  Jump,     // indirect through a, optional link to dst
};

/// b-operand is the 8-bit literal in `lit` instead of a register.
inline constexpr std::uint8_t kSbLitB = 1;

/// One lowered instruction. Register indices are already mapped so that 31
/// is the zero register of the consuming file ("none" becomes 31); the
/// executor runs over raw 32-slot arrays whose slot 31 is pinned to zero.
struct SbOp {
  SbKind kind{};
  std::uint8_t a = 31;    // first source register
  std::uint8_t b = 31;    // second source register (unless kSbLitB)
  std::uint8_t dst = 31;  // destination (31 = discard)
  std::uint8_t lit = 0;   // literal value when kSbLitB is set
  std::uint8_t flags = 0;
  std::uint16_t func = 0;  // raw Opcode for CondBrI/CondBrF
  std::int64_t disp = 0;   // Lda/memory byte displacement, or the
                           // taken-branch offset (next = pc + disp)
};

/// How an instruction lowers.
enum class Lowered : std::uint8_t {
  No,        // not representable (pseudo/PAL/illegal): trace must stop before it
  Mid,       // straight-line op
  Terminal,  // control transfer: trace ends with it
};

/// Lower one decoded instruction into `op`. Pure; never throws.
Lowered lower_to_sbop(const Decoded& d, SbOp& op) noexcept;

struct SuperblockStats {
  std::uint64_t hits = 0;        // lookups served by a version-fresh trace
  std::uint64_t builds = 0;      // traces lowered (cold or rebuilt)
  std::uint64_t stale = 0;       // lookups that found an outdated trace
  std::uint64_t evictions = 0;   // traces dropped by capacity clears
  std::uint64_t exec_insts = 0;  // instructions retired through traces
};

/// A lowered trace plus its coherence guards.
struct Superblock {
  std::uint64_t entry_pc = 0;
  std::vector<SbOp> ops;  // empty => negative entry: entry not traceable
  // Decoded::watch_mask() of each op, and their union: the executor stops
  // in front of the first op touching a watched resource (run_trace_batch).
  std::vector<std::uint64_t> watch_masks;
  std::uint64_t watch_union = 0;
  std::uint64_t pages[2] = {0, 0};
  std::uint64_t versions[2] = {0, 0};
  unsigned npages = 0;

  [[nodiscard]] bool covers_page(std::uint64_t page) const noexcept {
    for (unsigned i = 0; i < npages; ++i)
      if (pages[i] == page) return true;
    return false;
  }
};

class SuperblockCache {
 public:
  /// Trace length cap. Also bounds how far a mid-trace side exit can be from
  /// the entry, keeping worst-case reconciliation cost flat.
  static constexpr std::size_t kMaxOps = 64;
  /// Capacity cap; crossing it clears the whole table (traces are cheap to
  /// rebuild and the working set of real guests is far below this).
  static constexpr std::size_t kMaxTraces = 4096;

  /// Cached trace for `entry_pc`, or nullptr. The caller owns version
  /// revalidation (it has the PhysMem) and counts hits/stale via note_*.
  [[nodiscard]] Superblock* find(std::uint64_t entry_pc) noexcept {
    auto it = traces_.find(entry_pc);
    return it == traces_.end() ? nullptr : &it->second;
  }

  /// Insert (or replace) the trace for sb.entry_pc; returns the stored copy.
  const Superblock& insert(Superblock&& sb);

  /// Drop every trace (checkpoint-restore hygiene; guards already guarantee
  /// staleness is never executed).
  void invalidate_all() noexcept;

  void note_hit() noexcept { ++stats_.hits; }
  void note_stale() noexcept { ++stats_.stale; }
  void note_exec(std::uint64_t insts) noexcept { stats_.exec_insts += insts; }
  /// Zero the counters (per-experiment stat windows); cached traces stay.
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] const SuperblockStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t cached_traces() const noexcept { return traces_.size(); }

 private:
  std::unordered_map<std::uint64_t, Superblock> traces_;
  SuperblockStats stats_;
};

}  // namespace gemfi::isa
