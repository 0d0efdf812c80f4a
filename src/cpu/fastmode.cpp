// Golden-path fast mode: the superblock (threaded-code) execution tier.
//
// run_trace_batch() drives the atomic model through lowered straight-line
// traces from the MemSystem's superblock cache. Per instruction it pays one
// switch dispatch over a flat SbOp — no predecode lookup, no Operands /
// ExecOut materialization, no accessor indirection — while staying
// bit-identical to the per-tick interpreter in every architectural observable:
// each op is one tick and one commit, a trapping op consumes its tick
// without committing and leaves the PC at the trapping instruction, and
// memory accesses flow through the same checked MemSystem calls.
//
// ALU semantics are alu::* from exec_units.hpp — the same definitions the
// interpreter executes — invoked with compile-time function codes so the
// per-kind switch folds down to the bare operation.
//
// Exits:
//   * trap            -> stop event via make_stop_event (shared boundary)
//   * pseudo/PAL      -> never lowered; the interpreter fallback step stops
//   * budget          -> PC parked at the first unexecuted op
//   * watch set       -> PC parked at the first op touching `watch`; the
//                        interpreter retires it with hooks
//   * store into a    -> side exit after the store commits (the trace just
//     guard page         invalidated itself; the outer loop rebuilds)
//   * taken branch    -> loop back to the entry without re-lookup, or
//                        re-dispatch at the target
#include <bit>

#include "cpu/atomic_cpu.hpp"
#include "cpu/exec_units.hpp"
#include "isa/superblock_cache.hpp"

namespace gemfi::cpu {

BatchResult SimpleCpu::run_trace_batch(std::uint64_t max_ticks, CommitEvent& ev,
                                       std::uint64_t watch) {
  using isa::SbKind;
  using isa::SbOp;
  namespace A = alu;

  BatchResult br;
  if (timing_ || !fetch_enabled_ || busy_ != 0 || pending_) return br;

  std::uint64_t* const R = arch_.iregs_raw();
  std::uint64_t* const F = arch_.fregs_raw();
  const auto ib = [&](const SbOp& op) noexcept -> std::uint64_t {
    return (op.flags & isa::kSbLitB) != 0 ? op.lit : R[op.b];
  };
  const auto wri = [&](std::uint8_t dst, std::uint64_t v) noexcept {
    if (dst != 31) R[dst] = v;  // slot 31 is the pinned zero register
  };
  const auto wrf = [&](std::uint8_t dst, std::uint64_t v) noexcept {
    if (dst != 31) F[dst] = v;
  };
  while (br.ticks < max_ticks && !br.stopped) {
    const std::uint64_t entry = arch_.pc();
    const isa::Superblock* sb = ms_.superblock(entry);
    if (sb == nullptr || sb->ops.empty()) {
      // Entry not traceable (pseudo-op, PAL, illegal word, bad PC, tier
      // disabled): one interpreter step through the shared batch-step path,
      // which owns the exact trap/pseudo stop semantics.
      if (!atomic_batch_step(br, ev, watch)) break;
      continue;
    }

    const SbOp* const ops = sb->ops.data();
    const std::size_t nops = sb->ops.size();
    // Ops from `end` on are out of reach: op `end` touches the watch set.
    std::size_t end = nops;
    if ((sb->watch_union & watch) != 0) {
      end = 0;
      while ((sb->watch_masks[end] & watch) == 0) ++end;
    }
    const std::uint64_t commits_in = br.commits;
    std::uint64_t pc = entry;
    std::size_t i = 0;
    bool leave = false;  // side exit: stop this trace but keep batching
    while (!leave && i < end && br.ticks < max_ticks) {
      const SbOp& op = ops[i];
      ++br.ticks;
      std::uint64_t next = pc + 4;
      bool term = false;
      TrapInfo trap;
      switch (op.kind) {
        // --- integer arithmetic ---
        case SbKind::AddL:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::ADDL), R[op.a], ib(op)));
          break;
        case SbKind::SubL:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::SUBL), R[op.a], ib(op)));
          break;
        case SbKind::AddQ:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::ADDQ), R[op.a], ib(op)));
          break;
        case SbKind::SubQ:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::SUBQ), R[op.a], ib(op)));
          break;
        case SbKind::S4AddQ:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::S4ADDQ), R[op.a], ib(op)));
          break;
        case SbKind::S8AddQ:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::S8ADDQ), R[op.a], ib(op)));
          break;
        case SbKind::CmpEq:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::CMPEQ), R[op.a], ib(op)));
          break;
        case SbKind::CmpLt:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::CMPLT), R[op.a], ib(op)));
          break;
        case SbKind::CmpLe:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::CMPLE), R[op.a], ib(op)));
          break;
        case SbKind::CmpULt:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::CMPULT), R[op.a], ib(op)));
          break;
        case SbKind::CmpULe:
          wri(op.dst, A::exec_inta(unsigned(isa::IntaFunc::CMPULE), R[op.a], ib(op)));
          break;

        // --- logical / conditional moves ---
        case SbKind::And:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::AND), R[op.a], ib(op), 0));
          break;
        case SbKind::Bic:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::BIC), R[op.a], ib(op), 0));
          break;
        case SbKind::Bis:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::BIS), R[op.a], ib(op), 0));
          break;
        case SbKind::OrNot:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::ORNOT), R[op.a], ib(op), 0));
          break;
        case SbKind::Xor:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::XOR), R[op.a], ib(op), 0));
          break;
        case SbKind::Eqv:
          wri(op.dst, A::exec_intl(unsigned(isa::IntlFunc::EQV), R[op.a], ib(op), 0));
          break;
        case SbKind::CmovEq:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVEQ), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovNe:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVNE), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovLt:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVLT), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovGe:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVGE), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovLe:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVLE), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovGt:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVGT), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovLbs:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVLBS), R[op.a], ib(op), R[op.dst]));
          break;
        case SbKind::CmovLbc:
          wri(op.dst,
              A::exec_intl(unsigned(isa::IntlFunc::CMOVLBC), R[op.a], ib(op), R[op.dst]));
          break;

        // --- shifts ---
        case SbKind::Sll:
          wri(op.dst, A::exec_ints(unsigned(isa::IntsFunc::SLL), R[op.a], ib(op)));
          break;
        case SbKind::Srl:
          wri(op.dst, A::exec_ints(unsigned(isa::IntsFunc::SRL), R[op.a], ib(op)));
          break;
        case SbKind::Sra:
          wri(op.dst, A::exec_ints(unsigned(isa::IntsFunc::SRA), R[op.a], ib(op)));
          break;

        // --- multiply / divide ---
        case SbKind::MulL:
          wri(op.dst, A::exec_intm(unsigned(isa::IntmFunc::MULL), R[op.a], ib(op), trap));
          break;
        case SbKind::MulQ:
          wri(op.dst, A::exec_intm(unsigned(isa::IntmFunc::MULQ), R[op.a], ib(op), trap));
          break;
        case SbKind::UMulH:
          wri(op.dst, A::exec_intm(unsigned(isa::IntmFunc::UMULH), R[op.a], ib(op), trap));
          break;
        case SbKind::DivQ: {
          const std::uint64_t v =
              A::exec_intm(unsigned(isa::IntmFunc::DIVQ), R[op.a], ib(op), trap);
          if (!trap.pending()) wri(op.dst, v);
          break;
        }
        case SbKind::RemQ: {
          const std::uint64_t v =
              A::exec_intm(unsigned(isa::IntmFunc::REMQ), R[op.a], ib(op), trap);
          if (!trap.pending()) wri(op.dst, v);
          break;
        }

        // --- FP operate ---
        case SbKind::AddT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::ADDT), F[op.a], F[op.b]));
          break;
        case SbKind::SubT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::SUBT), F[op.a], F[op.b]));
          break;
        case SbKind::MulT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::MULT), F[op.a], F[op.b]));
          break;
        case SbKind::DivT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::DIVT), F[op.a], F[op.b]));
          break;
        case SbKind::CmpTUn:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CMPTUN), F[op.a], F[op.b]));
          break;
        case SbKind::CmpTEq:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CMPTEQ), F[op.a], F[op.b]));
          break;
        case SbKind::CmpTLt:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CMPTLT), F[op.a], F[op.b]));
          break;
        case SbKind::CmpTLe:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CMPTLE), F[op.a], F[op.b]));
          break;
        case SbKind::SqrtT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::SQRTT), F[op.a], F[op.b]));
          break;
        case SbKind::CvtTQ:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CVTTQ), F[op.a], F[op.b]));
          break;
        case SbKind::CvtQT:
          wrf(op.dst, A::exec_flti(unsigned(isa::FltiFunc::CVTQT), F[op.a], F[op.b]));
          break;
        case SbKind::CpyS:
          wrf(op.dst,
              A::exec_fltl(unsigned(isa::FltlFunc::CPYS), F[op.a], F[op.b], F[op.dst]));
          break;
        case SbKind::CpySN:
          wrf(op.dst,
              A::exec_fltl(unsigned(isa::FltlFunc::CPYSN), F[op.a], F[op.b], F[op.dst]));
          break;
        case SbKind::FCmovEq:
          wrf(op.dst,
              A::exec_fltl(unsigned(isa::FltlFunc::FCMOVEQ), F[op.a], F[op.b], F[op.dst]));
          break;
        case SbKind::FCmovNe:
          wrf(op.dst,
              A::exec_fltl(unsigned(isa::FltlFunc::FCMOVNE), F[op.a], F[op.b], F[op.dst]));
          break;

        // --- register-file transfers ---
        case SbKind::Itof:
          wrf(op.dst, R[op.a]);
          break;
        case SbKind::Ftoi:
          wri(op.dst, F[op.a]);
          break;

        // --- address arithmetic ---
        case SbKind::Lda:
          wri(op.dst, R[op.a] + std::uint64_t(op.disp));
          break;

        // --- loads ---
        case SbKind::LdL: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          std::uint64_t raw = 0;
          if (const mem::AccessError e = ms_.read(addr, 4, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else
            wri(op.dst, A::sext32(raw));
          break;
        }
        case SbKind::LdQ: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          std::uint64_t raw = 0;
          if (const mem::AccessError e = ms_.read(addr, 8, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else
            wri(op.dst, raw);
          break;
        }
        case SbKind::LdS: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          std::uint64_t raw = 0;
          if (const mem::AccessError e = ms_.read(addr, 4, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else
            wrf(op.dst,
                A::as_bits(double(std::bit_cast<float>(std::uint32_t(raw)))));
          break;
        }
        case SbKind::LdT: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          std::uint64_t raw = 0;
          if (const mem::AccessError e = ms_.read(addr, 8, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else
            wrf(op.dst, raw);
          break;
        }

        // --- stores (a successful store into one of this trace's guard
        // pages just invalidated the trace: side-exit after committing) ---
        case SbKind::StL: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          const std::uint64_t raw = std::uint32_t(R[op.b]);
          if (const mem::AccessError e = ms_.write(addr, 4, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else if (sb->covers_page(addr >> mem::PhysMem::kPageShift))
            leave = true;
          break;
        }
        case SbKind::StQ: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          if (const mem::AccessError e = ms_.write(addr, 8, R[op.b]);
              e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else if (sb->covers_page(addr >> mem::PhysMem::kPageShift))
            leave = true;
          break;
        }
        case SbKind::StS: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          const std::uint64_t raw = std::bit_cast<std::uint32_t>(float(A::as_f64(F[op.b])));
          if (const mem::AccessError e = ms_.write(addr, 4, raw); e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else if (sb->covers_page(addr >> mem::PhysMem::kPageShift))
            leave = true;
          break;
        }
        case SbKind::StT: {
          const std::uint64_t addr = R[op.a] + std::uint64_t(op.disp);
          if (const mem::AccessError e = ms_.write(addr, 8, F[op.b]);
              e != mem::AccessError::None)
            trap = {TrapKind::MemFault, e, addr};
          else if (sb->covers_page(addr >> mem::PhysMem::kPageShift))
            leave = true;
          break;
        }

        // --- terminals ---
        case SbKind::CondBrI:
          if (A::branch_cond(isa::Opcode(op.func), R[op.a]))
            next = pc + std::uint64_t(op.disp);
          term = true;
          break;
        case SbKind::CondBrF:
          if (A::branch_cond(isa::Opcode(op.func), F[op.a]))
            next = pc + std::uint64_t(op.disp);
          term = true;
          break;
        case SbKind::Br:
          wri(op.dst, pc + 4);
          next = pc + std::uint64_t(op.disp);
          term = true;
          break;
        case SbKind::Jump:
          // Read the target before writing the link: dst may alias a.
          next = R[op.a] & ~3ull;
          wri(op.dst, pc + 4);
          term = true;
          break;
      }

      if (trap.pending()) {
        // The trapping op consumed its tick but did not commit; the PC stays
        // at the trapping instruction, exactly like the interpreter.
        make_stop_event(ev, nullptr, pc, trap, false);
        br.stopped = true;
        break;
      }
      ++br.commits;
      pc = next;
      if (term) {
        // Hot-loop fast path: a taken branch back to the entry re-enters
        // the trace without a cache lookup. Safe because any store into the
        // trace's own pages side-exits above and nothing else can mutate
        // code mid-batch (no hooks, single thread between boundaries).
        if (!leave && pc == entry && br.ticks < max_ticks) {
          i = 0;
          continue;
        }
        break;
      }
      ++i;
    }
    br.traced += br.commits - commits_in;
    arch_.set_pc(pc);
    if (i == end && end < nops) break;  // the interpreter takes op `end`
  }

  stats_.ticks += br.ticks;
  stats_.fetched += br.ticks;
  stats_.committed += br.commits;
  if (br.traced != 0) ms_.note_superblock_exec(br.traced);
  return br;
}

}  // namespace gemfi::cpu
