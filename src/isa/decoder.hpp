// Instruction decoder: raw 32-bit word -> Decoded record.
//
// The decoder is the single source of truth for (a) which encodings are
// architecturally valid (anything else traps as an illegal instruction —
// the paper observes exactly this for fetch-stage faults that land on
// unimplemented opcode/function values) and (b) which register fields an
// instruction reads and writes, which the decode-stage fault injector
// corrupts and the propagation tracker consumes.
#pragma once

#include <cstdint>

#include "isa/encoding.hpp"
#include "isa/opcodes.hpp"

namespace gemfi::isa {

/// Coarse behavioral class of a decoded instruction.
enum class InstClass : std::uint8_t {
  IntOp,     // integer operate (INTA/INTL/INTS/INTM)
  FpOp,      // FP operate (FLTI/FLTL), incl. compares and converts
  FpMove,    // ITOF/FTOI register-file transfers
  Load,      // integer loads (LDL/LDQ)
  Store,     // integer stores (STL/STQ)
  FpLoad,    // LDS/LDT
  FpStore,   // STS/STT
  Lda,       // LDA/LDAH address arithmetic (memory format, no access)
  CondBranch,// BEQ/BNE/... and FP branches
  Br,        // unconditional BR/BSR
  Jump,      // memory-format JMP/JSR/RET
  Pal,       // CALL_PAL
  Pseudo,    // GemFI/m5 pseudo ops
  Illegal,
};

struct Decoded {
  Word raw = 0;
  Opcode opcode{};
  Format format = Format::Unknown;
  InstClass klass = InstClass::Illegal;
  std::uint8_t ra = 31, rb = 31, rc = 31;
  bool is_literal = false;
  std::uint8_t literal = 0;
  std::int32_t disp = 0;       // memory (bytes) or branch (instructions)
  std::uint16_t func = 0;      // 7-bit integer / 11-bit FP function code
  std::uint32_t palcode = 0;   // 26-bit PAL / pseudo number
  bool valid = false;          // false => illegal-instruction trap

  // --- register usage, from the decoded fields ---
  // Indices refer to the integer file unless the *_fp flag is set; index 32
  // means "none". R31/F31 still count as "none" for dependency purposes.
  std::uint8_t src1 = 32, src2 = 32, dst = 32;
  bool src1_fp = false, src2_fp = false, dst_fp = false;

  [[nodiscard]] bool is_mem_access() const noexcept {
    return klass == InstClass::Load || klass == InstClass::Store ||
           klass == InstClass::FpLoad || klass == InstClass::FpStore;
  }
  [[nodiscard]] bool is_store() const noexcept {
    return klass == InstClass::Store || klass == InstClass::FpStore;
  }
  [[nodiscard]] bool is_load() const noexcept {
    return klass == InstClass::Load || klass == InstClass::FpLoad;
  }
  [[nodiscard]] bool is_control() const noexcept {
    return klass == InstClass::CondBranch || klass == InstClass::Br ||
           klass == InstClass::Jump;
  }
  /// Byte width of the memory access (4 or 8); 0 for non-memory instructions.
  [[nodiscard]] unsigned mem_bytes() const noexcept;

  /// What a fault hook could observe this instruction touch: bit r for
  /// integer register r and bit 32 + r for FP register r named as a source
  /// or the destination ("none" sets nothing), plus kWatchMemAccess for a
  /// load or store.
  [[nodiscard]] std::uint64_t watch_mask() const noexcept;
};

/// The watch_mask() bit of loads and stores. Bit 31 is otherwise unused:
/// integer register 31 is the zero register, which decodes as "none".
inline constexpr std::uint64_t kWatchMemAccess = 1ull << 31;

inline std::uint64_t Decoded::watch_mask() const noexcept {
  const auto bit = [](std::uint8_t r, bool fp) noexcept -> std::uint64_t {
    return r < 32 ? 1ull << (r + (fp ? 32 : 0)) : 0;
  };
  return bit(src1, src1_fp) | bit(src2, src2_fp) | bit(dst, dst_fp) |
         (is_mem_access() ? kWatchMemAccess : 0);
}

/// Decode one instruction word. Never throws; inspect `.valid`.
Decoded decode(Word w) noexcept;

}  // namespace gemfi::isa
