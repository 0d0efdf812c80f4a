// The simulated machine's memory system: guest address-space policy +
// PhysMem functional storage + L1I/L1D/L2 timing hierarchy.
//
// Address-space layout (set up by the program loader):
//   [0, null_guard)            unmapped guard page  -> NullPage fault
//   [code_base, code_end)      code, read/execute   -> ReadOnly on store
//   [code_end, phys size)      data / heap / stack  -> read/write
//
// Timing: every instruction fetch probes L1I (then L2, then DRAM); every data
// access probes L1D likewise. Atomic CPUs ignore the returned latencies but
// still exercise the functional checks, matching gem5's atomic mode.
#pragma once

#include <cstdint>
#include <memory>

#include "isa/predecode_cache.hpp"
#include "isa/superblock_cache.hpp"
#include "mem/cache.hpp"
#include "mem/physmem.hpp"

namespace gemfi::mem {

struct MemSysConfig {
  std::uint64_t phys_bytes = 4ull * 1024 * 1024;
  std::uint64_t null_guard = 0x1000;
  CacheConfig l1i{.size_bytes = 16 * 1024, .line_bytes = 64, .ways = 2, .hit_latency = 1, .name = "l1i"};
  CacheConfig l1d{.size_bytes = 16 * 1024, .line_bytes = 64, .ways = 2, .hit_latency = 2, .name = "l1d"};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 64, .ways = 8, .hit_latency = 10, .name = "l2"};
  std::uint32_t dram_latency = 60;  // cycles
};

class MemSystem {
 public:
  explicit MemSystem(const MemSysConfig& cfg = {});

  PhysMem& phys() noexcept { return phys_; }
  const PhysMem& phys() const noexcept { return phys_; }
  const MemSysConfig& config() const noexcept { return cfg_; }

  /// Mark the executable image region (stores there fault as ReadOnly).
  void set_code_region(std::uint64_t base, std::uint64_t end) noexcept {
    code_base_ = base;
    code_end_ = end;
  }
  [[nodiscard]] std::uint64_t code_base() const noexcept { return code_base_; }
  [[nodiscard]] std::uint64_t code_end() const noexcept { return code_end_; }

  /// Address-space policy check shared by all access paths.
  [[nodiscard]] AccessError check(std::uint64_t addr, unsigned n, bool is_store) const noexcept;

  // --- Functional accesses (policy-checked) ---
  AccessError read(std::uint64_t addr, unsigned n, std::uint64_t& out) const noexcept;
  AccessError write(std::uint64_t addr, unsigned n, std::uint64_t value) noexcept;
  /// Instruction fetch (32-bit), checked against bounds and alignment only.
  AccessError fetch(std::uint64_t addr, std::uint32_t& word) const noexcept;

  // --- Timing (cycles) for the timing/pipelined CPU models ---
  /// Both are header-inline: the L1-hit cases resolve via the caches' MRU
  /// fast path, and fetch_latency additionally short-circuits sequential
  /// fetches within the current I-line through a one-entry line buffer
  /// (fetch_line_). Latencies and cache stats are identical to the layered
  /// miss path, which handles everything else out of line.
  std::uint32_t fetch_latency(std::uint64_t addr);
  std::uint32_t data_latency(std::uint64_t addr, bool is_write);
  /// Miss/disabled tail of fetch_latency (also re-arms the line buffer).
  std::uint32_t fetch_latency_fill(std::uint64_t addr, std::uint64_t line);
  /// L1D-miss tail of data_latency.
  std::uint32_t data_latency_miss(std::uint64_t addr, bool is_write);

  /// Gate for the timing fast lane's memory-side pieces (MRU hit paths in
  /// all three caches + the fetch line buffer). Off = `--no-fastpath`
  /// baseline; simulated timing and stats are identical either way.
  void set_fastpath_enabled(bool enabled) noexcept;

  // --- predecoded-instruction fast path ---
  /// Cached Decoded for the instruction word at `pc`, filling pc's page on
  /// demand. Returns nullptr when the fast path does not apply — predecode
  /// disabled, pc misaligned, in the null guard, or out of bounds — and the
  /// caller must fall back to fetch() + isa::decode() (which reproduces the
  /// precise AccessError). Entries reflect the word currently in memory:
  /// stores and checkpoint restores bump the backing page's version, so the
  /// next fetch refills. Fetch-stage fault corruption happens downstream of
  /// memory; CPU models bypass the entry when the hook changes the word.
  /// Defined inline below (the atomic fast dispatch loop calls this once
  /// per instruction).
  [[nodiscard]] const isa::Decoded* predecode(std::uint64_t pc) noexcept;
  /// Out-of-line page decode behind predecode()'s miss path.
  const isa::Decoded* predecode_fill(std::uint64_t pc, std::uint64_t page,
                                     std::uint64_t version);
  void set_predecode_enabled(bool enabled) noexcept { predecode_enabled_ = enabled; }
  [[nodiscard]] bool predecode_enabled() const noexcept { return predecode_enabled_; }
  [[nodiscard]] const isa::PredecodeStats& predecode_stats() const noexcept {
    return pdc_.stats();
  }
  /// Count a fetch that had to re-decode live because fault injection
  /// corrupted the word between memory and decode.
  void note_predecode_bypass() noexcept { pdc_.note_bypass(); }
  /// Drop all predecoded pages (checkpoint-restore hygiene; versions already
  /// guarantee staleness is never served).
  void invalidate_predecode() noexcept {
    pdc_.invalidate_all();
    sbc_.invalidate_all();
  }

  // --- superblock (threaded-code) tier ---
  /// Version-fresh lowered trace entered at `pc`, building (or rebuilding)
  /// it on demand from predecoded instructions. Returns nullptr when the
  /// tier does not apply at all (predecode disabled, pc misaligned, in the
  /// null guard, or out of bounds); returns a trace with empty ops — a
  /// cached negative entry — when pc's instruction itself cannot be lowered.
  /// Either way the caller falls back to the interpreter for that pc.
  [[nodiscard]] const isa::Superblock* superblock(std::uint64_t pc);
  void note_superblock_exec(std::uint64_t insts) noexcept { sbc_.note_exec(insts); }
  [[nodiscard]] const isa::SuperblockStats& superblock_stats() const noexcept {
    return sbc_.stats();
  }
  [[nodiscard]] std::size_t superblock_traces() const noexcept {
    return sbc_.cached_traces();
  }

  [[nodiscard]] const CacheStats& l1i_stats() const noexcept { return l1i_.stats(); }
  [[nodiscard]] const CacheStats& l1d_stats() const noexcept { return l1d_.stats(); }
  [[nodiscard]] const CacheStats& l2_stats() const noexcept { return l2_.stats(); }
  void reset_stats() noexcept;

  /// Timing + policy state only (caches and the code-region bounds), without
  /// the physical-memory image. The checkpoint serializes memory
  /// page-granular on its own and stores this beside it.
  void serialize_timing(util::ByteWriter& w) const;
  void deserialize_timing(util::ByteReader& r);

 private:
  MemSysConfig cfg_;
  PhysMem phys_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  isa::PredecodeCache pdc_;
  isa::SuperblockCache sbc_;
  bool predecode_enabled_ = true;
  bool fastpath_enabled_ = true;
  // One-entry fetch line buffer: the I-line (addr / l1i.line_bytes) of the
  // most recent fetch. While fetches stay in this line, the L1I lookup is a
  // single compare plus an MRU touch. ~0 = empty; invalidated on
  // deserialize_timing and while the fast path is disabled.
  std::uint64_t fetch_line_ = ~0ull;
  unsigned fetch_line_shift_ = 6;  // log2(l1i.line_bytes), set by the ctor
  std::uint64_t code_base_ = 0;
  std::uint64_t code_end_ = 0;
};

inline const isa::Decoded* MemSystem::predecode(std::uint64_t pc) noexcept {
  static_assert(isa::PredecodeCache::kPageShift == PhysMem::kPageShift,
                "predecode pages must match PhysMem's version granularity");
  if (!predecode_enabled_) return nullptr;
  // Bail to the slow path for anything fetch() would reject; the slow path
  // owns the exact AccessError the trap carries.
  if ((pc & 3) != 0 || pc < cfg_.null_guard || !phys_.in_bounds(pc, 4)) return nullptr;
  const std::uint64_t page = pc >> PhysMem::kPageShift;
  const std::uint64_t version = phys_.page_version(page);
  if (const isa::Decoded* d = pdc_.lookup(pc, version)) return d;
  return predecode_fill(pc, page, version);
}

inline std::uint32_t MemSystem::fetch_latency(std::uint64_t addr) {
  const std::uint64_t line = addr >> fetch_line_shift_;
  if (line == fetch_line_ && l1i_.touch_read(addr)) return cfg_.l1i.hit_latency;
  return fetch_latency_fill(addr, line);
}

inline std::uint32_t MemSystem::data_latency(std::uint64_t addr, bool is_write) {
  const auto l1 = l1d_.access(addr, is_write);
  if (l1.hit) return cfg_.l1d.hit_latency;
  return data_latency_miss(addr, is_write);
}

}  // namespace gemfi::mem
