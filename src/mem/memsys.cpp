#include "mem/memsys.hpp"

#include <bit>

namespace gemfi::mem {

MemSystem::MemSystem(const MemSysConfig& cfg)
    : cfg_(cfg), phys_(cfg.phys_bytes), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2) {
  fetch_line_shift_ = unsigned(std::countr_zero(std::uint64_t(cfg.l1i.line_bytes)));
}

void MemSystem::set_fastpath_enabled(bool enabled) noexcept {
  fastpath_enabled_ = enabled;
  fetch_line_ = ~0ull;
  l1i_.set_mru_enabled(enabled);
  l1d_.set_mru_enabled(enabled);
  l2_.set_mru_enabled(enabled);
}

AccessError MemSystem::check(std::uint64_t addr, unsigned n, bool is_store) const noexcept {
  if (addr < cfg_.null_guard) return AccessError::NullPage;
  if (!phys_.in_bounds(addr, n)) return AccessError::OutOfBounds;
  if (n != 1 && (addr & (n - 1)) != 0) return AccessError::Misaligned;
  if (is_store && addr >= code_base_ && addr < code_end_) return AccessError::ReadOnly;
  return AccessError::None;
}

AccessError MemSystem::read(std::uint64_t addr, unsigned n, std::uint64_t& out) const noexcept {
  if (const AccessError e = check(addr, n, false); e != AccessError::None) return e;
  return phys_.load(addr, n, out);
}

AccessError MemSystem::write(std::uint64_t addr, unsigned n, std::uint64_t value) noexcept {
  if (const AccessError e = check(addr, n, true); e != AccessError::None) return e;
  return phys_.store(addr, n, value);
}

AccessError MemSystem::fetch(std::uint64_t addr, std::uint32_t& word) const noexcept {
  if (addr < cfg_.null_guard) return AccessError::NullPage;
  std::uint64_t v = 0;
  const AccessError e = phys_.load(addr, 4, v);
  if (e != AccessError::None) return e;
  word = std::uint32_t(v);
  return AccessError::None;
}

const isa::Decoded* MemSystem::predecode_fill(std::uint64_t pc, std::uint64_t page,
                                              std::uint64_t version) {
  return pdc_.fill(pc, version, phys_.page(page));
}

const isa::Superblock* MemSystem::superblock(std::uint64_t pc) {
  // Same gate as predecode(): anything fetch() would reject belongs to the
  // interpreter slow path, which owns the precise AccessError.
  if (!predecode_enabled_) return nullptr;
  if ((pc & 3) != 0 || pc < cfg_.null_guard || !phys_.in_bounds(pc, 4)) return nullptr;

  if (isa::Superblock* sb = sbc_.find(pc)) {
    bool fresh = true;
    for (unsigned i = 0; i < sb->npages; ++i)
      if (phys_.page_version(sb->pages[i]) != sb->versions[i]) {
        fresh = false;
        break;
      }
    if (fresh) {
      sbc_.note_hit();
      return sb;
    }
    sbc_.note_stale();  // fall through: rebuild replaces the stale entry
  }

  isa::Superblock nsb;
  nsb.entry_pc = pc;
  std::uint64_t p = pc;
  while (nsb.ops.size() < isa::SuperblockCache::kMaxOps) {
    if (!phys_.in_bounds(p, 4)) break;
    const std::uint64_t page = p >> PhysMem::kPageShift;
    if (!nsb.covers_page(page)) {
      if (nsb.npages == 2) break;  // traces span at most two guard pages
      // Stamp the guard before reading the page so a mutation racing the
      // build can only make the trace look stale, never fresh.
      nsb.pages[nsb.npages] = page;
      nsb.versions[nsb.npages] = phys_.page_version(page);
      ++nsb.npages;
    }
    const isa::Decoded* d = predecode(p);
    if (d == nullptr) break;
    isa::SbOp op;
    const isa::Lowered l = isa::lower_to_sbop(*d, op);
    if (l == isa::Lowered::No) break;
    nsb.ops.push_back(op);
    if (l == isa::Lowered::Terminal) break;
    p += 4;
  }
  // Empty ops => cached negative entry: the guard on pc's page keeps us from
  // re-walking an untraceable entry every dispatch, and any store into the
  // page invalidates the negative result along with everything else.
  return &sbc_.insert(std::move(nsb));
}

std::uint32_t MemSystem::fetch_latency_fill(std::uint64_t addr, std::uint64_t line) {
  fetch_line_ = fastpath_enabled_ ? line : ~0ull;
  std::uint32_t cycles = cfg_.l1i.hit_latency;
  if (!l1i_.access(addr, false).hit) {
    cycles += cfg_.l2.hit_latency;
    if (!l2_.access(addr, false).hit) cycles += cfg_.dram_latency;
  }
  return cycles;
}

std::uint32_t MemSystem::data_latency_miss(std::uint64_t addr, bool is_write) {
  std::uint32_t cycles = cfg_.l1d.hit_latency + cfg_.l2.hit_latency;
  if (!l2_.access(addr, is_write).hit) cycles += cfg_.dram_latency;
  return cycles;
}

void MemSystem::reset_stats() noexcept {
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
  pdc_.reset_stats();
  sbc_.reset_stats();
}

void MemSystem::serialize_timing(util::ByteWriter& w) const {
  l1i_.serialize(w);
  l1d_.serialize(w);
  l2_.serialize(w);
  w.put_u64(code_base_);
  w.put_u64(code_end_);
}

void MemSystem::deserialize_timing(util::ByteReader& r) {
  fetch_line_ = ~0ull;  // the restored L1I need not hold the buffered line
  l1i_.deserialize(r);
  l1d_.deserialize(r);
  l2_.deserialize(r);
  code_base_ = r.get_u64();
  code_end_ = r.get_u64();
}

}  // namespace gemfi::mem
