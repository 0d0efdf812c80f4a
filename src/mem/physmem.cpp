#include "mem/physmem.hpp"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

namespace gemfi::mem {

namespace {

bool all_zero(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    acc |= w;
  }
  for (; i < n; ++i) acc |= p[i];
  return acc == 0;
}

}  // namespace

void PhysMem::Unmap::operator()(std::uint8_t* p) const noexcept { ::munmap(p, bytes); }

PhysMem::PhysMem(std::uint64_t size_bytes)
    : size_(size_bytes),
      bytes_(nullptr, Unmap{size_bytes}),
      dirty_((page_count_of(size_bytes) + 63) / 64, 0),
      versions_(page_count_of(size_bytes), 0) {
  if (size_bytes == 0) return;
  void* p = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bytes_.reset(static_cast<std::uint8_t*>(p));
}

const char* access_error_name(AccessError e) noexcept {
  switch (e) {
    case AccessError::None: return "none";
    case AccessError::OutOfBounds: return "out-of-bounds";
    case AccessError::Misaligned: return "misaligned";
    case AccessError::NullPage: return "null-page";
    case AccessError::ReadOnly: return "read-only";
  }
  return "?";
}

AccessError PhysMem::load(std::uint64_t addr, unsigned n, std::uint64_t& out) const noexcept {
  if (!in_bounds(addr, n)) return AccessError::OutOfBounds;
  if (n != 1 && (addr & (n - 1)) != 0) return AccessError::Misaligned;
  std::uint64_t v = 0;
  std::memcpy(&v, bytes_.get() + addr, n);  // little-endian host assumed (tested)
  out = v;
  return AccessError::None;
}

AccessError PhysMem::store(std::uint64_t addr, unsigned n, std::uint64_t value) noexcept {
  if (!in_bounds(addr, n)) return AccessError::OutOfBounds;
  if (n != 1 && (addr & (n - 1)) != 0) return AccessError::Misaligned;
  std::memcpy(bytes_.get() + addr, &value, n);
  mark_dirty(addr, n);  // aligned stores never straddle a page
  return AccessError::None;
}

void PhysMem::write_block(std::uint64_t addr, std::span<const std::uint8_t> data) {
  if (!in_bounds(addr, data.size()))
    throw std::out_of_range("PhysMem::write_block beyond memory");
  if (data.empty()) return;
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
  mark_dirty(addr, data.size());
}

std::uint64_t PhysMem::dirty_page_count() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t w : dirty_) n += std::uint64_t(std::popcount(w));
  return n;
}

void PhysMem::mark_all_dirty() noexcept {
  std::fill(dirty_.begin(), dirty_.end(), ~0ull);
  // Mask off bits beyond the last page so dirty_page_count() stays exact.
  const std::uint64_t used = page_count() & 63;
  if (used != 0 && !dirty_.empty()) dirty_.back() = (1ull << used) - 1;
  bump_all_versions();  // callers use this after raw() writes: all bets off
}

void PhysMem::copy_from(std::span<const std::uint8_t> image) {
  if (image.size() != size_)
    throw util::DeserializeError("checkpoint memory size mismatch");
  for (std::uint64_t base = 0; base < size_; base += kPageBytes) {
    const std::size_t n = std::size_t(std::min(kPageBytes, size_ - base));
    std::uint8_t* const dst = bytes_.get() + base;
    // Reading a never-written page maps the shared zero page: still free.
    if (all_zero(image.data() + base, n) && all_zero(dst, n)) continue;
    std::memcpy(dst, image.data() + base, n);
  }
  clear_dirty();
  bump_all_versions();  // content changed even though the bitmap says clean
}

void PhysMem::read_block(std::uint64_t addr, std::span<std::uint8_t> out) const {
  if (!in_bounds(addr, out.size()))
    throw std::out_of_range("PhysMem::read_block beyond memory");
  std::memcpy(out.data(), bytes_.get() + addr, out.size());
}

}  // namespace gemfi::mem
