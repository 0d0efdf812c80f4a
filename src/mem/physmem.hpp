// Flat, byte-addressable physical memory with checked accesses.
//
// Functional data lives here; the caches in cache.hpp model timing only
// (a common and exactly-reproducible split also used by gem5's "classic"
// memory system in atomic mode). All multi-byte accesses are little-endian.
//
// Every guest access is bounds- and alignment-checked: fault injection
// produces wild addresses by design, and the simulator must convert them
// into clean guest crashes (the paper's "Crashed" outcome class), never into
// host UB.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bytesio.hpp"

namespace gemfi::mem {

enum class AccessError : std::uint8_t {
  None = 0,
  OutOfBounds,   // beyond physical memory
  Misaligned,    // natural alignment violated
  NullPage,      // access inside the unmapped guard page at address 0
  ReadOnly,      // store into the code segment
};

const char* access_error_name(AccessError e) noexcept;

class PhysMem {
 public:
  /// Granularity of checkpoint serialization and dirty tracking.
  static constexpr std::uint64_t kPageBytes = 4096;
  static constexpr unsigned kPageShift = 12;

  /// Zero-filled memory of `size_bytes`. The storage is a private anonymous
  /// mapping, so a page the guest never writes never becomes resident.
  explicit PhysMem(std::uint64_t size_bytes);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Raw unchecked view for loaders and checkpointing. Writes through the
  /// mutable span bypass dirty tracking; callers must clear_dirty() or
  /// mark_all_dirty() afterwards as appropriate (the checkpoint restore
  /// paths do).
  [[nodiscard]] std::span<const std::uint8_t> raw() const noexcept {
    return {bytes_.get(), std::size_t(size_)};
  }
  [[nodiscard]] std::span<std::uint8_t> raw() noexcept {
    return {bytes_.get(), std::size_t(size_)};
  }

  // --- page-granular view (4 KiB; the last page may be partial) ---
  [[nodiscard]] std::uint64_t page_count() const noexcept { return page_count_of(size_); }
  [[nodiscard]] std::span<const std::uint8_t> page(std::uint64_t i) const noexcept {
    const std::uint64_t base = i << kPageShift;
    return {bytes_.get() + base, std::size_t(std::min(kPageBytes, size_ - base))};
  }

  // --- dirty-page bitmap (pages mutated since the last clear_dirty()) ---
  // One bit per page, packed into u64 words; maintained by store() and
  // write_block(), consumed by the checkpoint shared-baseline restore path.
  [[nodiscard]] bool page_dirty(std::uint64_t i) const noexcept {
    return (dirty_[i >> 6] >> (i & 63)) & 1;
  }
  [[nodiscard]] std::span<const std::uint64_t> dirty_words() const noexcept { return dirty_; }
  [[nodiscard]] std::uint64_t dirty_page_count() const noexcept;
  void clear_dirty() noexcept { std::fill(dirty_.begin(), dirty_.end(), 0); }
  void mark_all_dirty() noexcept;

  /// Replace the whole image (sizes must match) and clear the dirty bitmap:
  /// memory is now exactly the image it was copied from. Pages zero in both
  /// are left untouched, so they stay non-resident.
  void copy_from(std::span<const std::uint8_t> image);

  // --- page mutation versions (predecode-cache coherence) ---
  // A monotonic per-page counter bumped by every mutation of the page:
  // store(), write_block(), copy_from(), mark_all_dirty().
  // Consumers (the predecoded-instruction cache) tag derived state with the
  // version it was computed at and treat any mismatch as stale, so code
  // rewritten by a store or a checkpoint restore is never served from a
  // stale decode. Unlike the dirty bitmap, versions are never cleared.
  [[nodiscard]] std::uint64_t page_version(std::uint64_t i) const noexcept {
    return versions_[i];
  }
  /// Record an out-of-band mutation of [addr, addr+n) performed through the
  /// mutable raw() span (checkpoint dirty-page restore does this).
  void bump_page_versions(std::uint64_t addr, std::uint64_t n) noexcept {
    if (n != 0) bump_versions(addr, n);
  }

  [[nodiscard]] bool in_bounds(std::uint64_t addr, std::uint64_t n) const noexcept {
    return addr <= size_ && n <= size_ - addr;
  }

  // Checked typed accessors. On error the out-parameter is untouched and the
  // error is returned; the CPU turns it into a trap.
  AccessError load(std::uint64_t addr, unsigned n, std::uint64_t& out) const noexcept;
  AccessError store(std::uint64_t addr, unsigned n, std::uint64_t value) noexcept;

  /// Bulk copy used by program loading; caller guarantees bounds.
  void write_block(std::uint64_t addr, std::span<const std::uint8_t> data);
  void read_block(std::uint64_t addr, std::span<std::uint8_t> out) const;

 private:
  static constexpr std::uint64_t page_count_of(std::uint64_t bytes) noexcept {
    return (bytes + kPageBytes - 1) >> kPageShift;
  }
  void mark_dirty(std::uint64_t addr, std::uint64_t n) noexcept {
    const std::uint64_t first = addr >> kPageShift;
    const std::uint64_t last = (addr + n - 1) >> kPageShift;
    for (std::uint64_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= 1ull << (p & 63);
      ++versions_[p];
    }
  }
  void bump_versions(std::uint64_t addr, std::uint64_t n) noexcept {
    const std::uint64_t first = addr >> kPageShift;
    const std::uint64_t last = (addr + n - 1) >> kPageShift;
    for (std::uint64_t p = first; p <= last; ++p) ++versions_[p];
  }
  void bump_all_versions() noexcept {
    for (std::uint64_t& v : versions_) ++v;
  }

  struct Unmap {
    std::uint64_t bytes;
    void operator()(std::uint8_t* p) const noexcept;
  };
  std::uint64_t size_;
  std::unique_ptr<std::uint8_t, Unmap> bytes_;
  std::vector<std::uint64_t> dirty_;  // bit per page, see page_dirty()
  std::vector<std::uint64_t> versions_;  // per-page mutation counters
};

}  // namespace gemfi::mem
