// Set-associative write-back, write-allocate cache timing model with true-LRU
// replacement.
//
// The validation platform of the paper (Sec. IV) is a single-core Alpha with
// split L1 I/D caches and a unified L2; this model provides those levels.
// Caches here are *timing-only*: they track which lines are resident and
// dirty and charge latencies, while data always lives in PhysMem. This keeps
// fault injection on memory transactions exact (values are corrupted at the
// CPU/memory boundary, not inside a cache data array we would then have to
// keep coherent).
//
// Hot-path layout: access() is header-inline and resolves the common case —
// a hit in the set's most-recently-used way — with one tag compare, falling
// back to the out-of-line ways-wide scan for non-MRU hits and misses. The
// MRU index is a pure accelerator: every observable (hit/miss/writeback
// counts, LRU ordering, the serialized image) is bit-identical to the scan
// path, which is what the lockstep fast-lane suite asserts. set_mru_enabled
// exists solely for `--no-fastpath` A/B measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytesio.hpp"

namespace gemfi::mem {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;
  std::uint32_t hit_latency = 2;  // cycles charged on a hit
  const char* name = "cache";
};

/// Address-mapping math for a set-associative cache, kept separate from the
/// line array so very large set counts (> 2^32) are validated and testable
/// without allocating the array. The set shift is precomputed with
/// std::countr_zero on the full 64-bit set count; the previous
/// __builtin_ctz(num_sets) truncated the operand to unsigned int.
struct CacheGeometry {
  std::uint64_t num_sets = 1;
  std::uint32_t line_bytes = 64;
  unsigned set_shift = 0;  // log2(num_sets)

  /// Validates the geometry (power-of-two lines and sets, nonzero ways,
  /// divisible size); throws std::invalid_argument otherwise.
  static CacheGeometry from_config(const CacheConfig& cfg);

  [[nodiscard]] std::uint64_t line_addr(std::uint64_t addr) const noexcept {
    return addr / line_bytes;
  }
  [[nodiscard]] std::uint64_t set_of(std::uint64_t addr) const noexcept {
    return line_addr(addr) & (num_sets - 1);
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const noexcept {
    return line_addr(addr) >> set_shift;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return hits + misses; }
  [[nodiscard]] double miss_rate() const noexcept {
    return accesses() == 0 ? 0.0 : double(misses) / double(accesses());
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  // a dirty victim was evicted
  };

  /// Look up `addr`; on miss, allocate the line (evicting LRU). `is_write`
  /// marks the line dirty. Purely a timing/state operation. Inline MRU hit
  /// path; non-MRU hits and misses take the out-of-line scan.
  AccessResult access(std::uint64_t addr, bool is_write) {
    if (mru_enabled_) {
      const std::uint64_t set = geom_.set_of(addr);
      Line& m = lines_[std::size_t(set) * cfg_.ways + mru_[set]];
      if (m.valid && m.tag == geom_.tag_of(addr)) {
        m.lru = ++use_clock_;
        m.dirty = m.dirty || is_write;
        ++stats_.hits;
        return {.hit = true, .writeback = false};
      }
    }
    return access_scan(addr, is_write);
  }

  /// Caller-hinted read hit: bump and count a hit on the MRU way iff it
  /// still holds `addr`'s line, with no fallback allocation. Returns false
  /// (no state change, nothing counted) otherwise — the caller then goes
  /// through access(). Backs MemSystem's one-entry fetch line buffer.
  bool touch_read(std::uint64_t addr) {
    const std::uint64_t set = geom_.set_of(addr);
    Line& m = lines_[std::size_t(set) * cfg_.ways + mru_[set]];
    if (!m.valid || m.tag != geom_.tag_of(addr)) return false;
    m.lru = ++use_clock_;
    ++stats_.hits;
    return true;
  }

  /// True if the line containing addr is resident (no state change).
  [[nodiscard]] bool probe(std::uint64_t addr) const noexcept;

  /// Drop all lines (counts dirty lines as writebacks).
  void flush();

  /// Disable the inline MRU hit path (`--no-fastpath` A/B baseline): every
  /// access takes the ways-wide scan, reproducing the pre-fast-lane host
  /// cost. Observables are identical either way.
  void set_mru_enabled(bool enabled) noexcept { mru_enabled_ = enabled; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }

  void serialize(util::ByteWriter& w) const;
  void deserialize(util::ByteReader& r);

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  // larger == more recently used
  };

  AccessResult access_scan(std::uint64_t addr, bool is_write);
  void rebuild_mru() noexcept;

  CacheConfig cfg_;
  CacheGeometry geom_;
  std::vector<Line> lines_;  // sets * ways, row-major by set
  // Per-set index of the most-recently-used way — the way with the largest
  // `lru` among the set's valid lines (0 for an empty set). Derived state:
  // never serialized, rebuilt from the lru fields on deserialize, so the
  // checkpoint format does not depend on it.
  std::vector<std::uint32_t> mru_;
  bool mru_enabled_ = true;
  std::uint64_t use_clock_ = 0;
  CacheStats stats_;
};

}  // namespace gemfi::mem
