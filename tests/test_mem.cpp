// Memory-subsystem tests: PhysMem access checking, cache geometry/LRU/
// write-back behavior, the MemSystem policy layer and latency model, and
// serialization round-trips.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "mem/cache.hpp"
#include "mem/memsys.hpp"
#include "util/rng.hpp"

namespace {

using namespace gemfi;
using namespace gemfi::mem;

TEST(PhysMem, CheckedAccessSemantics) {
  PhysMem pm(4096);
  std::uint64_t v = 0;
  EXPECT_EQ(pm.store(0, 8, 0x1122334455667788ull), AccessError::None);
  EXPECT_EQ(pm.load(0, 8, v), AccessError::None);
  EXPECT_EQ(v, 0x1122334455667788ull);
  EXPECT_EQ(pm.load(0, 4, v), AccessError::None);
  EXPECT_EQ(v, 0x55667788u);  // little-endian
  EXPECT_EQ(pm.load(1, 4, v), AccessError::Misaligned);
  EXPECT_EQ(pm.load(4096, 1, v), AccessError::OutOfBounds);
  EXPECT_EQ(pm.load(4095, 8, v), AccessError::OutOfBounds);
  EXPECT_EQ(pm.store(4090, 8, 0), AccessError::OutOfBounds);
  // Failed loads leave the out-parameter untouched.
  v = 42;
  EXPECT_EQ(pm.load(9999, 8, v), AccessError::OutOfBounds);
  EXPECT_EQ(v, 42u);
}

/// Resident set of this process in KiB (/proc/self/statm).
long resident_kib() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

TEST(PhysMem, PagesNeverWrittenStayNonResident) {
  // Two 64 MiB memories, a few stores each, then a full-image copy: only
  // the written pages may become resident — neither construction, the zero
  // pages of the image, nor copy_from's scan of them touches the rest.
  constexpr std::uint64_t kBytes = 64ull << 20;
  const long before = resident_kib();
  PhysMem image(kBytes);
  ASSERT_EQ(image.store(3 * PhysMem::kPageBytes, 8, 0x1234), AccessError::None);
  ASSERT_EQ(image.store(kBytes - 8, 8, 0x5678), AccessError::None);
  PhysMem pm(kBytes);
  ASSERT_EQ(pm.store(9 * PhysMem::kPageBytes, 8, 0x9abc), AccessError::None);
  pm.copy_from(image.raw());
  const long grown = resident_kib() - before;
  EXPECT_LT(grown, 4 * 1024) << "KiB resident after touching 5 pages of 128 MiB";

  std::uint64_t v = 0;
  EXPECT_EQ(pm.load(3 * PhysMem::kPageBytes, 8, v), AccessError::None);
  EXPECT_EQ(v, 0x1234u);
  EXPECT_EQ(pm.load(kBytes - 8, 8, v), AccessError::None);
  EXPECT_EQ(v, 0x5678u);
  EXPECT_EQ(pm.load(9 * PhysMem::kPageBytes, 8, v), AccessError::None);
  EXPECT_EQ(v, 0u) << "copy_from kept a page the image has zeroed";
  EXPECT_EQ(pm.dirty_page_count(), 0u);
}

TEST(PhysMem, DirtyBitmapTracksStoresAndBlockWrites) {
  PhysMem pm(16 * PhysMem::kPageBytes);
  EXPECT_EQ(pm.dirty_page_count(), 0u);

  // A store marks exactly its page.
  EXPECT_EQ(pm.store(5 * PhysMem::kPageBytes + 8, 8, 1), AccessError::None);
  EXPECT_TRUE(pm.page_dirty(5));
  EXPECT_FALSE(pm.page_dirty(4));
  EXPECT_EQ(pm.dirty_page_count(), 1u);

  // A block write crossing a page boundary marks both pages.
  const std::vector<std::uint8_t> blob(256, 0xcd);
  pm.write_block(7 * PhysMem::kPageBytes - 100, blob);
  EXPECT_TRUE(pm.page_dirty(6));
  EXPECT_TRUE(pm.page_dirty(7));
  EXPECT_EQ(pm.dirty_page_count(), 3u);

  pm.clear_dirty();
  EXPECT_EQ(pm.dirty_page_count(), 0u);

  pm.mark_all_dirty();
  EXPECT_EQ(pm.dirty_page_count(), pm.page_count());

  // copy_from replaces the image and leaves a clean bitmap (memory == image);
  // a wrong-sized image is rejected.
  const std::vector<std::uint8_t> image(16 * PhysMem::kPageBytes, 0x11);
  pm.copy_from(image);
  EXPECT_EQ(pm.dirty_page_count(), 0u);
  std::uint64_t v = 0;
  EXPECT_EQ(pm.load(0, 8, v), AccessError::None);
  EXPECT_EQ(v, 0x1111111111111111ull);
  const std::vector<std::uint8_t> wrong(8 * PhysMem::kPageBytes, 0);
  EXPECT_THROW(pm.copy_from(wrong), gemfi::util::DeserializeError);
}

TEST(Cache, GeometryMathSurvivesHugeSetCounts) {
  // Regression: the set-index shift used to be computed with
  // __builtin_ctz(int) on the set count, which truncates geometries with
  // >= 2^32 sets. CacheGeometry does the math in 64 bits without
  // allocating the (infeasible) line array.
  CacheConfig cfg;
  cfg.line_bytes = 64;
  cfg.ways = 1;
  cfg.size_bytes = (1ull << 33) * 64;  // 2^33 sets of one 64-byte line
  const auto g = CacheGeometry::from_config(cfg);
  EXPECT_EQ(g.num_sets, 1ull << 33);
  EXPECT_EQ(g.set_shift, 33u);

  const std::uint64_t addr = (0x3bull << (33 + 6)) | (0x1234567ull << 6) | 17;
  EXPECT_EQ(g.set_of(addr), 0x1234567ull);
  EXPECT_EQ(g.tag_of(addr), 0x3bull);
  // Two addresses 2^32 lines apart must land in different sets, not alias.
  EXPECT_NE(g.set_of(0), g.set_of(1ull << (32 + 6)));
}

TEST(Cache, GeometryValidation) {
  EXPECT_THROW(Cache({.size_bytes = 1000, .line_bytes = 64, .ways = 4}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 4096, .line_bytes = 60, .ways = 4}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 4096, .line_bytes = 64, .ways = 0}),
               std::invalid_argument);
  EXPECT_NO_THROW(Cache({.size_bytes = 4096, .line_bytes = 64, .ways = 4}));
}

TEST(Cache, GeometryFromConfigRejections) {
  // Every malformed-shape class from_config() guards, checked directly on
  // the geometry math (no line array allocation involved).
  // Non-power-of-two line size.
  EXPECT_THROW(CacheGeometry::from_config({.size_bytes = 4096, .line_bytes = 48, .ways = 4}),
               std::invalid_argument);
  // Zero line size and zero ways.
  EXPECT_THROW(CacheGeometry::from_config({.size_bytes = 4096, .line_bytes = 0, .ways = 4}),
               std::invalid_argument);
  EXPECT_THROW(CacheGeometry::from_config({.size_bytes = 4096, .line_bytes = 64, .ways = 0}),
               std::invalid_argument);
  // Size not divisible by line_bytes * ways.
  EXPECT_THROW(CacheGeometry::from_config({.size_bytes = 1000, .line_bytes = 64, .ways = 2}),
               std::invalid_argument);
  // Divisible, but the resulting set count (3) is not a power of two.
  EXPECT_THROW(CacheGeometry::from_config({.size_bytes = 64 * 2 * 3, .line_bytes = 64, .ways = 2}),
               std::invalid_argument);
  // Degenerate-but-legal single-set geometry.
  const auto g = CacheGeometry::from_config({.size_bytes = 64 * 2, .line_bytes = 64, .ways = 2});
  EXPECT_EQ(g.num_sets, 1u);
  EXPECT_EQ(g.set_shift, 0u);
}

TEST(Cache, HitsMissesAndLineGranularity) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x103F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_FALSE(c.probe(0x2000000));
}

TEST(Cache, LruEvictionOrder) {
  // 2-way, 32 sets of 64B lines: three lines mapping to one set.
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  const std::uint64_t setstride = 32 * 64;
  c.access(0 * setstride, false);  // A
  c.access(1 * setstride, false);  // B
  c.access(0 * setstride, false);  // touch A -> B is LRU
  c.access(2 * setstride, false);  // C evicts B
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(setstride));
  EXPECT_TRUE(c.probe(2 * setstride));
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  const std::uint64_t setstride = 32 * 64;
  c.access(0, true);  // dirty A
  c.access(setstride, false);
  const auto r = c.access(2 * setstride, false);  // evicts dirty A
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(c.stats().writebacks, 1u);
  c.flush();
  EXPECT_FALSE(c.probe(2 * setstride));
}

TEST(Cache, SerializationRoundTrip) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) c.access(rng.below(1 << 16) & ~7ull, rng.chance(0.3));
  util::ByteWriter w;
  c.serialize(w);
  Cache c2({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  util::ByteReader r(w.bytes());
  c2.deserialize(r);
  // Identical behavior after restore: same hit/miss on a probe sequence.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t addr = rng.below(1 << 16) & ~7ull;
    EXPECT_EQ(c.probe(addr), c2.probe(addr));
  }
}

TEST(Cache, SerializationRebuildsMruState) {
  // The per-set MRU index is derived state — never serialized, rebuilt from
  // the lru fields on deserialize. Continuing one random access sequence on
  // the original and the restored cache must produce identical results
  // access by access: any MRU divergence would surface as a differing
  // hit/writeback outcome or counter.
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  util::Rng warm(7);
  for (int i = 0; i < 2000; ++i) c.access(warm.below(1 << 15) & ~7ull, warm.chance(0.3));

  util::ByteWriter w;
  c.serialize(w);
  Cache c2({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  util::ByteReader r(w.bytes());
  c2.deserialize(r);

  util::Rng cont(11);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t addr = cont.below(1 << 15) & ~7ull;
    const bool write = cont.chance(0.3);
    const auto a = c.access(addr, write);
    const auto b = c2.access(addr, write);
    ASSERT_EQ(a.hit, b.hit) << "access " << i;
    ASSERT_EQ(a.writeback, b.writeback) << "access " << i;
  }
  EXPECT_EQ(c.stats().hits, c2.stats().hits);
  EXPECT_EQ(c.stats().misses, c2.stats().misses);
  EXPECT_EQ(c.stats().writebacks, c2.stats().writebacks);
}

TEST(Cache, MruFastPathIsObservationallyIdentical) {
  // Differential fuzz of the inline MRU hit path against the ways-wide scan
  // (`fastpath=false`): same sequence, same observables, every access.
  Cache fast({.size_bytes = 2048, .line_bytes = 64, .ways = 4});
  Cache slow({.size_bytes = 2048, .line_bytes = 64, .ways = 4});
  slow.set_mru_enabled(false);
  util::Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    // Small address range so sets see heavy reuse (MRU hits) and conflict
    // evictions in one run.
    const std::uint64_t addr = rng.below(1 << 13) & ~7ull;
    const bool write = rng.chance(0.4);
    const auto a = fast.access(addr, write);
    const auto b = slow.access(addr, write);
    ASSERT_EQ(a.hit, b.hit) << "access " << i;
    ASSERT_EQ(a.writeback, b.writeback) << "access " << i;
  }
  EXPECT_EQ(fast.stats().hits, slow.stats().hits);
  EXPECT_EQ(fast.stats().misses, slow.stats().misses);
  EXPECT_EQ(fast.stats().writebacks, slow.stats().writebacks);
  for (std::uint64_t addr = 0; addr < (1 << 13); addr += 64)
    ASSERT_EQ(fast.probe(addr), slow.probe(addr)) << addr;
}

TEST(Cache, TouchReadOnlyHitsTheMruWay) {
  Cache c({.size_bytes = 4096, .line_bytes = 64, .ways = 2});
  const std::uint64_t setstride = 32 * 64;
  EXPECT_FALSE(c.touch_read(0x1000));  // cold: no state change, no counters
  EXPECT_EQ(c.stats().accesses(), 0u);

  c.access(0x1000, false);
  EXPECT_TRUE(c.touch_read(0x1000));
  EXPECT_TRUE(c.touch_read(0x1038));  // same line
  EXPECT_EQ(c.stats().hits, 2u);

  // Another line in the same set takes over the MRU way; the old line is
  // still resident but touch_read must decline it (no scan fallback).
  c.access(0x1000 + setstride, false);
  EXPECT_FALSE(c.touch_read(0x1000));
  EXPECT_TRUE(c.probe(0x1000));
}

TEST(MemSystem, PolicyChecks) {
  MemSystem ms;
  ms.set_code_region(0x2000, 0x3000);
  std::uint64_t v = 0;
  EXPECT_EQ(ms.read(0x10, 8, v), AccessError::NullPage);
  EXPECT_EQ(ms.write(0x2000, 8, 1), AccessError::ReadOnly);
  EXPECT_EQ(ms.write(0x2ff8, 8, 1), AccessError::ReadOnly);
  EXPECT_EQ(ms.write(0x3000, 8, 1), AccessError::None);
  EXPECT_EQ(ms.read(0x2000, 8, v), AccessError::None);  // code is readable
  std::uint32_t word = 0;
  EXPECT_EQ(ms.fetch(0x2000, word), AccessError::None);
  EXPECT_EQ(ms.fetch(0x10, word), AccessError::NullPage);
  EXPECT_EQ(ms.fetch(ms.phys().size(), word), AccessError::OutOfBounds);
}

TEST(MemSystem, LatencyLadder) {
  MemSysConfig cfg;
  MemSystem ms(cfg);
  // Cold: L1 miss + L2 miss + DRAM.
  const std::uint32_t cold = ms.data_latency(0x10000, false);
  EXPECT_EQ(cold, cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.dram_latency);
  // Warm: L1 hit.
  EXPECT_EQ(ms.data_latency(0x10000, false), cfg.l1d.hit_latency);
  // Fetch path uses the I-cache.
  const std::uint32_t coldf = ms.fetch_latency(0x2000);
  EXPECT_EQ(coldf, cfg.l1i.hit_latency + cfg.l2.hit_latency + cfg.dram_latency);
  EXPECT_EQ(ms.fetch_latency(0x2000), cfg.l1i.hit_latency);
  // L2 hit after L1 eviction: fill many distinct lines mapping to one L1 set.
  MemSystem ms2(cfg);
  const std::uint64_t l1_sets = cfg.l1d.size_bytes / (cfg.l1d.line_bytes * cfg.l1d.ways);
  const std::uint64_t stride = l1_sets * cfg.l1d.line_bytes;
  for (unsigned i = 0; i < cfg.l1d.ways + 1; ++i) ms2.data_latency(0x10000 + i * stride, false);
  const std::uint32_t l2hit = ms2.data_latency(0x10000, false);
  EXPECT_EQ(l2hit, cfg.l1d.hit_latency + cfg.l2.hit_latency);
}

TEST(MemSystem, StatsAccumulateAndReset) {
  MemSystem ms;
  ms.data_latency(0x8000, false);
  ms.data_latency(0x8000, true);
  ms.fetch_latency(0x2000);
  EXPECT_EQ(ms.l1d_stats().accesses(), 2u);
  EXPECT_EQ(ms.l1i_stats().accesses(), 1u);
  EXPECT_GT(ms.l2_stats().misses, 0u);
  ms.reset_stats();
  EXPECT_EQ(ms.l1d_stats().accesses(), 0u);
}

TEST(MemSystem, ResetStatsAlsoClearsPredecodeCounters) {
  // Regression: reset_stats() zeroed the cache counters but left the
  // predecode-cache counters running, skewing post-reset stats reports.
  MemSystem ms;
  ASSERT_EQ(ms.write(0x8000, 4, 0x43ff0401u), AccessError::None);  // a valid word
  ASSERT_NE(ms.predecode(0x8000), nullptr);                        // page fill
  ASSERT_NE(ms.predecode(0x8000), nullptr);                        // hit
  EXPECT_GT(ms.predecode_stats().fills, 0u);
  EXPECT_GT(ms.predecode_stats().hits, 0u);
  ms.reset_stats();
  EXPECT_EQ(ms.predecode_stats().fills, 0u);
  EXPECT_EQ(ms.predecode_stats().hits, 0u);
  EXPECT_EQ(ms.predecode_stats().stale, 0u);
  EXPECT_EQ(ms.predecode_stats().bypasses, 0u);
}

TEST(MemSystem, FetchLineBufferIsLatencyExact) {
  // The one-entry fetch line buffer (fastpath) must charge exactly the
  // latencies of the layered lookup, hit the same cache levels, and count
  // the same stats — across sequential runs, line crossings, evictions and
  // interleaved data traffic sharing the L2.
  MemSysConfig cfg;
  MemSystem fast(cfg);
  MemSystem slow(cfg);
  slow.set_fastpath_enabled(false);
  util::Rng rng(17);
  std::uint64_t pc = 0x2000;
  for (int i = 0; i < 50000; ++i) {
    if (rng.chance(0.1)) {
      // Jump: sometimes far (new line/page), sometimes within the line.
      pc = rng.chance(0.5) ? (0x2000 + (rng.below(1 << 18) & ~3ull)) : (pc & ~63ull);
    }
    ASSERT_EQ(fast.fetch_latency(pc), slow.fetch_latency(pc)) << "fetch " << i;
    if (rng.chance(0.2)) {
      const std::uint64_t addr = 0x40000 + (rng.below(1 << 18) & ~7ull);
      const bool write = rng.chance(0.3);
      ASSERT_EQ(fast.data_latency(addr, write), slow.data_latency(addr, write)) << "data " << i;
    }
    pc += 4;
  }
  EXPECT_EQ(fast.l1i_stats().hits, slow.l1i_stats().hits);
  EXPECT_EQ(fast.l1i_stats().misses, slow.l1i_stats().misses);
  EXPECT_EQ(fast.l1d_stats().hits, slow.l1d_stats().hits);
  EXPECT_EQ(fast.l2_stats().hits, slow.l2_stats().hits);
  EXPECT_EQ(fast.l2_stats().misses, slow.l2_stats().misses);
  EXPECT_EQ(fast.l2_stats().writebacks, slow.l2_stats().writebacks);
}

TEST(MemSystem, SerializationPreservesMemoryAndCaches) {
  MemSystem ms;
  ms.set_code_region(0x2000, 0x2100);
  ASSERT_EQ(ms.write(0x8000, 8, 0xabcdefull), AccessError::None);
  ms.data_latency(0x8000, true);
  util::ByteWriter w;
  ms.serialize_timing(w);

  MemSystem ms2;
  ms2.phys().copy_from(ms.phys().raw());
  util::ByteReader r(w.bytes());
  ms2.deserialize_timing(r);
  std::uint64_t v = 0;
  ASSERT_EQ(ms2.read(0x8000, 8, v), AccessError::None);
  EXPECT_EQ(v, 0xabcdefull);
  EXPECT_EQ(ms2.code_base(), 0x2000u);
  // Warm line survived the round-trip.
  EXPECT_EQ(ms2.data_latency(0x8000, false), ms2.config().l1d.hit_latency);
}

}  // namespace
