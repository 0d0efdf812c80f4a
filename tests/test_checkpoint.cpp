// Checkpoint/restore tests — the paper's Sec. III-D contract:
//   * determinism: run-to-end == capture at fi_read_init_all + restore + run;
//   * one checkpoint seeds many differently-configured experiments (FI state
//     is re-armed on restore);
//   * damage (truncation, bit corruption, structurally hostile fields behind
//     valid CRCs) is detected, never silently used.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "apps/app.hpp"
#include "chkpt/checkpoint.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace gemfi;

struct CkptRun {
  chkpt::Checkpoint ckpt;
  std::string full_output;
  std::uint64_t full_ticks = 0;
};

CkptRun run_and_capture(const apps::App& app, sim::CpuKind cpu) {
  sim::SimConfig cfg;
  cfg.cpu = cpu;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  CkptRun r;
  s.set_checkpoint_handler(
      [&](sim::Simulation& sim) { r.ckpt = chkpt::Checkpoint::capture(sim); });
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  r.full_output = s.output(0);
  r.full_ticks = rr.ticks;
  return r;
}

/// The only restore entry point: parse the blob, then restore it in full.
void restore(const chkpt::Checkpoint& c, sim::Simulation& s) {
  chkpt::CheckpointImage::parse(c).restore_into(s);
}

class CkptModels : public ::testing::TestWithParam<sim::CpuKind> {};

TEST_P(CkptModels, RestoreThenRunReproducesFullRunExactly) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, GetParam());
  ASSERT_FALSE(base.ckpt.empty());

  sim::SimConfig cfg;
  cfg.cpu = GetParam();
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  restore(base.ckpt, s);
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), base.full_output);
  EXPECT_EQ(rr.ticks, base.full_ticks);  // tick-exact determinism
}

TEST_P(CkptModels, OneCheckpointSeedsDifferentExperiments) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, GetParam());

  std::string outputs[2];
  const char* faults[2] = {
      // Different faults from the same checkpoint.
      "RegisterInjectedFault Inst:50 Flip:62 Threadid:0 system.cpu0 occ:1 float 10",
      nullptr,  // fault-free restore
  };
  for (int i = 0; i < 2; ++i) {
    sim::SimConfig cfg;
    cfg.cpu = GetParam();
    sim::Simulation s(cfg, app.program);
    s.spawn_main_thread();
    restore(base.ckpt, s);
    if (faults[i] != nullptr)
      s.fault_manager().load_faults({fi::parse_fault(faults[i])});
    const auto rr = s.run(2'000'000'000ull);
    EXPECT_NE(rr.reason, sim::ExitReason::Watchdog);
    outputs[i] = s.output(0);
  }
  // The f10 fault flips the 2^-53 constant's exponent: PI diverges.
  EXPECT_NE(outputs[0], base.full_output);
  EXPECT_EQ(outputs[1], base.full_output);
}

INSTANTIATE_TEST_SUITE_P(Models, CkptModels,
                         ::testing::Values(sim::CpuKind::AtomicSimple,
                                           sim::CpuKind::TimingSimple,
                                           sim::CpuKind::Pipelined),
                         [](const auto& info) {
                           switch (info.param) {
                             case sim::CpuKind::AtomicSimple: return "Atomic";
                             case sim::CpuKind::TimingSimple: return "Timing";
                             default: return "Pipelined";
                           }
                         });

TEST(Checkpoint, CorruptionIsDetected) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);

  // Flip one payload byte.
  auto bytes = base.ckpt.bytes();
  bytes[bytes.size() / 2] ^= 0x40;
  const auto damaged = chkpt::Checkpoint::from_bytes(std::move(bytes));
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  EXPECT_THROW(restore(damaged, s), util::DeserializeError);

  // Truncate.
  auto short_bytes = base.ckpt.bytes();
  short_bytes.resize(short_bytes.size() - 7);
  const auto truncated = chkpt::Checkpoint::from_bytes(std::move(short_bytes));
  EXPECT_THROW(restore(truncated, s), util::DeserializeError);

  // Bad magic.
  auto magic_bytes = base.ckpt.bytes();
  magic_bytes[0] ^= 0xff;
  const auto bad_magic = chkpt::Checkpoint::from_bytes(std::move(magic_bytes));
  EXPECT_THROW(restore(bad_magic, s), util::DeserializeError);
}

TEST(Checkpoint, V2ImageIsSparseAndMuchSmallerThanV1) {
  const apps::App app = apps::build_app("pi");
  const CkptRun v2 = run_and_capture(app, sim::CpuKind::AtomicSimple);

  const auto st = chkpt::CheckpointImage::parse(v2.ckpt).stats();
  EXPECT_EQ(st.format, chkpt::CheckpointFormat::V2);
  EXPECT_LT(st.pages_stored, st.pages_total);  // most of the 4 MiB is zero
  EXPECT_LT(st.encoded_bytes, st.raw_bytes);
  EXPECT_LT(st.encoded_bytes, st.raw_bytes / 4);
}

/// A v2 blob split into its fields, so a test can change one field and
/// re-seal the blob with every CRC valid: only the structural checks behind
/// the CRCs can then reject it.
struct Blob {
  struct Page {
    std::uint64_t index = 0;
    std::uint8_t enc = 0;
    std::uint32_t len = 0;  // declared payload length
    std::vector<std::uint8_t> payload;
  };
  std::uint32_t magic = 0, version = 0, page_size = 0, flags = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t stored = 0;  // declared stored-page count
  std::vector<Page> pages;
  std::vector<std::uint8_t> mem_tail;  // bytes after the last page record
  std::uint64_t state_len = 0;         // declared state length
  std::vector<std::uint8_t> state;
  std::vector<std::uint8_t> tail;  // bytes after the state CRC

  static Blob split(const chkpt::Checkpoint& c) {
    util::ByteReader r(c.bytes());
    Blob b;
    b.magic = r.get_u32();
    b.version = r.get_u32();
    b.page_size = r.get_u32();
    b.flags = r.get_u32();
    b.mem_bytes = r.get_u64();
    const std::uint64_t mem_len = r.get_u64();
    (void)r.get_u32();  // header CRC
    util::ByteReader mr(r.get_span(std::size_t(mem_len)));
    (void)r.get_u32();  // memory-section CRC
    b.stored = mr.get_u64();
    for (std::uint64_t k = 0; k < b.stored; ++k) {
      Page p;
      p.index = mr.get_u64();
      p.enc = mr.get_u8();
      p.len = mr.get_u32();
      const auto payload = mr.get_span(p.len);
      p.payload.assign(payload.begin(), payload.end());
      b.pages.push_back(std::move(p));
    }
    b.state_len = r.get_u64();
    const auto state = r.get_span(std::size_t(b.state_len));
    b.state.assign(state.begin(), state.end());
    (void)r.get_u32();  // state CRC
    return b;
  }

  [[nodiscard]] chkpt::Checkpoint seal() const {
    util::ByteWriter mem;
    mem.put_u64(stored);
    for (const Page& p : pages) {
      mem.put_u64(p.index);
      mem.put_u8(p.enc);
      mem.put_u32(p.len);
      mem.put_bytes(p.payload);
    }
    mem.put_bytes(mem_tail);
    util::ByteWriter out;
    out.put_u32(magic);
    out.put_u32(version);
    out.put_u32(page_size);
    out.put_u32(flags);
    out.put_u64(mem_bytes);
    out.put_u64(mem.size());
    out.put_u32(util::crc32(out.bytes()));
    out.put_bytes(mem.bytes());
    out.put_u32(util::crc32(mem.bytes()));
    out.put_u64(state_len);
    out.put_bytes(state);
    out.put_u32(util::crc32(state));
    out.put_bytes(tail);
    return chkpt::Checkpoint::from_bytes(out.take());
  }
};

TEST(Checkpoint, CaptureStoresEveryNonZeroPageRaw) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  const Blob b = Blob::split(base.ckpt);
  EXPECT_EQ(b.seal().bytes(), base.ckpt.bytes());  // the split is lossless
  EXPECT_EQ(b.flags, 0u);
  ASSERT_FALSE(b.pages.empty());
  for (const Blob::Page& p : b.pages) {
    EXPECT_EQ(p.enc, 0u) << "page " << p.index;
    EXPECT_EQ(p.len, 4096u) << "page " << p.index;
    EXPECT_TRUE(std::any_of(p.payload.begin(), p.payload.end(),
                            [](std::uint8_t v) { return v != 0; }))
        << "zero page " << p.index << " was stored";
  }
  EXPECT_EQ(chkpt::CheckpointImage::parse(base.ckpt).stats().pages_stored, b.pages.size());

  // The flags word carries nothing: a non-zero one restores the same.
  Blob flagged = b;
  flagged.flags = 1;
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  restore(flagged.seal(), s);
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), base.full_output);
}

TEST(Checkpoint, StructuralMutationsBehindValidCrcsAreRejected) {
  // Deterministic sweep over the decoder's structural checks. Every blob is
  // re-sealed, so no CRC catches the change; each one must throw
  // DeserializeError from parse or restore. No mutation changes mem_bytes,
  // so any allocation beyond the 4 MiB image (which the asan job would
  // flag) would come from trusting a damaged count or length.
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  const Blob good = Blob::split(base.ckpt);
  ASSERT_GE(good.pages.size(), 2u);
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t pages_total = good.mem_bytes / 4096;

  const std::vector<std::pair<const char*, std::function<void(Blob&)>>> mutations = {
      {"stored count + 1", [](Blob& b) { ++b.stored; }},
      {"stored count - 1", [](Blob& b) { --b.stored; }},
      {"stored count 0", [](Blob& b) { b.stored = 0; }},
      {"stored count 2^64-1", [&](Blob& b) { b.stored = kHuge; }},
      {"page index = page count", [&](Blob& b) { b.pages[0].index = pages_total; }},
      {"last page index = page count", [&](Blob& b) { b.pages.back().index = pages_total; }},
      {"page index 2^40", [](Blob& b) { b.pages[0].index = 1ull << 40; }},
      {"page index 2^63", [](Blob& b) { b.pages[0].index = 1ull << 63; }},
      {"page index 2^64-1", [&](Blob& b) { b.pages[0].index = kHuge; }},
      {"encoding 1 (the old RLE tag)", [](Blob& b) { b.pages[0].enc = 1; }},
      {"encoding 2", [](Blob& b) { b.pages[0].enc = 2; }},
      {"encoding 0xff", [](Blob& b) { b.pages.back().enc = 0xff; }},
      {"payload length 0, payload dropped",
       [](Blob& b) {
         b.pages[0].len = 0;
         b.pages[0].payload.clear();
       }},
      {"payload length 4095, payload cut",
       [](Blob& b) {
         b.pages[0].len = 4095;
         b.pages[0].payload.pop_back();
       }},
      {"payload length 4097, payload grown",
       [](Blob& b) {
         b.pages[0].len = 4097;
         b.pages[0].payload.push_back(0);
       }},
      {"payload length 4097, payload unchanged", [](Blob& b) { b.pages[0].len = 4097; }},
      {"payload length 2^32-1", [](Blob& b) { b.pages.back().len = 0xffffffffu; }},
      {"trailing byte in the memory section", [](Blob& b) { b.mem_tail = {0}; }},
      {"trailing page record", [](Blob& b) { b.mem_tail.assign(13 + 4096, 1); }},
      {"trailing byte after the checkpoint", [](Blob& b) { b.tail = {0}; }},
      {"trailing bytes after the checkpoint", [](Blob& b) { b.tail.assign(64, 0xab); }},
      {"state length - 1, state cut",
       [](Blob& b) {
         --b.state_len;
         b.state.pop_back();
       }},
      {"state length + 1, state grown",
       [](Blob& b) {
         ++b.state_len;
         b.state.push_back(0);
       }},
      {"state length 0, state dropped",
       [](Blob& b) {
         b.state_len = 0;
         b.state.clear();
       }},
      {"state length + 5, state unchanged", [](Blob& b) { b.state_len += 5; }},
      {"state length - 1, state unchanged", [](Blob& b) { --b.state_len; }},
      {"state length 2^63", [](Blob& b) { b.state_len = 1ull << 63; }},
      {"state length 2^64-1", [&](Blob& b) { b.state_len = kHuge; }},
      {"version 1", [](Blob& b) { b.version = 1; }},
      {"version 3", [](Blob& b) { b.version = 3; }},
      {"page size 8192", [](Blob& b) { b.page_size = 8192; }},
      {"magic", [](Blob& b) { b.magic ^= 1; }},
  };

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    Blob b = good;
    mutate(b);
    const chkpt::Checkpoint c = b.seal();
    EXPECT_NE(c.bytes(), base.ckpt.bytes());
    EXPECT_THROW(restore(c, s), util::DeserializeError);
  }

  // Truncation anywhere: inside the prologue, at each section boundary and
  // one byte short of the end.
  const auto& bytes = base.ckpt.bytes();
  const std::size_t mem_end = 36 + (bytes.size() - 36 - 4 - 8 - good.state.size() - 4);
  for (const std::size_t keep :
       {std::size_t(0), std::size_t(1), std::size_t(31), std::size_t(35), std::size_t(36),
        std::size_t(44), mem_end, mem_end + 4, mem_end + 12, bytes.size() - 4,
        bytes.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    EXPECT_THROW(restore(chkpt::Checkpoint::from_bytes({bytes.begin(),
                                                         bytes.begin() + std::ptrdiff_t(keep)}),
                         s),
                 util::DeserializeError);
  }

  // The simulation survives the sweep: the intact blob still restores.
  restore(base.ckpt, s);
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), base.full_output);
}

TEST(Checkpoint, DirtyPageRestoreIsEquivalentToFullRestore) {
  // Jacobi, not PI: the kernel must actually store to memory so the dirty
  // bitmap has pages to copy back (PI's kernel is register-only).
  const apps::App app = apps::build_app("jacobi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  const auto image = chkpt::CheckpointImage::parse(base.ckpt);

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  image.restore_into(s);

  // Experiment 1: run with a fault injected mid-kernel (dirties state).
  s.fault_manager().load_faults({fi::parse_fault(
      "RegisterInjectedFault Inst:50 Flip:62 Threadid:0 system.cpu0 occ:1 float 10")});
  (void)s.run(2'000'000'000ull);

  // Experiment 2: dirty-page restore, then a fault-free run must reproduce
  // the golden output tick-exactly — proof the restore is bit-equivalent.
  // The restore re-arms FI state (the fi_read_init contract), so the next
  // experiment's fault list must be loaded afterwards — here, none.
  const std::uint64_t copied = image.restore_dirty_into(s);
  s.fault_manager().load_faults({});
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied, image.stats().pages_total);  // only dirtied pages move
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), base.full_output);
  EXPECT_EQ(rr.ticks, base.full_ticks);
}

TEST(Checkpoint, BitFlipsInEachV2SectionAreDetected) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();

  // Header (the mem_bytes size field): must fail on the header CRC instead
  // of attempting an absurd allocation.
  auto header_flip = base.ckpt.bytes();
  header_flip[16 + 7] ^= 0x40;  // top byte of mem_bytes
  EXPECT_THROW(
      chkpt::CheckpointImage::parse(chkpt::Checkpoint::from_bytes(std::move(header_flip))),
      util::DeserializeError);

  // Memory section (early in the blob).
  auto mem_flip = base.ckpt.bytes();
  mem_flip[64] ^= 0x01;
  EXPECT_THROW(restore(chkpt::Checkpoint::from_bytes(std::move(mem_flip)), s),
               util::DeserializeError);

  // Machine-state section (just before the trailing CRC).
  auto state_flip = base.ckpt.bytes();
  state_flip[state_flip.size() - 6] ^= 0x01;
  EXPECT_THROW(restore(chkpt::Checkpoint::from_bytes(std::move(state_flip)), s),
               util::DeserializeError);
}

TEST(Checkpoint, WrongGeometryImageIsRejected) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  cfg.mem.phys_bytes = 2ull * 1024 * 1024;  // checkpoint was taken on 4 MiB
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  EXPECT_THROW(restore(base.ckpt, s), util::DeserializeError);
}

TEST(Checkpoint, V1BlobIsRejected) {
  // The retired flat format, built well-formed from a restored simulation:
  // magic, version word 1, u64 payload length, CRC32(payload), and a payload
  // of [u8 CPU kind][u64 length + memory image][rest of the machine state].
  // Only the version word may reject it.
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  restore(base.ckpt, s);

  util::ByteWriter machine;
  s.serialize_machine(machine);
  const std::span<const std::uint8_t> state = machine.bytes();
  util::ByteWriter payload;
  payload.put_u8(state[0]);
  payload.put_blob(s.memsys().phys().raw());
  payload.put_bytes(state.subspan(1));
  util::ByteWriter out;
  out.put_u32(0x47464943);
  out.put_u32(1);
  out.put_u64(payload.size());
  out.put_u32(util::crc32(payload.bytes()));
  out.put_bytes(payload.bytes());
  const auto v1 = chkpt::Checkpoint::from_bytes(out.take());

  EXPECT_THROW(chkpt::CheckpointImage::parse(v1), util::DeserializeError);
}

TEST(Checkpoint, HostileCpuKindIsRejected) {
  // Every CRC holds, but the machine-state section names CPU kind 3, one
  // past Pipelined: the restore must throw, not adopt the bogus kind.
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  Blob b = Blob::split(base.ckpt);
  b.state[0] = 3;
  const auto image = chkpt::CheckpointImage::parse(b.seal());

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  EXPECT_THROW(image.restore_into(s), util::DeserializeError);
  EXPECT_EQ(s.active_cpu_kind(), sim::CpuKind::AtomicSimple);
}

TEST(Checkpoint, RestoreResetsFaultInjectionState) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  s.fault_manager().load_faults({fi::parse_fault(
      "RegisterInjectedFault Inst:5 Flip:1 Threadid:0 system.cpu0 occ:1 int 1")});
  restore(base.ckpt, s);
  // The paper: restore resets all internal FI information.
  EXPECT_TRUE(s.fault_manager().states().empty() ||
              !s.fault_manager().any_applied());
  EXPECT_EQ(s.fault_manager().enabled_thread_count(), 0u);
}

}  // namespace
