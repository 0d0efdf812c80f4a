// Checkpoint/restore tests — the paper's Sec. III-D contract:
//   * determinism: run-to-end == capture at fi_read_init_all + restore + run;
//   * one checkpoint seeds many differently-configured experiments (FI state
//     is re-armed on restore);
//   * damage (truncation, bit corruption) is detected, never silently used;
//   * file round-trip works (the NoW "network share" path).
#include <gtest/gtest.h>

#include <cstdio>

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

class CkptModels : public ::testing::TestWithParam<sim::CpuKind> {};

TEST_P(CkptModels, RestoreThenRunReproducesFullRunExactly) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, GetParam());
  ASSERT_FALSE(base.ckpt.empty());

  sim::SimConfig cfg;
  cfg.cpu = GetParam();
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  base.ckpt.restore_into(s);
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
    base.ckpt.restore_into(s);
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
  EXPECT_THROW(damaged.restore_into(s), util::DeserializeError);

  // Truncate.
  auto short_bytes = base.ckpt.bytes();
  short_bytes.resize(short_bytes.size() - 7);
  const auto truncated = chkpt::Checkpoint::from_bytes(std::move(short_bytes));
  EXPECT_THROW(truncated.restore_into(s), util::DeserializeError);

  // Bad magic.
  auto magic_bytes = base.ckpt.bytes();
  magic_bytes[0] ^= 0xff;
  const auto bad_magic = chkpt::Checkpoint::from_bytes(std::move(magic_bytes));
  EXPECT_THROW(bad_magic.restore_into(s), util::DeserializeError);
}

TEST(Checkpoint, FileRoundTrip) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);

  const std::string path = ::testing::TempDir() + "/gemfi_ckpt_test.bin";
  base.ckpt.save_file(path);
  const auto loaded = chkpt::Checkpoint::load_file(path);
  EXPECT_EQ(loaded.bytes(), base.ckpt.bytes());
  std::remove(path.c_str());

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  loaded.restore_into(s);
  const auto rr = s.run(2'000'000'000ull);
  EXPECT_EQ(rr.reason, sim::ExitReason::AllThreadsExited);
  EXPECT_EQ(s.output(0), base.full_output);
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

/// `c` with every stored page re-encoded raw and the section CRCs
/// recomputed. Capture writes a page raw only where RLE cannot shrink it;
/// this drives the decoder's raw-page path across a whole image.
chkpt::Checkpoint with_raw_pages(const chkpt::Checkpoint& c) {
  util::ByteReader r(c.bytes());
  const auto fixed = r.get_span(24);  // magic, version, page size, flags, mem_bytes
  const std::uint64_t mem_len = r.get_u64();
  (void)r.get_u32();  // header CRC
  util::ByteReader mr(r.get_span(std::size_t(mem_len)));
  (void)r.get_u32();  // memory-section CRC
  const auto state_sec = r.get_span(r.remaining());  // length, state, CRC: unchanged

  util::ByteWriter mem;
  const std::uint64_t stored = mr.get_u64();
  mem.put_u64(stored);
  for (std::uint64_t k = 0; k < stored; ++k) {
    mem.put_u64(mr.get_u64());  // page index
    const std::uint8_t enc = mr.get_u8();
    const auto payload = mr.get_span(mr.get_u32());
    std::vector<std::uint8_t> page(payload.begin(), payload.end());
    if (enc == 1) {
      page.assign(4096, 0);
      util::rle_decompress(payload, page);
    }
    mem.put_u8(0);
    mem.put_u32(std::uint32_t(page.size()));
    mem.put_bytes(page);
  }

  util::ByteWriter out;
  out.put_bytes(fixed);
  out.put_u64(mem.size());
  out.put_u32(util::crc32(out.bytes()));
  out.put_bytes(mem.bytes());
  out.put_u32(util::crc32(mem.bytes()));
  out.put_bytes(state_sec);
  return chkpt::Checkpoint::from_bytes(out.take());
}

TEST(Checkpoint, UncompressedV2RoundTrips) {
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  const chkpt::Checkpoint raw = with_raw_pages(base.ckpt);
  const auto st = chkpt::CheckpointImage::parse(raw).stats();
  EXPECT_EQ(st.pages_rle, 0u);
  EXPECT_EQ(st.pages_stored,
            chkpt::CheckpointImage::parse(base.ckpt).stats().pages_stored);

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  raw.restore_into(s);
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
  EXPECT_THROW(chkpt::Checkpoint::from_bytes(std::move(mem_flip)).restore_into(s),
               util::DeserializeError);

  // Machine-state section (just before the trailing CRC).
  auto state_flip = base.ckpt.bytes();
  state_flip[state_flip.size() - 6] ^= 0x01;
  EXPECT_THROW(chkpt::Checkpoint::from_bytes(std::move(state_flip)).restore_into(s),
               util::DeserializeError);
}

TEST(Checkpoint, MalformedPageIndexIsRejectedNotOom) {
  // Hand-craft a v2 blob whose CRCs are all valid but whose single page
  // record points far outside the image: must throw, not write wild.
  util::ByteWriter records;
  records.put_u64(1);                  // one stored page
  records.put_u64(1ull << 40);         // absurd page index
  records.put_u8(0);                   // raw
  records.put_u32(4096);
  records.put_bytes(std::vector<std::uint8_t>(4096, 0xab));

  util::ByteWriter out;
  out.put_u32(0x47464943);
  out.put_u32(2);
  out.put_u32(4096);
  out.put_u32(0);
  out.put_u64(4ull * 1024 * 1024);     // mem_bytes
  out.put_u64(records.size());
  out.put_u32(util::crc32(out.bytes()));
  out.put_bytes(records.bytes());
  out.put_u32(util::crc32(records.bytes()));
  out.put_u64(0);                      // empty state section
  out.put_u32(util::crc32({}));

  EXPECT_THROW(chkpt::CheckpointImage::parse(chkpt::Checkpoint::from_bytes(out.take())),
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
  EXPECT_THROW(base.ckpt.restore_into(s), util::DeserializeError);
  EXPECT_THROW(chkpt::CheckpointImage::parse(base.ckpt).restore_into(s),
               util::DeserializeError);
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
  base.ckpt.restore_into(s);

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
  EXPECT_THROW(v1.restore_into(s), util::DeserializeError);
}

TEST(Checkpoint, HostileCpuKindIsRejected) {
  // Every CRC holds, but the machine-state section names CPU kind 3, one
  // past Pipelined: the restore must throw, not adopt the bogus kind.
  const apps::App app = apps::build_app("pi");
  const CkptRun base = run_and_capture(app, sim::CpuKind::AtomicSimple);
  auto bytes = base.ckpt.bytes();
  util::ByteReader r(bytes);
  (void)r.get_span(24);
  const std::uint64_t mem_len = r.get_u64();
  // Header (36 bytes), memory section and its CRC, then the u64 state length.
  const std::size_t state_at = 36 + std::size_t(mem_len) + 4 + 8;
  const std::size_t state_len = bytes.size() - state_at - 4;
  bytes[state_at] = 3;
  util::ByteWriter crc;
  crc.put_u32(util::crc32(std::span(bytes).subspan(state_at, state_len)));
  std::copy(crc.bytes().begin(), crc.bytes().end(), bytes.end() - 4);
  const auto image = chkpt::CheckpointImage::parse(chkpt::Checkpoint::from_bytes(bytes));

  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  EXPECT_THROW(image.restore_into(s), util::DeserializeError);
  EXPECT_EQ(s.active_cpu_kind(), sim::CpuKind::AtomicSimple);
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/gemfi_ckpt_trunc.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("GFIC\x02\0\0\0stub", 1, 12, f);  // 12 bytes < 36-byte header
  std::fclose(f);
  EXPECT_THROW(chkpt::Checkpoint::load_file(path), util::DeserializeError);
  std::remove(path.c_str());
  EXPECT_THROW(chkpt::Checkpoint::load_file(path), std::runtime_error);  // missing
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
  base.ckpt.restore_into(s);
  // The paper: restore resets all internal FI information.
  EXPECT_TRUE(s.fault_manager().states().empty() ||
              !s.fault_manager().any_applied());
  EXPECT_EQ(s.fault_manager().enabled_thread_count(), 0u);
}

}  // namespace
