#include "chkpt/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "mem/physmem.hpp"

namespace gemfi::chkpt {

namespace {

constexpr std::uint32_t kMagic = 0x47464943;  // "GFIC"

constexpr std::uint32_t kVersion = 2;

// The CRC-guarded fixed prologue: magic, version, page size, flags (u32 each),
// mem_bytes, mem_len (u64 each), header CRC. The flags word is written as 0
// and ignored on read.
constexpr std::size_t kPrologueBytes = 32;

// The one per-page encoding byte: the page's bytes, stored verbatim. Parse
// rejects any other value.
constexpr std::uint8_t kPageRaw = 0;

bool all_zero(std::span<const std::uint8_t> page) {
  std::size_t i = 0;
  for (; i + 8 <= page.size(); i += 8) {
    std::uint64_t v;
    std::memcpy(&v, page.data() + i, 8);
    if (v != 0) return false;
  }
  for (; i < page.size(); ++i)
    if (page[i] != 0) return false;
  return true;
}

}  // namespace

const char* checkpoint_format_name(CheckpointFormat f) noexcept {
  return f == CheckpointFormat::V2 ? "v2" : "?";
}

Checkpoint Checkpoint::capture(const sim::Simulation& s) {
  const mem::PhysMem& phys = s.memsys().phys();

  // Memory section: u64 stored-page count, then per stored page
  // { u64 page_index; u8 encoding; u32 payload_len; payload }.
  util::ByteWriter records;
  records.reserve(std::size_t(phys.size() / 16));  // guess: mostly-zero image
  std::uint64_t stored = 0;
  for (std::uint64_t i = 0, n = phys.page_count(); i < n; ++i) {
    const auto page = phys.page(i);
    if (all_zero(page)) continue;
    ++stored;
    records.put_u64(i);
    records.put_u8(kPageRaw);
    records.put_u32(std::uint32_t(page.size()));
    records.put_bytes(page);
  }

  util::ByteWriter mem_sec;
  mem_sec.reserve(records.size() + 8);
  mem_sec.put_u64(stored);
  mem_sec.put_bytes(records.bytes());

  util::ByteWriter state;
  s.serialize_machine(state);

  util::ByteWriter out;
  out.reserve(mem_sec.size() + state.size() + 64);
  out.put_u32(kMagic);
  out.put_u32(kVersion);
  out.put_u32(std::uint32_t(mem::PhysMem::kPageBytes));
  out.put_u32(0);  // flags
  out.put_u64(phys.size());
  out.put_u64(mem_sec.size());
  // CRC over the fixed prologue: mem_bytes sizes the decoded image
  // allocation, so it must be validated *before* it is trusted — a bit flip
  // there would otherwise request an absurd allocation instead of a clean
  // DeserializeError.
  out.put_u32(util::crc32(out.bytes()));
  out.put_bytes(mem_sec.bytes());
  out.put_u32(util::crc32(mem_sec.bytes()));
  out.put_u64(state.size());
  out.put_bytes(state.bytes());
  out.put_u32(util::crc32(state.bytes()));
  return Checkpoint::from_bytes(out.take());
}

Checkpoint Checkpoint::from_bytes(std::vector<std::uint8_t> bytes) {
  Checkpoint c;
  c.blob_ = std::move(bytes);
  return c;
}

// --- CheckpointImage -------------------------------------------------------

CheckpointImage CheckpointImage::parse(const Checkpoint& c) {
  CheckpointImage img;
  img.stats_.encoded_bytes = c.size_bytes();

  // The prologue CRC is checked before mem_bytes or mem_len is trusted, so
  // a damaged size field fails cleanly instead of driving a huge allocation.
  util::ByteReader r(c.bytes());
  if (r.get_u32() != kMagic) throw util::DeserializeError("bad checkpoint magic");
  if (r.get_u32() != kVersion)
    throw util::DeserializeError("unsupported checkpoint version");
  if (r.get_u32() != mem::PhysMem::kPageBytes)
    throw util::DeserializeError("unsupported checkpoint page size");
  (void)r.get_u32();  // flags: written as 0, carries nothing
  const std::uint64_t mem_bytes = r.get_u64();
  const std::uint64_t mem_len = r.get_u64();
  if (util::crc32(std::span(c.bytes()).first(kPrologueBytes)) != r.get_u32())
    throw util::DeserializeError("checkpoint header CRC mismatch");
  const auto mem_sec = r.get_span(std::size_t(mem_len));
  if (util::crc32(mem_sec) != r.get_u32())
    throw util::DeserializeError("checkpoint memory section CRC mismatch");
  const std::uint64_t state_len = r.get_u64();
  const auto state_sec = r.get_span(std::size_t(state_len));
  if (util::crc32(state_sec) != r.get_u32())
    throw util::DeserializeError("checkpoint state section CRC mismatch");
  if (!r.at_end()) throw util::DeserializeError("trailing bytes after checkpoint");

  const std::uint64_t pages_total =
      (mem_bytes + mem::PhysMem::kPageBytes - 1) / mem::PhysMem::kPageBytes;
  img.mem_.assign(std::size_t(mem_bytes), 0);
  util::ByteReader mr(mem_sec);
  const std::uint64_t stored = mr.get_u64();
  for (std::uint64_t k = 0; k < stored; ++k) {
    const std::uint64_t pi = mr.get_u64();
    if (pi >= pages_total) throw util::DeserializeError("checkpoint page index out of range");
    const std::uint8_t enc = mr.get_u8();
    const std::uint32_t plen = mr.get_u32();
    const auto payload = mr.get_span(plen);
    const std::uint64_t base = pi << mem::PhysMem::kPageShift;
    const std::size_t page_len =
        std::size_t(std::min<std::uint64_t>(mem::PhysMem::kPageBytes, mem_bytes - base));
    if (enc != kPageRaw) throw util::DeserializeError("unknown checkpoint page encoding");
    if (plen != page_len) throw util::DeserializeError("checkpoint raw page length mismatch");
    std::memcpy(img.mem_.data() + base, payload.data(), page_len);
  }
  if (!mr.at_end()) throw util::DeserializeError("trailing bytes in checkpoint memory section");

  img.state_.assign(state_sec.begin(), state_sec.end());
  img.stats_.raw_bytes = mem_bytes + state_len;
  img.stats_.mem_bytes = mem_bytes;
  img.stats_.pages_total = pages_total;
  img.stats_.pages_stored = stored;
  return img;
}

std::uint64_t CheckpointImage::restore_into(sim::Simulation& s) const {
  s.memsys().phys().copy_from(mem_);  // clears the dirty bitmap
  restore_machine(s);
  return stats_.pages_total;
}

std::uint64_t CheckpointImage::restore_dirty_into(sim::Simulation& s) const {
  mem::PhysMem& phys = s.memsys().phys();
  if (phys.size() != mem_.size())
    throw util::DeserializeError("checkpoint memory size mismatch");
  const auto raw = phys.raw();
  const auto words = phys.dirty_words();
  std::uint64_t copied = 0;
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    std::uint64_t w = words[wi];
    while (w != 0) {
      const unsigned bit = unsigned(std::countr_zero(w));
      w &= w - 1;
      const std::uint64_t pi = (std::uint64_t(wi) << 6) | bit;
      const std::uint64_t base = pi << mem::PhysMem::kPageShift;
      const std::size_t n =
          std::size_t(std::min<std::uint64_t>(mem::PhysMem::kPageBytes, mem_.size() - base));
      std::memcpy(raw.data() + base, mem_.data() + base, n);
      phys.bump_page_versions(base, n);  // raw() bypasses mark_dirty
      ++copied;
    }
  }
  phys.clear_dirty();  // memory is the baseline image again
  restore_machine(s);
  return copied;
}

void CheckpointImage::restore_machine(sim::Simulation& s) const {
  util::ByteReader r(state_);
  s.deserialize_machine(r);
  if (!r.at_end())
    throw util::DeserializeError("trailing bytes in checkpoint machine state");
}

}  // namespace gemfi::chkpt
