#include "util/bytesio.hpp"

#include <array>
#include <cstring>

namespace gemfi::util {

namespace {
// Slice-by-8 CRC-32 (polynomial 0xEDB88320): checkpoints carry multi-MiB
// memory images, so the integrity pass must run at memory speed, not at
// one table lookup per byte.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (unsigned t = 1; t < 8; ++t)
      tables[t][i] = tables[0][tables[t - 1][i] & 0xffu] ^ (tables[t - 1][i] >> 8);
  return tables;
}
}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const auto tables = make_crc_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
        tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
        tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = tables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::put_blob(std::span<const std::uint8_t> data) {
  put_u64(data.size());
  put_bytes(data);
}

void ByteWriter::put_string(const std::string& s) {
  put_blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) throw DeserializeError("checkpoint stream truncated");
}

void ByteReader::get_bytes(std::span<std::uint8_t> out) {
  need(out.size());
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

std::vector<std::uint8_t> ByteReader::get_blob() {
  const std::uint64_t n = get_u64();
  need(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::get_string() {
  const auto blob = get_blob();
  return std::string(blob.begin(), blob.end());
}

}  // namespace gemfi::util
