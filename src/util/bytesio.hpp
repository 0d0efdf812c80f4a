// Little-endian byte stream writer/reader shared by the checkpoint, the
// machine-state serializers and the NoW wire and control messages.
//
// The paper checkpoints the whole simulator process via DMTCP; our substitute
// serializes the simulation object graph through these primitives. The format
// is deliberately simple (fixed-width little-endian scalars, length-prefixed
// blobs, raw byte runs) with no compression; a CRC32 over each section lets a
// truncated or corrupted checkpoint be detected when it is parsed instead of
// silently desynchronizing a campaign.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace gemfi::util {

/// Thrown by ByteReader on malformed input (truncation, bad magic, bad CRC).
class DeserializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

// The stream format is little-endian; on little-endian hosts (the only kind
// we target; enforced here) scalars can be appended with a plain memcpy.
static_assert(std::endian::native == std::endian::little,
              "gemfi checkpoint streams require a little-endian host");

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(n); }
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { append_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { append_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { append_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { append_raw(&v, sizeof v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed blob.
  void put_blob(std::span<const std::uint8_t> data);
  void put_string(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  // resize + memcpy rather than insert: GCC 12 at -O3 reports false
  // -Wstringop-overflow/-Warray-bounds on the inlined range insert.
  void append_raw(const void* p, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t get_u8() { return read_raw<std::uint8_t>(); }
  std::uint16_t get_u16() { return read_raw<std::uint16_t>(); }
  std::uint32_t get_u32() { return read_raw<std::uint32_t>(); }
  std::uint64_t get_u64() { return read_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return read_raw<double>(); }
  bool get_bool() { return get_u8() != 0; }
  void get_bytes(std::span<std::uint8_t> out);
  std::vector<std::uint8_t> get_blob();
  std::string get_string();
  /// Consume n bytes and return a view into the underlying buffer (valid as
  /// long as the buffer the reader was constructed over lives).
  std::span<const std::uint8_t> get_span(std::size_t n) {
    need(n);
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t n) const;

  template <typename T>
  T read_raw() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace gemfi::util
