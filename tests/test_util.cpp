// Utility-layer tests: deterministic RNG, bit helpers, statistics (CIs and
// the Leveugle sample-size formula), and byte-stream serialization.
#include <gtest/gtest.h>

#include <cmath>

#include "util/bits.hpp"
#include "util/bytesio.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace gemfi::util;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(43);
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowIsUnbiasedEnoughAndInRange) {
  Rng rng(7);
  unsigned counts[10] = {};
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const unsigned c : counts) {
    EXPECT_GT(c, 9300u);
    EXPECT_LT(c, 10700u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeAndUniform) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Bits, ExtractInsertSignExtend) {
  EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
  EXPECT_EQ(insert_bits(0xFFFF, 4, 8, 0x12), 0xF12Fu);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0xFFFFF, 21), std::int64_t(0xFFFFF));
  EXPECT_EQ(sign_extend(0x1FFFFF, 21), -1);
  EXPECT_EQ(flip_bit(0, 63), 0x8000000000000000ull);
  EXPECT_EQ(flip_bit(1, 64), 1u);  // out-of-range flips are no-ops
  EXPECT_TRUE(get_bit(8, 3));
  EXPECT_FALSE(get_bit(8, 2));
}

TEST(Stats, SummaryAndConfidence) {
  const double xs[] = {2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
  const double hw = ci_half_width(s, 0.95);
  EXPECT_NEAR(hw, 2.3645 * 2.138 / std::sqrt(8.0), 0.02);

  EXPECT_EQ(summarize({}).count, 0u);
  EXPECT_EQ(ci_half_width(summarize({}), 0.95), 0.0);
}

TEST(Stats, CriticalValues) {
  EXPECT_NEAR(normal_critical(0.95), 1.95996, 1e-3);
  EXPECT_NEAR(normal_critical(0.99), 2.57583, 1e-3);
  EXPECT_NEAR(student_t_critical(1, 0.95), 12.706, 1e-2);
  EXPECT_NEAR(student_t_critical(10, 0.95), 2.228, 0.02);
  EXPECT_NEAR(student_t_critical(30, 0.95), 2.042, 0.01);
  EXPECT_NEAR(student_t_critical(1000, 0.95), 1.962, 0.005);
}

TEST(Stats, PercentOverhead) {
  EXPECT_NEAR(percent_overhead(103.3, 100.0), 3.3, 1e-9);
  EXPECT_NEAR(percent_overhead(99.9, 100.0), -0.1, 1e-9);
  EXPECT_DOUBLE_EQ(percent_overhead(1.0, 0.0), 0.0);
}

TEST(BytesIo, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.14159);
  w.put_bool(true);
  w.put_string("gemfi");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "gemfi");
  EXPECT_TRUE(r.at_end());
}

TEST(BytesIo, GetSpanConsumesAndValidates) {
  ByteWriter w;
  w.put_u32(0xdeadbeef);
  w.put_u32(0x11223344);
  ByteReader r(w.bytes());
  const auto s = r.get_span(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 0xef);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_THROW((void)r.get_span(5), DeserializeError);
  (void)r.get_span(4);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesIo, TruncationThrows) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  (void)r.get_u16();
  (void)r.get_u16();
  EXPECT_THROW((void)r.get_u8(), DeserializeError);

  ByteWriter w2;
  w2.put_u64(1000);  // blob length way beyond the stream
  ByteReader r2(w2.bytes());
  EXPECT_THROW((void)r2.get_blob(), DeserializeError);
}

TEST(BytesIo, Crc32KnownVectors) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);  // standard CRC-32 check value
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(BytesIo, BlobRoundTrip) {
  ByteWriter w;
  std::vector<std::uint8_t> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = std::uint8_t(i * 7);
  w.put_blob(payload);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_blob(), payload);
}

}  // namespace
