// Unit + property tests for the block-level codec primitives: bitstream
// I/O, DCT, scan orders, quantisation, run-length and VLC coding.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/dct.hpp"
#include "eclipse/media/quant.hpp"
#include "eclipse/media/rle.hpp"
#include "eclipse/media/scan.hpp"
#include "eclipse/media/vlc.hpp"
#include "eclipse/sim/prng.hpp"

namespace {

using namespace eclipse::media;
using eclipse::sim::Prng;

// -------------------------------------------------------------- bitstream

TEST(Bitstream, BitRoundTrip) {
  BitWriter bw;
  bw.put(0b1011, 4);
  bw.put(0x3FF, 10);
  bw.putBit(1);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get(4), 0b1011u);
  EXPECT_EQ(br.get(10), 0x3FFu);
  EXPECT_EQ(br.getBit(), 1u);
}

TEST(Bitstream, AlignPadsWithZeros) {
  BitWriter bw;
  bw.put(0b101, 3);
  bw.align();
  bw.put(0xAB, 8);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0b10100000);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(Bitstream, ReadPastEndThrows) {
  const std::vector<std::uint8_t> one{0xFF};
  BitReader br(one);
  (void)br.get(8);
  EXPECT_THROW((void)br.getBit(), BitstreamError);
}

TEST(Bitstream, DrainFullBytesKeepsPartial) {
  BitWriter bw;
  bw.put(0xAB, 8);
  bw.put(0b110, 3);  // partial byte stays behind
  const auto drained = bw.drainFullBytes();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], 0xAB);
  bw.put(0b01010, 5);
  const auto rest = bw.finish();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 0b11001010);
}

class ExpGolombRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExpGolombRoundTrip, Unsigned) {
  const std::uint32_t v = GetParam();
  BitWriter bw;
  bw.putUe(v);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.getUe(), v);
}

TEST_P(ExpGolombRoundTrip, SignedBothPolarities) {
  const auto v = static_cast<std::int32_t>(GetParam());
  for (const std::int32_t s : {v, -v}) {
    BitWriter bw;
    bw.putSe(s);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    EXPECT_EQ(br.getSe(), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, ExpGolombRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 100u, 255u, 1023u, 65535u,
                                           1000000u));

TEST(Bitstream, ExpGolombSequenceProperty) {
  Prng rng(5);
  BitWriter bw;
  std::vector<std::uint32_t> vals;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.below(1 << 16));
    vals.push_back(v);
    bw.putUe(v);
  }
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (const auto v : vals) ASSERT_EQ(br.getUe(), v);
}

// ------------------------------------------------------------------- DCT

Block randomBlock(Prng& rng, int amplitude) {
  Block b;
  for (auto& v : b) v = static_cast<std::int16_t>(rng.range(-amplitude, amplitude));
  return b;
}

TEST(Dct, RoundTripAccuracy) {
  Prng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const Block in = randomBlock(rng, 255);
    Block coefs, back;
    dct::forward(in, coefs);
    dct::inverse(coefs, back);
    for (int i = 0; i < 64; ++i) {
      ASSERT_NEAR(in[static_cast<std::size_t>(i)], back[static_cast<std::size_t>(i)], 2)
          << "trial " << trial << " index " << i;
    }
  }
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  Block in;
  in.fill(100);
  Block coefs;
  dct::forward(in, coefs);
  // DC = 8 * value for the orthonormal-ish scaling used (alpha/2 per dim).
  EXPECT_NEAR(coefs[0], 800, 2);
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coefs[static_cast<std::size_t>(i)], 0, 1);
}

TEST(Dct, Linearity) {
  Prng rng(2);
  const Block a = randomBlock(rng, 100);
  const Block b = randomBlock(rng, 100);
  Block sum;
  for (int i = 0; i < 64; ++i) {
    sum[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)]);
  }
  Block fa, fb, fsum;
  dct::forward(a, fa);
  dct::forward(b, fb);
  dct::forward(sum, fsum);
  for (int i = 0; i < 64; ++i) {
    ASSERT_NEAR(fsum[static_cast<std::size_t>(i)],
                fa[static_cast<std::size_t>(i)] + fb[static_cast<std::size_t>(i)], 3);
  }
}

TEST(Dct, EnergyRoughlyPreserved) {
  Prng rng(3);
  const Block in = randomBlock(rng, 200);
  Block coefs;
  dct::forward(in, coefs);
  double e_in = 0, e_out = 0;
  for (int i = 0; i < 64; ++i) {
    e_in += static_cast<double>(in[static_cast<std::size_t>(i)]) * in[static_cast<std::size_t>(i)];
    e_out += static_cast<double>(coefs[static_cast<std::size_t>(i)]) * coefs[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(e_out / e_in, 1.0, 0.05);  // orthonormal transform (Parseval)
}

// ------------------------------------------------------------------ scan

class ScanOrderTest : public ::testing::TestWithParam<scan::Order> {};

TEST_P(ScanOrderTest, TableIsAPermutation) {
  const auto& t = scan::table(GetParam());
  std::set<int> seen(t.begin(), t.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
}

TEST_P(ScanOrderTest, RoundTrips) {
  Prng rng(4);
  Block in = randomBlock(rng, 1000);
  Block scanned, back;
  scan::toScan(in, scanned, GetParam());
  scan::fromScan(scanned, back, GetParam());
  EXPECT_EQ(in, back);
}

INSTANTIATE_TEST_SUITE_P(Orders, ScanOrderTest,
                         ::testing::Values(scan::Order::Zigzag, scan::Order::Alternate));

TEST(Scan, ZigzagStartsAsExpected) {
  const auto& t = scan::table(scan::Order::Zigzag);
  EXPECT_EQ(t[0], 0);
  EXPECT_EQ(t[1], 1);
  EXPECT_EQ(t[2], 8);
  EXPECT_EQ(t[63], 63);
}

// ----------------------------------------------------------------- quant

TEST(Quant, ZeroStaysZero) {
  Block in{}, levels, back;
  quant::quantize(in, levels, 8, quant::flatMatrix());
  for (const auto v : levels) EXPECT_EQ(v, 0);
  quant::dequantize(levels, back, 8, quant::flatMatrix());
  for (const auto v : back) EXPECT_EQ(v, 0);
}

class QuantRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QuantRoundTrip, ErrorBoundedByHalfStep) {
  const int qscale = GetParam();
  Prng rng(static_cast<std::uint64_t>(qscale));
  const Block in = randomBlock(rng, 2000);
  Block levels, back;
  quant::quantize(in, levels, qscale, quant::flatMatrix());
  quant::dequantize(levels, back, qscale, quant::flatMatrix());
  for (int i = 0; i < 64; ++i) {
    const int err = std::abs(in[static_cast<std::size_t>(i)] - back[static_cast<std::size_t>(i)]);
    // step = qscale for the flat matrix; levels also clamp at +-2047.
    if (std::abs(in[static_cast<std::size_t>(i)]) < 2000 * qscale) {
      ASSERT_LE(err, qscale / 2 + 1) << "qscale " << qscale << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Qscales, QuantRoundTrip, ::testing::Values(1, 2, 4, 8, 16, 31));

TEST(Quant, CoarserQscaleZeroesMore) {
  Prng rng(6);
  const Block in = randomBlock(rng, 60);
  auto zeros = [&](int q) {
    Block levels;
    quant::quantize(in, levels, q, quant::flatMatrix());
    int n = 0;
    for (const auto v : levels) n += v == 0 ? 1 : 0;
    return n;
  };
  EXPECT_LE(zeros(2), zeros(8));
  EXPECT_LE(zeros(8), zeros(31));
}

TEST(Quant, IntraMatrixWeighsHighFrequencies) {
  const auto& m = quant::defaultIntraMatrix();
  EXPECT_LT(m[0], m[63]);  // DC quantised finer than the highest frequency
}

TEST(Quant, RejectsBadQscale) {
  Block in{}, out;
  EXPECT_THROW(quant::quantize(in, out, 0, quant::flatMatrix()), std::invalid_argument);
  EXPECT_THROW(quant::dequantize(in, out, 32, quant::flatMatrix()), std::invalid_argument);
}

TEST(Quant, LevelsClampAt2047) {
  Block in;
  in.fill(32767);
  Block levels;
  quant::quantize(in, levels, 1, quant::flatMatrix());
  for (const auto v : levels) EXPECT_EQ(v, 2047);
}

// ------------------------------------------------------------------- RLE

TEST(Rle, EmptyBlockHasNoPairs) {
  Block scanned{};
  EXPECT_TRUE(rle::encode(scanned).empty());
}

TEST(Rle, SingleTrailingCoefficient) {
  Block scanned{};
  scanned[63] = -5;
  const auto pairs = rle::encode(scanned);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].run, 63);
  EXPECT_EQ(pairs[0].level, -5);
}

TEST(Rle, DenseBlockHasZeroRuns) {
  Block scanned;
  for (int i = 0; i < 64; ++i) scanned[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(i + 1);
  const auto pairs = rle::encode(scanned);
  ASSERT_EQ(pairs.size(), 64u);
  for (const auto& p : pairs) EXPECT_EQ(p.run, 0);
}

TEST(Rle, RoundTripProperty) {
  Prng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    Block scanned{};
    const int nz = static_cast<int>(rng.below(20));
    for (int k = 0; k < nz; ++k) {
      scanned[rng.below(64)] = static_cast<std::int16_t>(rng.range(-500, 500));
    }
    const auto pairs = rle::encode(scanned);
    Block back;
    rle::decode(pairs, back);
    ASSERT_EQ(scanned, back) << "trial " << trial;
  }
}

TEST(Rle, OverflowingPairsThrow) {
  // A block holds at most 64 pairs: a 65th is malformed data.
  rle::RunLevels full;
  for (int i = 0; i < 64; ++i) full.push_back(rle::RunLevel{0, 1});
  EXPECT_THROW(full.push_back(rle::RunLevel{0, 1}), std::runtime_error);
  EXPECT_EQ(full.size(), 64u);
  // Fewer pairs whose runs walk past coefficient 63 overflow on decode.
  rle::RunLevels pairs;
  for (int i = 0; i < 33; ++i) pairs.push_back(rle::RunLevel{1, 1});
  Block out;
  EXPECT_THROW(rle::decode(pairs, out), std::runtime_error);
}

// ------------------------------------------------------------------- VLC

TEST(Vlc, EobOnlyBlock) {
  BitWriter bw;
  vlc::putBlock(bw, {});
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_TRUE(vlc::getBlock(br).empty());
}

TEST(Vlc, CommonPairsAreShort) {
  const rle::RunLevel common{1, -3};
  const rle::RunLevel rare{40, 900};
  EXPECT_EQ(vlc::pairBits(common), 6);
  EXPECT_GT(vlc::pairBits(rare), 20);
}

TEST(Vlc, PairBitsMatchesActualEncoding) {
  Prng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    rle::RunLevel p;
    p.run = static_cast<std::uint8_t>(rng.below(64));
    p.level = static_cast<std::int16_t>(rng.range(1, 2000) * (rng.chance(0.5) ? 1 : -1));
    BitWriter bw;
    vlc::putBlock(bw, {p});
    EXPECT_EQ(static_cast<int>(bw.bitCount()), vlc::pairBits(p) + vlc::kEobBits);
  }
}

TEST(Vlc, RoundTripProperty) {
  Prng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    rle::RunLevels pairs;
    const int n = static_cast<int>(rng.below(30));
    int total_run = 0;
    for (int k = 0; k < n && total_run < 63; ++k) {
      rle::RunLevel p;
      p.run = static_cast<std::uint8_t>(rng.below(4));
      p.level = static_cast<std::int16_t>(rng.range(1, 300) * (rng.chance(0.5) ? 1 : -1));
      total_run += p.run + 1;
      pairs.push_back(p);
    }
    BitWriter bw;
    vlc::putBlock(bw, pairs);
    const auto bytes = bw.finish();
    BitReader br(bytes);
    EXPECT_EQ(vlc::getBlock(br), pairs) << "trial " << trial;
  }
}

TEST(Vlc, TruncatedStreamThrows) {
  BitWriter bw;
  vlc::putBlock(bw, {rle::RunLevel{10, 500}});
  auto bytes = bw.finish();
  bytes.resize(bytes.size() / 2);
  BitReader br(bytes);
  EXPECT_THROW((void)vlc::getBlock(br), BitstreamError);
}

}  // namespace
