// Tests for the common substrate: Status/Result, byte serialization, RNG.

#include <set>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::OK());
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kDataLoss}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fail_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_EQ(fail_through().code(), StatusCode::kNotFound);
  auto pass_through = []() -> Status {
    DTREE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(pass_through().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::OutOfRange("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(BytesTest, RoundTripAllWidths) {
  ByteWriter w;
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutF32(3.25f);  // binary32 0x40500000
  w.PutF32(-1e-8f);  // binary32 0xb22bcc77
  const std::vector<uint8_t> want = {0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde,
                                     0x00, 0x00, 0x50, 0x40, 0x77, 0xcc,
                                     0x2b, 0xb2};
  EXPECT_EQ(w.bytes(), want);
}

TEST(BytesTest, LittleEndianLayout) {
  ByteWriter w;
  w.PutU16(0x0102);
  w.PutU32(0x03040506u);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x02);
  EXPECT_EQ(b[1], 0x01);
  EXPECT_EQ(b[2], 0x06);
  EXPECT_EQ(b[5], 0x03);
}

TEST(BytesTest, CheckedU16NarrowingAtTheBoundary) {
  ByteWriter w;
  EXPECT_TRUE(w.PutU16Checked(0, "zero").ok());
  EXPECT_TRUE(w.PutU16Checked(0xffff, "max").ok());  // largest value that fits
  EXPECT_EQ(w.size(), 4u);
  // One past the boundary: rejected and nothing written — the old bare
  // static_cast would have silently truncated 0x10000 to 0.
  const Status s = w.PutU16Checked(0x10000, "node id");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("node id"), std::string::npos);
  const std::vector<uint8_t> want = {0x00, 0x00, 0xff, 0xff};
  EXPECT_EQ(w.bytes(), want);
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC check value: crc32("123456789") == 0xcbf43926.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check, sizeof(check)), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const std::vector<uint8_t> zeros(4, 0);
  EXPECT_EQ(Crc32(zeros), 0x2144df1cu);  // crc32 of four zero bytes
  // Any single-byte change must alter the checksum.
  std::vector<uint8_t> tweaked = zeros;
  tweaked[2] = 1;
  EXPECT_NE(Crc32(tweaked), Crc32(zeros));
}

TEST(RngTest, MixStreamDecorrelatesAdjacentStreams) {
  // Adjacent (seed, stream) pairs must land far apart; equal inputs agree.
  EXPECT_EQ(Rng::MixStream(42, 7), Rng::MixStream(42, 7));
  std::set<uint64_t> keys;
  for (uint64_t s = 0; s < 100; ++s) {
    keys.insert(Rng::MixStream(42, s));
    keys.insert(Rng::MixStream(43, s));
  }
  EXPECT_EQ(keys.size(), 200u);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(9), b(9), c(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  }
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) != c.UniformInt(0, 1 << 30)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
    const int64_t k = rng.UniformInt(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(12);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  EXPECT_EQ(std::set<int>(v.begin(), v.end()).size(), 50u);
}

}  // namespace
}  // namespace dtree
