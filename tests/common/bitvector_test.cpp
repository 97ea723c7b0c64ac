#include "common/bitvector.h"

#include <gtest/gtest.h>

#include "snapshot_testing.h"

#include <cstdio>
#include <string>

namespace bb {
namespace {

// The BitVector suites cover the bit-vector behaviour of one BitRow, each
// on the single row of a one-row BitMatrix.

TEST(BitVector, EmptyByDefault) {
  BitMatrix m(1, 0);
  EXPECT_EQ(m.row(0).size(), 0u);
  EXPECT_FALSE(m.row(0).any());
  BitMatrix wide(1, 100);
  EXPECT_EQ(wide.row(0).size(), 100u);
  EXPECT_FALSE(wide.row(0).any());
  EXPECT_EQ(wide.row(0).popcount(), 0u);
}

TEST(BitVector, SetAndTest) {
  BitMatrix m(1, 100);
  BitRow v = m.row(0);
  EXPECT_FALSE(v.test(0));
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(99);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(99));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, Unset) {
  BitMatrix m(1, 10);
  BitRow v = m.row(0);
  v.set(5);
  EXPECT_TRUE(v.test(5));
  v.set(5, false);
  EXPECT_FALSE(v.test(5));
  EXPECT_FALSE(v.any());
}

TEST(BitVector, SetAllRespectsSize) {
  for (std::size_t n : {1u, 31u, 32u, 63u, 64u, 65u, 127u, 128u}) {
    BitMatrix m(1, n);
    BitRow v = m.row(0);
    v.set_all();
    EXPECT_EQ(v.popcount(), n) << "size " << n;
    EXPECT_TRUE(v.all());
    v.clear_all();
    EXPECT_FALSE(v.any());
    EXPECT_FALSE(v.all());
  }
}

TEST(BitVector, AllOnEmptyIsTrue) {
  BitMatrix m(1, 0);
  EXPECT_TRUE(m.row(0).all());  // vacuous truth
  EXPECT_FALSE(m.row(0).any());
}

TEST(BitVector, Equality) {
  // Rows are equal exactly when their snapshot streams are: the stream
  // holds the width and every word.
  BitMatrix a(1, 48), b(1, 48), c(1, 47);
  a.set(0, 3);
  b.set(0, 3);
  BitRow ra = a.row(0), rb = b.row(0), rc = c.row(0);
  EXPECT_EQ(snap::testing::payload_of(ra), snap::testing::payload_of(rb));
  rb.set(4);
  EXPECT_NE(snap::testing::payload_of(ra), snap::testing::payload_of(rb));
  rc.set(3);
  EXPECT_NE(snap::testing::payload_of(ra), snap::testing::payload_of(rc));
}

TEST(BitVector, ResizeClears) {
  // A matrix built at a new width starts clear, even where a filled one
  // was just released.
  {
    BitMatrix m(1, 10);
    m.row(0).set_all();
    EXPECT_EQ(m.row(0).popcount(), 10u);
  }
  BitMatrix m(1, 20);
  EXPECT_FALSE(m.row(0).any());
  EXPECT_EQ(m.row(0).size(), 20u);
}

class BitVectorSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorSizeTest, PopcountMatchesLoop) {
  const std::size_t n = GetParam();
  BitMatrix m(1, n);
  BitRow v = m.row(0);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    v.set(i);
    ++expected;
  }
  EXPECT_EQ(v.popcount(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorSizeTest,
                         ::testing::Values(1, 2, 31, 32, 33, 48, 63, 64, 65,
                                           96, 127, 128, 1000));

TEST(BitMatrix, RowsAreIndependentAcrossWordBoundaries) {
  // 100-bit rows span two words each, so row r's high bits sit next to
  // row r+1's low bits in the packed storage.
  BitMatrix m(3, 100);
  m.set(0, 99);
  m.set(1, 0);
  m.set(1, 64);
  EXPECT_TRUE(m.test(0, 99));
  EXPECT_FALSE(m.test(0, 0));
  EXPECT_TRUE(m.test(1, 0));
  EXPECT_TRUE(m.test(1, 64));
  EXPECT_FALSE(m.test(1, 99));
  EXPECT_FALSE(m.test(2, 0));

  m.clear_row(1);
  EXPECT_FALSE(m.test(1, 0));
  EXPECT_FALSE(m.test(1, 64));
  EXPECT_TRUE(m.test(0, 99));
}

TEST(BitMatrix, CopyRowReplacesTheWholeRow) {
  BitMatrix src(2, 100);
  src.set(1, 5);
  src.set(1, 70);
  BitMatrix dst(4, 100);
  dst.set(3, 6);
  dst.copy_row(3, src, 1);
  EXPECT_TRUE(dst.test(3, 5));
  EXPECT_TRUE(dst.test(3, 70));
  EXPECT_FALSE(dst.test(3, 6));
  EXPECT_FALSE(dst.test(2, 5));
}

TEST(BitMatrix, RowViewSetAllStaysInsideItsRow) {
  // 100-bit rows: set_all must trim the second word, not spill into the
  // next row.
  BitMatrix m(3, 100);
  m.row(1).set_all();
  EXPECT_EQ(m.row(1).popcount(), 100u);
  EXPECT_TRUE(m.row(1).all());
  EXPECT_FALSE(m.row(0).any());
  EXPECT_FALSE(m.row(2).any());
  m.row(1).set(99, false);
  EXPECT_FALSE(m.row(1).all());
  m.row(1).clear_all();
  EXPECT_FALSE(m.row(1).any());
}

TEST(BitMatrix, RowSnapshotMatchesWordStreamAndChecksWidth) {
  // A row writes its width, then its words low to high, and a row of
  // another width refuses to load the stream.
  BitMatrix m(2, 100);
  m.set(1, 3);
  m.set(1, 77);
  snap::Writer expected;
  expected.put_u64(100);
  expected.put_u64(u64{1} << 3);
  expected.put_u64(u64{1} << (77 - 64));
  snap::Writer from_row;
  snap::Archive save_row(from_row);
  m.row(1).serialize(save_row);
  EXPECT_EQ(from_row.payload(), expected.payload());

  const std::string path =
      std::string(::testing::TempDir()) + "/bitrow.bbsnap";
  from_row.commit(path);
  BitMatrix copy(2, 100);
  snap::Reader r(path);
  snap::Archive load_row(r);
  copy.row(0).serialize(load_row);
  EXPECT_TRUE(copy.test(0, 3));
  EXPECT_TRUE(copy.test(0, 77));
  EXPECT_EQ(copy.row(0).popcount(), 2u);

  BitMatrix narrow(1, 64);
  snap::Reader again(path);
  snap::Archive load_narrow(again);
  EXPECT_THROW(narrow.row(0).serialize(load_narrow), snap::SnapshotError);
  std::remove(path.c_str());
}

TEST(BitMatrix, SnapshotRoundTripsAndChecksShape) {
  // The whole matrix is its width and one table of words: a restore
  // reproduces every row, and a matrix of another width or row count
  // refuses the stream.
  BitMatrix m(300, 100);
  m.set(0, 0);
  m.set(150, 64);
  m.set(299, 99);
  const std::string payload = snap::testing::payload_of(m);
  BitMatrix back(300, 100);
  snap::testing::restore(payload, back);
  EXPECT_TRUE(back.test(0, 0));
  EXPECT_TRUE(back.test(150, 64));
  EXPECT_TRUE(back.test(299, 99));
  EXPECT_EQ(snap::testing::payload_of(back), payload);

  BitMatrix wider(300, 200);
  EXPECT_THROW(snap::testing::restore(payload, wider), snap::SnapshotError);
  BitMatrix taller(301, 100);
  EXPECT_THROW(snap::testing::restore(payload, taller), snap::SnapshotError);
}

TEST(BitVector, RestoreRejectsWidthPastPayload) {
  // A width the payload cannot hold words for fails closed before any
  // word of the row is overwritten.
  snap::Writer w;
  w.put_u64(u64{1} << 60);
  w.put_u64(0);
  BitMatrix m(1, 8);
  BitRow v = m.row(0);
  v.set(2);
  EXPECT_THROW(snap::testing::restore(w.payload(), v), snap::SnapshotError);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_TRUE(v.test(2));
  EXPECT_EQ(v.popcount(), 1u);
}

}  // namespace
}  // namespace bb
