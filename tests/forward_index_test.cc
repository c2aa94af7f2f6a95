#include "segment/forward_index.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"

namespace pinot {
namespace {

TEST(FixedBitVectorTest, BitsFor) {
  EXPECT_EQ(FixedBitVector::BitsFor(0), 0);
  EXPECT_EQ(FixedBitVector::BitsFor(1), 1);
  EXPECT_EQ(FixedBitVector::BitsFor(2), 2);
  EXPECT_EQ(FixedBitVector::BitsFor(3), 2);
  EXPECT_EQ(FixedBitVector::BitsFor(255), 8);
  EXPECT_EQ(FixedBitVector::BitsFor(256), 9);
  EXPECT_EQ(FixedBitVector::BitsFor(0xffffffff), 32);
}

TEST(FixedBitVectorTest, ZeroWidthAllZeros) {
  FixedBitVector v({0, 0, 0}, 0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.bits(), 0);
  EXPECT_EQ(v.Get(1), 0u);
  EXPECT_EQ(v.SizeInBytes(), 0u);
}

TEST(FixedBitVectorTest, PackUnpackVariousWidths) {
  for (uint32_t max_value : {1u, 3u, 7u, 100u, 4095u, 1000000u, 0xffffffffu}) {
    Random rng(max_value);
    std::vector<uint32_t> values;
    for (int i = 0; i < 1000; ++i) {
      values.push_back(static_cast<uint32_t>(
          rng.NextUint64(static_cast<uint64_t>(max_value) + 1)));
    }
    FixedBitVector v(values, max_value);
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(v.Get(static_cast<uint32_t>(i)), values[i])
          << "max_value=" << max_value << " i=" << i;
    }
  }
}

TEST(FixedBitVectorTest, ValuesSpanningWordBoundaries) {
  // Width 31 forces many cross-word values.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 100; ++i) values.push_back((1u << 30) + i);
  FixedBitVector v(values, (1u << 31) - 1);
  EXPECT_EQ(v.bits(), 31);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(v.Get(i), (1u << 30) + i);
}

TEST(FixedBitVectorTest, SerializeRoundTrip) {
  std::vector<uint32_t> values = {5, 0, 9, 3, 7};
  FixedBitVector v(values, 9);
  ByteWriter writer;
  v.Serialize(&writer);
  ByteReader reader(writer.buffer());
  auto restored = FixedBitVector::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(restored->Get(static_cast<uint32_t>(i)), values[i]);
  }
}

TEST(FixedBitVectorTest, GetBatchMatchesGetAcrossWidths) {
  for (int bits = 0; bits <= 32; ++bits) {
    const uint32_t max_value =
        bits == 0 ? 0
                  : (bits == 32 ? 0xffffffffu : (1u << bits) - 1);
    Random rng(100 + bits);
    // Odd element count so batches straddle word boundaries for every
    // width.
    const uint32_t n = 777 + static_cast<uint32_t>(bits);
    std::vector<uint32_t> values;
    values.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      values.push_back(static_cast<uint32_t>(
          rng.NextUint64(static_cast<uint64_t>(max_value) + 1)));
    }
    FixedBitVector v(values, max_value);
    std::vector<uint32_t> out(n, 0xdeadbeef);

    // Full decode.
    v.GetBatch(0, n, out.data());
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], values[i]) << "bits=" << bits << " i=" << i;
    }

    // Random (start, count) windows, including odd offsets and zero-length
    // batches.
    for (int t = 0; t < 64; ++t) {
      const uint32_t start = static_cast<uint32_t>(rng.NextUint64(n + 1));
      const uint32_t count =
          static_cast<uint32_t>(rng.NextUint64(n - start + 1));
      std::fill(out.begin(), out.end(), 0xdeadbeef);
      v.GetBatch(start, count, out.data());
      for (uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], v.Get(start + i))
            << "bits=" << bits << " start=" << start << " count=" << count
            << " i=" << i;
      }
    }
  }
}

TEST(FixedBitVectorTest, DeserializeRejectsWordCountMismatch) {
  FixedBitVector v({1, 2, 3, 4, 5}, 5);
  ByteWriter writer;
  v.Serialize(&writer);
  // Layout: u32 size, u32 bits, u64 num_words, raw words. Inflate the word
  // count field.
  std::string corrupt = writer.buffer();
  uint64_t bogus_words = 12345;
  std::memcpy(corrupt.data() + 8, &bogus_words, sizeof(bogus_words));
  ByteReader reader(corrupt);
  auto restored = FixedBitVector::Deserialize(&reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(FixedBitVectorTest, DeserializeRejectsHugeWordCountWithoutAllocating) {
  // A hand-built header claiming 2^60 words must be rejected up front
  // (validation happens before the resize).
  ByteWriter writer;
  writer.WriteU32(4);                    // size
  writer.WriteU32(8);                    // bits
  writer.WriteU64(uint64_t{1} << 60);    // num_words
  ByteReader reader(writer.buffer());
  auto restored = FixedBitVector::Deserialize(&reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(ForwardIndexTest, GetRangeSingleMatchesGet) {
  Random rng(7);
  std::vector<uint32_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(static_cast<uint32_t>(rng.NextUint64(300)));
  }
  ForwardIndex index = ForwardIndex::BuildSingle(ids, 300);
  std::vector<uint32_t> out(1000);
  index.GetRangeSingle(123, 500, out.data());
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_EQ(out[i], index.Get(123 + i));
  }
}

TEST(ForwardIndexTest, DeserializeRejectsDocCountMismatch) {
  ForwardIndex index = ForwardIndex::BuildSingle({2, 0, 1, 2}, 3);
  ByteWriter writer;
  index.Serialize(&writer);
  // Layout: u8 single_value, u32 num_docs, values. Claim more docs than
  // the packed vector holds.
  std::string corrupt = writer.buffer();
  uint32_t bogus_docs = 400;
  std::memcpy(corrupt.data() + 1, &bogus_docs, sizeof(bogus_docs));
  ByteReader reader(corrupt);
  auto restored = ForwardIndex::Deserialize(&reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(ForwardIndexTest, DeserializeRejectsDecreasingOffsets) {
  // Multi-value layout: u8 single_value, u32 num_docs, values, offsets.
  // Offsets {0, 5, 3} end at the value count (3) but doc 0 would read
  // entries [0, 5) of a 3-entry vector.
  ByteWriter writer;
  writer.WriteU8(0);
  writer.WriteU32(2);
  FixedBitVector({0, 1, 2}, 2).Serialize(&writer);
  FixedBitVector({0, 5, 3}, 5).Serialize(&writer);
  ByteReader reader(writer.buffer());
  auto restored = ForwardIndex::Deserialize(&reader);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(ForwardIndexTest, ValidateDictIdsChecksEveryEntry) {
  // Ids must be below the dictionary size, for every multi-value entry
  // too; an empty index is valid against any dictionary.
  const ForwardIndex single = ForwardIndex::BuildSingle({0, 3, 1}, 4);
  EXPECT_TRUE(single.ValidateDictIds(4).ok());
  EXPECT_EQ(single.ValidateDictIds(3).code(), StatusCode::kCorruption);
  const ForwardIndex multi = ForwardIndex::BuildMulti({{0}, {}, {1, 5}}, 6);
  EXPECT_TRUE(multi.ValidateDictIds(6).ok());
  EXPECT_EQ(multi.ValidateDictIds(5).code(), StatusCode::kCorruption);
  EXPECT_TRUE(ForwardIndex::BuildSingle({}, 0).ValidateDictIds(0).ok());
}

TEST(ForwardIndexTest, SingleValue) {
  ForwardIndex index = ForwardIndex::BuildSingle({2, 0, 1, 2}, 3);
  EXPECT_TRUE(index.single_value());
  EXPECT_EQ(index.num_docs(), 4u);
  EXPECT_EQ(index.Get(0), 2u);
  EXPECT_EQ(index.Get(1), 0u);
  EXPECT_EQ(index.Get(3), 2u);
}

TEST(ForwardIndexTest, MultiValue) {
  ForwardIndex index =
      ForwardIndex::BuildMulti({{0, 1}, {}, {2}, {1, 1, 0}}, 3);
  EXPECT_FALSE(index.single_value());
  EXPECT_EQ(index.num_docs(), 4u);
  std::vector<uint32_t> out;
  index.GetMulti(0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
  index.GetMulti(1, &out);
  EXPECT_TRUE(out.empty());
  index.GetMulti(3, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 1, 0}));
  EXPECT_EQ(index.TotalEntries(), 6u);
}

TEST(ForwardIndexTest, SerializeRoundTripMulti) {
  ForwardIndex index = ForwardIndex::BuildMulti({{0}, {1, 2}, {}}, 3);
  ByteWriter writer;
  index.Serialize(&writer);
  ByteReader reader(writer.buffer());
  auto restored = ForwardIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  std::vector<uint32_t> out;
  restored->GetMulti(1, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));
}

TEST(ForwardIndexTest, CardinalityOneUsesZeroBits) {
  ForwardIndex index = ForwardIndex::BuildSingle({0, 0, 0, 0}, 1);
  EXPECT_EQ(index.SizeInBytes(), 0u);
  EXPECT_EQ(index.Get(2), 0u);
}

}  // namespace
}  // namespace pinot
