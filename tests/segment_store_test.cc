#include "segment/segment_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "startree/star_tree.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using test::BuildAnalyticsSegment;
using test::RunPql;

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pinot_segment_store_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SegmentStoreTest, SaveLoadRoundTrip) {
  SegmentBuildConfig config;
  config.sort_columns = {"memberId"};
  config.inverted_index_columns = {"browser"};
  config.star_tree.dimensions = {"country", "browser"};
  config.star_tree.metrics = {"impressions"};
  config.star_tree.max_leaf_records = 1;
  auto segment = BuildAnalyticsSegment(config);

  ASSERT_TRUE(SaveSegmentToDirectory(*segment, dir_.string()).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ / "metadata.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "index.bin"));

  auto loaded = LoadSegmentFromDirectory(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_docs(), 12u);
  EXPECT_EQ((*loaded)->metadata().sorted_column, "memberId");
  EXPECT_NE((*loaded)->GetColumn("browser")->inverted_index(), nullptr);
  EXPECT_NE((*loaded)->GetColumn("memberId")->sorted_index(), nullptr);
  ASSERT_NE((*loaded)->star_tree(), nullptr);
  EXPECT_EQ((*loaded)->star_tree()->num_records(),
            segment->star_tree()->num_records());

  // Query equivalence against the in-memory original.
  for (const char* pql : {
           "SELECT sum(impressions) FROM analytics WHERE country = 'us'",
           "SELECT count(*) FROM analytics WHERE tags = 'a'",
           "SELECT sum(clicks) FROM analytics GROUP BY browser TOP 10",
       }) {
    auto a = RunPql(*loaded, pql);
    auto b = RunPql(segment, pql);
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << pql;
    for (size_t i = 0; i < a.aggregates.size(); ++i) {
      EXPECT_EQ(ValueToString(a.aggregates[i]), ValueToString(b.aggregates[i]))
          << pql;
    }
    EXPECT_EQ(a.group_rows.size(), b.group_rows.size()) << pql;
  }
}

TEST_F(SegmentStoreTest, AppendInvertedIndexIsAppendOnly) {
  auto segment = BuildAnalyticsSegment();  // No indexes at all.
  ASSERT_TRUE(SaveSegmentToDirectory(*segment, dir_.string()).ok());
  const auto index_size_before =
      std::filesystem::file_size(dir_ / "index.bin");

  ASSERT_TRUE(
      AppendInvertedIndexToDirectory(dir_.string(), "browser").ok());
  // The index file only grew — nothing before the old end changed.
  const auto index_size_after =
      std::filesystem::file_size(dir_ / "index.bin");
  EXPECT_GT(index_size_after, index_size_before);

  auto loaded = LoadSegmentFromDirectory(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ColumnReader* browser = (*loaded)->GetColumn("browser");
  ASSERT_NE(browser->inverted_index(), nullptr);
  const int firefox = browser->dictionary().IndexOfString("firefox");
  EXPECT_EQ(browser->inverted_index()->GetBitmap(firefox).Cardinality(), 5u);

  // Idempotent.
  ASSERT_TRUE(
      AppendInvertedIndexToDirectory(dir_.string(), "browser").ok());
  EXPECT_EQ(std::filesystem::file_size(dir_ / "index.bin"),
            index_size_after);
  // Unknown column rejected.
  EXPECT_FALSE(AppendInvertedIndexToDirectory(dir_.string(), "nope").ok());
}

TEST_F(SegmentStoreTest, DetectsBlockCorruption) {
  auto segment = BuildAnalyticsSegment();
  ASSERT_TRUE(SaveSegmentToDirectory(*segment, dir_.string()).ok());
  // Flip a byte in the middle of the index file.
  {
    std::fstream file(dir_ / "index.bin",
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(dir_ / "index.bin") / 2));
    char byte;
    file.read(&byte, 1);
    file.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x5a);
    file.write(&byte, 1);
  }
  auto loaded = LoadSegmentFromDirectory(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SegmentStoreTest, MissingDirectory) {
  auto loaded = LoadSegmentFromDirectory((dir_ / "nope").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SegmentStoreTest, RejectsDictIdsPastDictionary) {
  // Block CRCs are valid, but the forward index holds id 3 against a
  // two-entry dictionary; both directory-format loads must refuse it.
  auto schema = Schema::Make({FieldSpec::Dimension("k", DataType::kLong)});
  ASSERT_TRUE(schema.ok());
  SegmentMetadata metadata;
  metadata.table_name = "t";
  metadata.segment_name = "t_0";
  metadata.num_docs = 3;
  Dictionary dict = Dictionary::BuildSortedInt64({7, 8});
  ColumnStats stats;
  stats.cardinality = dict.size();
  stats.min_value = dict.MinValue();
  stats.max_value = dict.MaxValue();
  std::vector<std::unique_ptr<ImmutableSegment::Column>> columns;
  columns.push_back(std::make_unique<ImmutableSegment::Column>(
      schema->field(0), std::move(dict),
      ForwardIndex::BuildSingle({0, 3, 1}, 4), stats));
  ImmutableSegment segment(*schema, metadata, std::move(columns));
  ASSERT_TRUE(SaveSegmentToDirectory(segment, dir_.string()).ok());

  auto loaded = LoadSegmentFromDirectory(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(AppendInvertedIndexToDirectory(dir_.string(), "k").code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace pinot
