#include "segment/segment.h"

#include <gtest/gtest.h>

#include "segment/segment_builder.h"
#include "startree/star_tree.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using test::AnalyticsRows;
using test::AnalyticsSchema;
using test::BuildAnalyticsSegment;

TEST(SegmentBuilderTest, BasicBuild) {
  auto segment = BuildAnalyticsSegment();
  EXPECT_EQ(segment->num_docs(), 12u);
  EXPECT_EQ(segment->metadata().table_name, "analytics");
  EXPECT_EQ(segment->metadata().min_time, 100);
  EXPECT_EQ(segment->metadata().max_time, 103);

  const ColumnReader* country = segment->GetColumn("country");
  ASSERT_NE(country, nullptr);
  EXPECT_EQ(country->stats().cardinality, 4);  // us, ca, de, fr
  EXPECT_EQ(std::get<std::string>(country->stats().min_value), "ca");
  EXPECT_EQ(std::get<std::string>(country->stats().max_value), "us");
  EXPECT_EQ(country->inverted_index(), nullptr);
  EXPECT_EQ(country->sorted_index(), nullptr);
}

TEST(SegmentBuilderTest, SortColumnProducesSortedIndex) {
  SegmentBuildConfig config;
  config.sort_columns = {"memberId"};
  auto segment = BuildAnalyticsSegment(config);
  const ColumnReader* member = segment->GetColumn("memberId");
  ASSERT_NE(member, nullptr);
  EXPECT_TRUE(member->stats().is_sorted);
  ASSERT_NE(member->sorted_index(), nullptr);
  EXPECT_EQ(segment->metadata().sorted_column, "memberId");

  // memberId 1 appears 4 times; docs must be contiguous at the front.
  uint32_t begin, end;
  const int id1 = member->dictionary().IndexOfInt64(1);
  member->sorted_index()->GetDocRange(id1, &begin, &end);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 4u);
  for (uint32_t doc = 0; doc + 1 < segment->num_docs(); ++doc) {
    EXPECT_LE(member->GetDictId(doc), member->GetDictId(doc + 1));
  }
}

TEST(SegmentBuilderTest, SecondarySortColumn) {
  SegmentBuildConfig config;
  config.sort_columns = {"memberId", "day"};
  auto segment = BuildAnalyticsSegment(config);
  const ColumnReader* member = segment->GetColumn("memberId");
  const ColumnReader* day = segment->GetColumn("day");
  // Within each memberId run, day is non-decreasing.
  for (uint32_t doc = 1; doc < segment->num_docs(); ++doc) {
    if (member->GetDictId(doc) == member->GetDictId(doc - 1)) {
      EXPECT_LE(day->GetDictId(doc - 1), day->GetDictId(doc));
    }
  }
}

TEST(SegmentBuilderTest, InvertedIndexColumns) {
  SegmentBuildConfig config;
  config.inverted_index_columns = {"browser", "tags"};
  auto segment = BuildAnalyticsSegment(config);
  const ColumnReader* browser = segment->GetColumn("browser");
  ASSERT_NE(browser->inverted_index(), nullptr);
  const int firefox = browser->dictionary().IndexOfString("firefox");
  ASSERT_GE(firefox, 0);
  EXPECT_EQ(browser->inverted_index()->GetBitmap(firefox).Cardinality(), 5u);

  // Multi-value inverted index: tag "a" appears in 5 rows.
  const ColumnReader* tags = segment->GetColumn("tags");
  ASSERT_NE(tags->inverted_index(), nullptr);
  const int tag_a = tags->dictionary().IndexOfString("a");
  EXPECT_EQ(tags->inverted_index()->GetBitmap(tag_a).Cardinality(), 5u);
}

TEST(SegmentBuilderTest, MissingFieldsTakeDefaults) {
  SegmentBuildConfig config;
  config.table_name = "t";
  config.segment_name = "s";
  SegmentBuilder builder(AnalyticsSchema(), config);
  Row row;  // Entirely empty.
  ASSERT_TRUE(builder.AddRow(row).ok());
  auto segment = builder.Build();
  ASSERT_TRUE(segment.ok());
  const ColumnReader* country = (*segment)->GetColumn("country");
  EXPECT_EQ(std::get<std::string>(
                country->dictionary().ValueAt(country->GetDictId(0))),
            "");
}

TEST(SegmentBuilderTest, ArityMismatchRejected) {
  SegmentBuildConfig config;
  config.table_name = "t";
  config.segment_name = "s";
  SegmentBuilder builder(AnalyticsSchema(), config);
  Row row;
  row.SetString("tags", "not-an-array");
  EXPECT_FALSE(builder.AddRow(row).ok());
  Row row2;
  row2.SetStringArray("country", {"x"});
  EXPECT_FALSE(builder.AddRow(row2).ok());
}

TEST(SegmentBuilderTest, UnknownSortColumnRejected) {
  SegmentBuildConfig config;
  config.table_name = "t";
  config.segment_name = "s";
  config.sort_columns = {"nope"};
  SegmentBuilder builder(AnalyticsSchema(), config);
  ASSERT_TRUE(builder.AddRow(test::ToRow(AnalyticsRows()[0])).ok());
  EXPECT_FALSE(builder.Build().ok());
}

TEST(SegmentTest, CreateInvertedIndexOnDemand) {
  auto segment = BuildAnalyticsSegment();
  EXPECT_EQ(segment->GetColumn("browser")->inverted_index(), nullptr);
  ASSERT_TRUE(segment->CreateInvertedIndex("browser").ok());
  ASSERT_NE(segment->GetColumn("browser")->inverted_index(), nullptr);
  // Idempotent.
  ASSERT_TRUE(segment->CreateInvertedIndex("browser").ok());
  EXPECT_FALSE(segment->CreateInvertedIndex("nope").ok());
}

TEST(SegmentTest, AddDefaultColumnForSchemaEvolution) {
  auto segment = BuildAnalyticsSegment();
  FieldSpec new_column = FieldSpec::Dimension("platform", DataType::kString);
  new_column.default_value = std::string("web");
  ASSERT_TRUE(segment->AddDefaultColumn(new_column).ok());
  const ColumnReader* platform = segment->GetColumn("platform");
  ASSERT_NE(platform, nullptr);
  EXPECT_EQ(platform->stats().cardinality, 1);
  for (uint32_t doc = 0; doc < segment->num_docs(); ++doc) {
    EXPECT_EQ(std::get<std::string>(
                  platform->dictionary().ValueAt(platform->GetDictId(doc))),
              "web");
  }
  // Re-adding fails.
  EXPECT_FALSE(segment->AddDefaultColumn(new_column).ok());
}

TEST(SegmentTest, SerializeRoundTrip) {
  SegmentBuildConfig config;
  config.sort_columns = {"memberId"};
  config.inverted_index_columns = {"browser"};
  config.star_tree.dimensions = {"country", "browser"};
  config.star_tree.metrics = {"impressions"};
  config.star_tree.max_leaf_records = 1;
  auto segment = BuildAnalyticsSegment(config);
  ASSERT_NE(segment->star_tree(), nullptr);

  const std::string blob = segment->SerializeToBlob();
  auto restored = ImmutableSegment::DeserializeFromBlob(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->num_docs(), segment->num_docs());
  EXPECT_EQ((*restored)->metadata().segment_name, "analytics_0");
  EXPECT_EQ((*restored)->metadata().sorted_column, "memberId");
  EXPECT_NE((*restored)->GetColumn("browser")->inverted_index(), nullptr);
  EXPECT_NE((*restored)->GetColumn("memberId")->sorted_index(), nullptr);
  ASSERT_NE((*restored)->star_tree(), nullptr);
  EXPECT_EQ((*restored)->star_tree()->num_records(),
            segment->star_tree()->num_records());

  // Every value in every column survives the round trip.
  for (const auto& field : segment->schema().fields()) {
    const ColumnReader* a = segment->GetColumn(field.name);
    const ColumnReader* b = (*restored)->GetColumn(field.name);
    ASSERT_NE(b, nullptr);
    std::vector<uint32_t> ia, ib;
    for (uint32_t doc = 0; doc < segment->num_docs(); ++doc) {
      if (field.single_value) {
        EXPECT_EQ(ValueToString(a->dictionary().ValueAt(a->GetDictId(doc))),
                  ValueToString(b->dictionary().ValueAt(b->GetDictId(doc))));
      } else {
        a->GetDictIds(doc, &ia);
        b->GetDictIds(doc, &ib);
        ASSERT_EQ(ia.size(), ib.size());
        for (size_t i = 0; i < ia.size(); ++i) {
          EXPECT_EQ(ValueToString(a->dictionary().ValueAt(ia[i])),
                    ValueToString(b->dictionary().ValueAt(ib[i])));
        }
      }
    }
  }
}

TEST(SegmentTest, DeserializeDetectsCorruption) {
  auto segment = BuildAnalyticsSegment();
  std::string blob = segment->SerializeToBlob();
  EXPECT_FALSE(ImmutableSegment::DeserializeFromBlob("garbage").ok());
  // Flip a byte in the body -> CRC mismatch.
  blob[blob.size() / 2] ^= 0x5a;
  auto restored = ImmutableSegment::DeserializeFromBlob(blob);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

// A blob whose CRC is valid but whose forward index holds dict ids past
// the dictionary: the load must refuse it, not hand queries an index that
// reads past the dictionary's value array.
std::string BlobWithDictIds(std::vector<uint32_t> sv_ids,
                            std::vector<std::vector<uint32_t>> mv_ids) {
  auto schema = Schema::Make({
      FieldSpec::Metric("m", DataType::kDouble),
      FieldSpec::Dimension("tags", DataType::kLong, /*single_value=*/false),
  });
  EXPECT_TRUE(schema.ok());
  SegmentMetadata metadata;
  metadata.table_name = "t";
  metadata.segment_name = "t_0";
  metadata.num_docs = static_cast<uint32_t>(sv_ids.size());
  auto column = [](const FieldSpec& spec, Dictionary dict, ForwardIndex fwd) {
    ColumnStats stats;
    stats.cardinality = dict.size();
    stats.min_value = dict.MinValue();
    stats.max_value = dict.MaxValue();
    return std::make_unique<ImmutableSegment::Column>(
        spec, std::move(dict), std::move(fwd), stats);
  };
  std::vector<std::unique_ptr<ImmutableSegment::Column>> columns;
  // Bit widths are sized for the largest id, so out-of-range ids pack.
  uint32_t sv_max = 0, mv_max = 0;
  for (uint32_t id : sv_ids) sv_max = std::max(sv_max, id);
  for (const auto& ids : mv_ids) {
    for (uint32_t id : ids) mv_max = std::max(mv_max, id);
  }
  columns.push_back(column(schema->field(0),
                           Dictionary::BuildSortedDouble({0.5, 1.5}),
                           ForwardIndex::BuildSingle(sv_ids, sv_max + 1)));
  columns.push_back(column(schema->field(1),
                           Dictionary::BuildSortedInt64({7, 8, 9}),
                           ForwardIndex::BuildMulti(mv_ids, mv_max + 1)));
  ImmutableSegment segment(*schema, metadata, std::move(columns));
  return segment.SerializeToBlob();  // Computes the CRC over the body.
}

TEST(SegmentTest, DeserializeRejectsDictIdsPastDictionary) {
  const std::vector<std::vector<uint32_t>> mv_ok = {{0, 2}, {}, {1}};
  ASSERT_TRUE(ImmutableSegment::DeserializeFromBlob(
                  BlobWithDictIds({0, 1, 1}, mv_ok))
                  .ok());

  auto sv_bad = ImmutableSegment::DeserializeFromBlob(
      BlobWithDictIds({0, 3, 1}, mv_ok));
  ASSERT_FALSE(sv_bad.ok());
  EXPECT_EQ(sv_bad.status().code(), StatusCode::kCorruption);

  // Multi-value: only a non-first entry of one doc is out of range.
  auto mv_bad = ImmutableSegment::DeserializeFromBlob(
      BlobWithDictIds({0, 1, 1}, {{0, 2}, {}, {1, 3}}));
  ASSERT_FALSE(mv_bad.ok());
  EXPECT_EQ(mv_bad.status().code(), StatusCode::kCorruption);
}

TEST(SegmentTest, PartitionMetadataPreserved) {
  SegmentBuildConfig config;
  config.partition_id = 3;
  config.partition_column = "memberId";
  config.num_partitions = 8;
  auto segment = BuildAnalyticsSegment(config);
  const std::string blob = segment->SerializeToBlob();
  auto restored = ImmutableSegment::DeserializeFromBlob(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->metadata().partition_id, 3);
  EXPECT_EQ((*restored)->metadata().partition_column, "memberId");
  EXPECT_EQ((*restored)->metadata().num_partitions, 8);
}

}  // namespace
}  // namespace pinot
