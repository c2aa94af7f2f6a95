#include <bit>
#include <cstdio>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/segment_executor.h"
#include "realtime/mutable_segment.h"
#include "realtime/upsert_meta.h"
#include "tests/test_util.h"

namespace pinot {
namespace {

using test::BuildAnalyticsSegment;
using test::RunPql;

TEST(QueryExecutionTest, CountStar) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT count(*) FROM analytics");
  ASSERT_FALSE(result.partial) << result.error_message;
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 12);
  // No filter -> metadata-only plan.
  EXPECT_TRUE(result.stats.answered_from_metadata);
}

TEST(QueryExecutionTest, SumWithEqFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT sum(impressions) FROM analytics WHERE country = 'us'");
  // us rows: 10+20+50+80+100+120 = 380
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 380);
  EXPECT_EQ(result.stats.docs_matched, 6u);
}

TEST(QueryExecutionTest, MinMaxAvgFromMetadata) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT min(impressions), max(impressions) FROM analytics");
  EXPECT_TRUE(result.stats.answered_from_metadata);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 10);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[1]), 120);
}

TEST(QueryExecutionTest, AvgNotFromMetadata) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT avg(clicks) FROM analytics");
  EXPECT_FALSE(result.stats.answered_from_metadata);
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 75.0 / 12.0);
}

TEST(QueryExecutionTest, AndFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics WHERE country = 'us' "
                       "AND browser = 'firefox'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, OrFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics WHERE browser = "
                       "'firefox' OR browser = 'safari'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 8);
}

TEST(QueryExecutionTest, RangeFilterOnTime) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics WHERE day BETWEEN 101 AND 102");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 6);
  result = RunPql(segment, "SELECT count(*) FROM analytics WHERE day > 102");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, NotEqAndNotIn) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country != 'us'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 6);
  result = RunPql(
      segment,
      "SELECT count(*) FROM analytics WHERE country NOT IN ('us', 'ca')");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, InFilter) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics WHERE country IN ('de', 'fr')");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 3);
}

TEST(QueryExecutionTest, FilterMatchingNothing) {
  auto segment = BuildAnalyticsSegment();
  // 'jp' falls inside the [ca, us] stats range, so the segment cannot be
  // pruned; execution finds nothing.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = 'jp'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
  EXPECT_EQ(result.stats.segments_queried, 1u);

  // 'zz' is above the column max: metadata alone prunes the segment.
  result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = 'zz'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
  EXPECT_EQ(result.stats.segments_queried, 0u);
  EXPECT_EQ(result.stats.segments_pruned, 1u);

  // Same for a time range entirely past the segment's data.
  result = RunPql(segment, "SELECT count(*) FROM analytics WHERE day > 500");
  EXPECT_EQ(result.stats.segments_pruned, 1u);
}

TEST(QueryExecutionTest, MultiValueFilter) {
  auto segment = BuildAnalyticsSegment();
  // tags contains 'a' in 5 rows.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE tags = 'a'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);
}

TEST(QueryExecutionTest, GroupByWithTopN) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment,
      "SELECT sum(impressions) FROM analytics GROUP BY country TOP 2");
  ASSERT_EQ(result.group_rows.size(), 2u);
  // us = 380, ca = 180, de = 130, fr = 90.
  EXPECT_EQ(std::get<std::string>(result.group_rows[0].keys[0]), "us");
  EXPECT_DOUBLE_EQ(std::get<double>(result.group_rows[0].values[0]), 380);
  EXPECT_EQ(std::get<std::string>(result.group_rows[1].keys[0]), "ca");
  EXPECT_DOUBLE_EQ(std::get<double>(result.group_rows[1].values[0]), 180);
}

TEST(QueryExecutionTest, GroupByMultipleColumns) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics GROUP BY country, "
                       "browser TOP 100");
  // Distinct (country, browser) pairs in the dataset.
  EXPECT_EQ(result.group_rows.size(), 9u);
  int64_t total = 0;
  for (const auto& row : result.group_rows) {
    total += std::get<int64_t>(row.values[0]);
  }
  EXPECT_EQ(total, 12);
}

TEST(QueryExecutionTest, GroupByStringsWithSeparatorBytesStayDistinct) {
  // ("a\x1f", "b") and ("a", "\x1fb") collided into one group under the
  // old '\x1f'-separated key encoding.
  std::vector<test::AnalyticsRow> rows = {
      {"a\x1f", "b", 1, {}, 10, 1, 100},
      {"a", "\x1f"
            "b",
       2, {}, 20, 2, 100},
  };
  auto segment = BuildAnalyticsSegment({}, rows);
  auto result = RunPql(segment,
                       "SELECT count(*) FROM analytics GROUP BY country, "
                       "browser TOP 10");
  ASSERT_FALSE(result.partial) << result.error_message;
  ASSERT_EQ(result.group_rows.size(), 2u);
  for (const auto& row : result.group_rows) {
    EXPECT_EQ(std::get<int64_t>(row.values[0]), 1);
  }
}

TEST(QueryExecutionTest, GroupByMultiValueColumnExplodes) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment, "SELECT count(*) FROM analytics GROUP BY tags TOP 100");
  // Tag counts: a=5, b=4, c=3, d=2, and 2 rows with no tags.
  int64_t a_count = 0;
  for (const auto& row : result.group_rows) {
    if (ValueToString(row.keys[0]) == "a") {
      a_count = std::get<int64_t>(row.values[0]);
    }
  }
  EXPECT_EQ(a_count, 5);
}

TEST(QueryExecutionTest, DistinctCount) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT distinctcount(memberId) FROM analytics");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);
  result = RunPql(
      segment,
      "SELECT distinctcount(memberId) FROM analytics WHERE country = 'us'");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 4);  // 1,2,4,5
}

TEST(QueryExecutionTest, SelectionWithLimit) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(
      segment,
      "SELECT country, impressions FROM analytics WHERE browser = 'chrome' "
      "LIMIT 2");
  ASSERT_EQ(result.selection_rows.size(), 2u);
  EXPECT_EQ(result.selection_columns,
            (std::vector<std::string>{"country", "impressions"}));
}

TEST(QueryExecutionTest, SelectionOrderBy) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment,
                       "SELECT memberId, impressions FROM analytics ORDER BY "
                       "impressions DESC LIMIT 3");
  ASSERT_EQ(result.selection_rows.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[0][1]), 120);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[1][1]), 110);
  EXPECT_EQ(std::get<int64_t>(result.selection_rows[2][1]), 100);
}

TEST(QueryExecutionTest, SelectStarExpandsSchema) {
  auto segment = BuildAnalyticsSegment();
  auto result = RunPql(segment, "SELECT * FROM analytics LIMIT 1");
  ASSERT_EQ(result.selection_rows.size(), 1u);
  EXPECT_EQ(result.selection_rows[0].size(), 7u);
}

TEST(QueryExecutionTest, UnknownColumnMakesResultPartial) {
  auto segment = BuildAnalyticsSegment();
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE nope = 1");
  EXPECT_TRUE(result.partial);
}

TEST(QueryExecutionTest, MultipleSegmentsMerge) {
  std::vector<std::shared_ptr<SegmentInterface>> segments = {
      BuildAnalyticsSegment(), BuildAnalyticsSegment()};
  auto result = RunPql(segments,
                       "SELECT sum(impressions) FROM analytics WHERE "
                       "country = 'us'");
  EXPECT_DOUBLE_EQ(std::get<double>(result.aggregates[0]), 760);
  // Group rows merge across segments by value, not dictionary id.
  result = RunPql(segments,
                  "SELECT count(*) FROM analytics GROUP BY browser TOP 10");
  EXPECT_EQ(result.group_rows.size(), 3u);
  for (const auto& row : result.group_rows) {
    if (ValueToString(row.keys[0]) == "firefox") {
      EXPECT_EQ(std::get<int64_t>(row.values[0]), 10);
    }
  }
}

TEST(QueryExecutionTest, DistinctCountMergesAcrossSegments) {
  std::vector<std::shared_ptr<SegmentInterface>> segments = {
      BuildAnalyticsSegment(), BuildAnalyticsSegment()};
  auto result =
      RunPql(segments, "SELECT distinctcount(memberId) FROM analytics");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 5);  // Not 10.
}

TEST(QueryExecutionTest, FilterOnSchemaEvolvedColumn) {
  auto segment = BuildAnalyticsSegment();
  // Simulate a schema-evolved query against a segment lacking the column:
  // add the field to the segment's schema via a fresh schema + query path.
  // The executor treats missing columns as default-filled.
  auto result =
      RunPql(segment, "SELECT count(*) FROM analytics WHERE country = ''");
  EXPECT_EQ(std::get<int64_t>(result.aggregates[0]), 0);
}

// Index-equivalence property: the same queries return identical results
// with no index, inverted indexes, sorted column, or star-tree.
class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceTest, AllIndexConfigurationsAgree) {
  SegmentBuildConfig config;
  switch (GetParam()) {
    case 0:
      break;  // No indexes.
    case 1:
      config.inverted_index_columns = {"country", "browser", "memberId",
                                       "tags", "day"};
      break;
    case 2:
      config.sort_columns = {"memberId", "day"};
      break;
    case 3:
      config.sort_columns = {"country"};
      config.inverted_index_columns = {"browser"};
      config.star_tree.dimensions = {"country", "browser", "day"};
      config.star_tree.metrics = {"impressions", "clicks"};
      config.star_tree.max_leaf_records = 1;
      break;
  }
  auto segment = BuildAnalyticsSegment(config);
  auto baseline = BuildAnalyticsSegment();

  const std::vector<std::string> queries = {
      "SELECT count(*) FROM t WHERE country = 'us'",
      "SELECT sum(impressions) FROM t WHERE browser = 'firefox'",
      "SELECT sum(impressions), sum(clicks) FROM t WHERE browser = 'firefox' "
      "OR browser = 'safari'",
      "SELECT sum(clicks) FROM t WHERE country = 'us' AND browser = 'chrome'",
      "SELECT count(*) FROM t WHERE day BETWEEN 101 AND 102",
      "SELECT sum(impressions) FROM t WHERE country IN ('us', 'de') AND day "
      ">= 101",
      "SELECT count(*) FROM t WHERE country != 'us'",
      "SELECT sum(impressions) FROM t GROUP BY country TOP 10",
      "SELECT sum(impressions) FROM t WHERE browser = 'firefox' GROUP BY "
      "country TOP 10",
      "SELECT min(impressions), max(impressions), avg(impressions) FROM t "
      "WHERE day > 100",
  };
  for (const auto& pql : queries) {
    auto a = RunPql(segment, pql);
    auto b = RunPql(baseline, pql);
    ASSERT_FALSE(a.partial) << pql << ": " << a.error_message;
    ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << pql;
    for (size_t i = 0; i < a.aggregates.size(); ++i) {
      EXPECT_EQ(ValueToString(a.aggregates[i]), ValueToString(b.aggregates[i]))
          << pql;
    }
    ASSERT_EQ(a.group_rows.size(), b.group_rows.size()) << pql;
    for (size_t g = 0; g < a.group_rows.size(); ++g) {
      EXPECT_EQ(ValueToString(a.group_rows[g].keys[0]),
                ValueToString(b.group_rows[g].keys[0]))
          << pql;
      EXPECT_EQ(ValueToString(a.group_rows[g].values[0]),
                ValueToString(b.group_rows[g].values[0]))
          << pql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IndexConfigs, IndexEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3));

// --- Batched scan path equivalence -----------------------------------------
//
// The block-decode aggregation kernels and packed group-by keys must be
// indistinguishable from the per-document reference path.

QueryResult RunWithOptions(const std::shared_ptr<SegmentInterface>& segment,
                           const std::string& pql,
                           const ScanOptions& options) {
  auto query = ParsePql(pql);
  EXPECT_TRUE(query.ok()) << pql << ": " << query.status().ToString();
  PartialResult partial;
  Status st = ExecuteQueryOnSegment(*segment, *query, options, &partial);
  EXPECT_TRUE(st.ok()) << pql << ": " << st.ToString();
  return ReduceToFinalResult(*query, std::move(partial));
}

// Canonical group-key -> finalized-values map, so comparisons are
// insensitive to tie-breaking in the TOP sort.
std::map<std::string, std::string> GroupRowsByKey(const QueryResult& r) {
  std::map<std::string, std::string> out;
  for (const auto& row : r.group_rows) {
    std::string key;
    for (const auto& k : row.keys) key += ValueToString(k) + "|";
    std::string vals;
    for (const auto& v : row.values) vals += ValueToString(v) + "|";
    out[key] = vals;
  }
  return out;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                       const std::string& pql, const char* variant) {
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size()) << pql;
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    EXPECT_EQ(ValueToString(a.aggregates[i]), ValueToString(b.aggregates[i]))
        << pql << " [" << variant << "]";
  }
  EXPECT_EQ(GroupRowsByKey(a), GroupRowsByKey(b))
      << pql << " [" << variant << "]";
  EXPECT_EQ(a.stats.docs_scanned, b.stats.docs_scanned)
      << pql << " [" << variant << "]";
}

std::shared_ptr<ImmutableSegment> BuildLargeRandomSegment() {
  const std::vector<std::string> countries = {"us", "ca", "de", "fr", "jp",
                                              "br", "in", "uk"};
  const std::vector<std::string> browsers = {"firefox", "chrome", "safari",
                                             "edge"};
  const std::vector<std::string> tag_pool = {"a", "b", "c", "d", "e"};
  Random rng(20260805);
  std::vector<test::AnalyticsRow> rows;
  for (int i = 0; i < 3000; ++i) {
    test::AnalyticsRow r;
    r.country = countries[rng.NextUint64(countries.size())];
    r.browser = browsers[rng.NextUint64(browsers.size())];
    r.member_id = static_cast<int64_t>(rng.NextUint64(500));
    const uint64_t num_tags = rng.NextUint64(4);
    for (uint64_t t = 0; t < num_tags; ++t) {
      r.tags.push_back(tag_pool[rng.NextUint64(tag_pool.size())]);
    }
    r.impressions = static_cast<int64_t>(rng.NextUint64(10000));
    r.clicks = static_cast<int64_t>(rng.NextUint64(100));
    r.day = 100 + static_cast<int64_t>(rng.NextUint64(30));
    rows.push_back(std::move(r));
  }
  return BuildAnalyticsSegment({}, std::move(rows));
}

TEST(BatchedScanEquivalenceTest, BatchedPathsMatchPerDocReference) {
  const std::vector<std::shared_ptr<SegmentInterface>> segments = {
      BuildAnalyticsSegment(), BuildLargeRandomSegment()};
  const std::vector<std::string> queries = {
      // Range-like doc sets (no filter / sorted-range).
      "SELECT sum(impressions), min(impressions), max(impressions), "
      "avg(clicks) FROM t",
      "SELECT sum(impressions) FROM t WHERE day BETWEEN 101 AND 110",
      // Bitmap doc sets.
      "SELECT sum(impressions), avg(impressions) FROM t WHERE browser = "
      "'firefox' OR browser = 'safari'",
      "SELECT min(clicks), max(clicks) FROM t WHERE country IN ('us', 'de') "
      "AND day >= 101",
      // Group-bys: single column, multi column, high-cardinality column,
      // and filtered variants.
      "SELECT sum(impressions) FROM t GROUP BY country TOP 1000",
      "SELECT count(*), sum(impressions), min(impressions), "
      "max(impressions), avg(clicks) FROM t GROUP BY country, browser TOP "
      "1000",
      "SELECT sum(impressions) FROM t WHERE browser = 'firefox' GROUP BY "
      "country, day TOP 1000",
      "SELECT count(*) FROM t GROUP BY memberId, country TOP 10000",
      // Multi-value group column: must fall back to string keys and still
      // agree (exploded combinations).
      "SELECT count(*), sum(impressions) FROM t GROUP BY tags TOP 1000",
      "SELECT count(*) FROM t GROUP BY country, tags TOP 1000",
      // Grouped DISTINCTCOUNT stays on the reference path in every
      // configuration.
      "SELECT distinctcount(browser) FROM t WHERE country = 'us' GROUP BY "
      "country TOP 1000",
  };

  ScanOptions reference;
  reference.batched_decode = false;
  reference.packed_groupby = false;
  ScanOptions batched_dense;  // Defaults: packed keys, dense table allowed.
  ScanOptions batched_open;
  batched_open.dense_groupby_max_slots = 0;  // Force open addressing.
  ScanOptions batched_string_keys;
  batched_string_keys.packed_groupby = false;

  for (const auto& segment : segments) {
    for (const auto& pql : queries) {
      const QueryResult expected = RunWithOptions(segment, pql, reference);
      ExpectSameResults(RunWithOptions(segment, pql, batched_dense), expected,
                        pql, "dense packed keys");
      ExpectSameResults(RunWithOptions(segment, pql, batched_open), expected,
                        pql, "open-addressing packed keys");
      ExpectSameResults(RunWithOptions(segment, pql, batched_string_keys),
                        expected, pql, "batched decode, string keys");
    }
  }
}

// --- In-place metric reads and batched DISTINCTCOUNT ------------------------
//
// High-cardinality metrics (about one distinct value per row) aggregated
// over ~1% of docs, on every segment kind the batched kernels read from:
// sorted immutable dictionaries, a schema-evolved segment with missing
// columns, a consuming segment whose unsorted dictionary grows between
// queries, and an upsert segment with invalidated docs. Batched and per-doc
// states must agree bit for bit, not just after rendering.

Schema HighCardSchema() {
  return *Schema::Make({
      FieldSpec::Dimension("bucket", DataType::kLong),
      FieldSpec::Dimension("country", DataType::kString),
      FieldSpec::Dimension("d_long", DataType::kLong),
      FieldSpec::Dimension("tags", DataType::kString, /*single_value=*/false),
      FieldSpec::Metric("m_double", DataType::kDouble),
      FieldSpec::Metric("m_long", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
  });
}

std::vector<Row> HighCardRows(uint64_t seed, int n) {
  static const char* kCountries[] = {"us", "ca", "de", "fr",
                                     "jp", "br", "in", "uk"};
  Random rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    std::vector<std::string> tags;
    for (uint64_t t = rng.NextUint64(4); t > 0; --t) {
      tags.push_back("tag" + std::to_string(rng.NextUint64(6)));
    }
    row.SetLong("bucket", static_cast<int64_t>(rng.NextUint64(100)))
        .SetString("country", kCountries[rng.NextUint64(8)])
        .SetLong("d_long", static_cast<int64_t>(rng.NextUint64(500)))
        .SetStringArray("tags", std::move(tags))
        .SetDouble("m_double", rng.NextDouble() * 1000 - 500)
        .SetLong("m_long",
                 static_cast<int64_t>(rng.NextUint64(uint64_t{1} << 40)))
        .SetLong("day", 100 + static_cast<int64_t>(rng.NextUint64(30)));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::shared_ptr<ImmutableSegment> BuildHighCardSegment(
    const std::vector<Row>& rows) {
  SegmentBuildConfig config;
  config.table_name = "t";
  config.segment_name = "t_0";
  config.inverted_index_columns = {"bucket"};  // Scattered bitmap doc sets.
  SegmentBuilder builder(HighCardSchema(), config);
  for (const auto& row : rows) EXPECT_TRUE(builder.AddRow(row).ok());
  auto segment = builder.Build();
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return *segment;
}

// A segment built before `m_new` and `d_new` joined the schema: the schema
// has the fields, the segment has no columns for them.
class SchemaEvolvedSegment : public SegmentInterface {
 public:
  explicit SchemaEvolvedSegment(std::shared_ptr<SegmentInterface> base)
      : base_(std::move(base)), schema_(base_->schema()) {
    EXPECT_TRUE(schema_.AddField(FieldSpec::Metric("m_new", DataType::kDouble))
                    .ok());
    EXPECT_TRUE(
        schema_.AddField(FieldSpec::Dimension("d_new", DataType::kString))
            .ok());
  }
  const Schema& schema() const override { return schema_; }
  uint32_t num_docs() const override { return base_->num_docs(); }
  const SegmentMetadata& metadata() const override {
    return base_->metadata();
  }
  const ColumnReader* GetColumn(const std::string& name) const override {
    return base_->GetColumn(name);
  }

 private:
  std::shared_ptr<SegmentInterface> base_;
  Schema schema_;
};

// IEEE-754 bit patterns of sum/min/max, the count, and the distinct-set
// size (-1 without a set).
std::string StateBits(const AggState& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016llx/%016llx/%016llx/%lld/%lld",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(s.sum)),
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(s.min)),
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(s.max)),
                static_cast<long long>(s.count),
                static_cast<long long>(s.distinct ? s.distinct->size() : -1));
  return buf;
}

// Executes `pql` on one segment and renders the partial result's states
// bit for bit (groups ordered by encoded key); `kernel` receives the
// ungrouped aggregation kernel label.
std::string PartialBits(const SegmentInterface& segment, const std::string& pql,
                        const ScanOptions& options, std::string* kernel) {
  auto query = ParsePql(pql);
  EXPECT_TRUE(query.ok()) << pql;
  PartialResult partial;
  TraceSpan span = TraceSpan::Open("segment");
  Status st = ExecuteQueryOnSegment(segment, *query, options, &span, &partial);
  EXPECT_TRUE(st.ok()) << pql << ": " << st.ToString();
  span.Close();
  for (const auto& child : span.children) {
    if (child.name == "aggregate") *kernel = child.LabelValue("kernel");
  }
  std::string out;
  for (const auto& state : partial.aggregates) out += StateBits(state) + ";";
  std::map<std::string, std::string> groups;
  for (uint32_t g = 0; g < partial.groups.size(); ++g) {
    std::string states;
    for (size_t i = 0; i < partial.groups.num_aggs(); ++i) {
      states += StateBits(partial.groups.StatesAt(g)[i]) + ";";
    }
    groups[std::string(partial.groups.EncodedKeyAt(g))] = states;
  }
  for (const auto& [key, states] : groups) out += key + "=" + states + "\n";
  return out + "scanned=" + std::to_string(partial.stats.docs_scanned);
}

// Asserts batched == per-doc bit for bit and returns the batched kernel.
std::string ExpectBitIdentical(const SegmentInterface& segment,
                               const std::string& pql,
                               const std::string& what) {
  ScanOptions reference;
  reference.batched_decode = false;
  reference.packed_groupby = false;
  std::string reference_kernel, batched_kernel;
  const std::string expected =
      PartialBits(segment, pql, reference, &reference_kernel);
  EXPECT_EQ(PartialBits(segment, pql, ScanOptions{}, &batched_kernel),
            expected)
      << what << ": " << pql;
  return batched_kernel;
}

const std::vector<std::string>& HighCardQueries() {
  static const std::vector<std::string> queries = {
      "SELECT sum(m_double), min(m_double), max(m_double), avg(m_double) "
      "FROM t WHERE bucket = 7",
      "SELECT sum(m_long), min(m_long), max(m_long) FROM t WHERE bucket = 7",
      "SELECT sum(m_double) FROM t",  // Contiguous (range) doc blocks.
      "SELECT sum(m_double), sum(m_long) FROM t WHERE bucket = 7 GROUP BY "
      "country TOP 100",
      "SELECT count(*), avg(m_double), max(m_long) FROM t WHERE bucket < 2 "
      "GROUP BY country, bucket TOP 1000",
      "SELECT max(m_double) FROM t WHERE bucket = 3 GROUP BY d_long TOP 1000",
  };
  return queries;
}

// Ungrouped single-value DISTINCTCOUNT (string, long, double) runs batched.
const std::vector<std::string>& DistinctQueries() {
  static const std::vector<std::string> queries = {
      "SELECT distinctcount(country), distinctcount(d_long), "
      "distinctcount(m_double) FROM t WHERE bucket < 50",
      "SELECT distinctcount(m_long), count(*), sum(m_double) FROM t WHERE "
      "bucket = 7",
      "SELECT distinctcount(d_long) FROM t",
      "SELECT distinctcount(country) FROM t WHERE bucket = 1000",  // No docs.
  };
  return queries;
}

void ExpectHighCardEquivalence(const SegmentInterface& segment,
                               const std::string& what) {
  for (const auto& pql : HighCardQueries()) {
    ExpectBitIdentical(segment, pql, what);
  }
  for (const auto& pql : DistinctQueries()) {
    EXPECT_EQ(ExpectBitIdentical(segment, pql, what), "batched")
        << what << ": " << pql;
  }
  // Multi-value DISTINCTCOUNT stays on the reference path; grouped
  // DISTINCTCOUNT goes through the string-key group-by.
  EXPECT_EQ(ExpectBitIdentical(segment,
                               "SELECT distinctcount(tags), sum(m_double) "
                               "FROM t WHERE bucket < 50",
                               what),
            "per-doc")
      << what;
  ExpectBitIdentical(segment,
                     "SELECT distinctcount(m_double) FROM t WHERE bucket < 10 "
                     "GROUP BY country TOP 100",
                     what);
}

TEST(InPlaceMetricKernelTest, ImmutableHighCardinalityMatchesPerDoc) {
  const auto rows = HighCardRows(11, 6000);
  auto segment = BuildHighCardSegment(rows);
  // About one distinct metric value per row.
  EXPECT_GT(segment->GetColumn("m_double")->dictionary().size(), 5900);
  EXPECT_GT(segment->GetColumn("m_long")->dictionary().size(), 5900);
  ExpectHighCardEquivalence(*segment, "immutable");
}

TEST(InPlaceMetricKernelTest, MissingColumnDefaultsMatchPerDoc) {
  SchemaEvolvedSegment segment(BuildHighCardSegment(HighCardRows(12, 5000)));
  ASSERT_EQ(segment.GetColumn("m_new"), nullptr);
  ExpectHighCardEquivalence(segment, "schema-evolved");
  for (const std::string pql : {
           "SELECT sum(m_new), min(m_new), avg(m_new) FROM t WHERE bucket = 7",
           "SELECT distinctcount(d_new), distinctcount(country) FROM t WHERE "
           "bucket < 20",
           "SELECT distinctcount(d_new) FROM t WHERE bucket = 1000",
           "SELECT sum(m_new), max(m_double) FROM t WHERE bucket = 7 GROUP BY "
           "country TOP 100",
       }) {
    ExpectBitIdentical(segment, pql, "missing column");
  }
}

TEST(InPlaceMetricKernelTest, ConsumingSegmentWithGrowingDictionary) {
  SimulatedClock clock;
  MutableSegment segment(HighCardSchema(), "t", "t__0__0", &clock);
  const auto rows = HighCardRows(13, 6000);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(segment.Index(rows[i]).ok());
    // Query at several sizes, so later queries read a dictionary that grew
    // (and reallocated) since the earlier ones.
    if (i + 1 == 1000 || i + 1 == 4500 || i + 1 == rows.size()) {
      EXPECT_FALSE(segment.GetColumn("m_double")->dictionary().sorted());
      ExpectHighCardEquivalence(segment,
                                "consuming@" + std::to_string(i + 1));
    }
  }
}

TEST(InPlaceMetricKernelTest, UpsertSegmentSkipsInvalidatedDocs) {
  auto segment = BuildHighCardSegment(HighCardRows(14, 6000));
  auto tracker = std::make_shared<ValidDocsTracker>();
  for (uint32_t doc = 0; doc < segment->num_docs(); doc += 3) {
    tracker->Invalidate(doc);
  }
  segment->SetValidDocs(tracker);
  ExpectHighCardEquivalence(*segment, "upsert");
  // The invalidated docs really are gone from the batched answer.
  std::string kernel;
  const std::string all =
      PartialBits(*segment, "SELECT count(*), distinctcount(d_long) FROM t",
                  ScanOptions{}, &kernel);
  EXPECT_NE(all.find("/4000/"), std::string::npos) << all;
}

}  // namespace
}  // namespace pinot
