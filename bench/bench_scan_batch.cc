// Microbenchmark for the batched columnar scan engine: per-doc reference
// execution vs block decode + aggregation kernels + packed group-by keys,
// on one large segment. Reports scan throughput (rows/sec) per query and
// the batched-over-reference speedup.
//
// Expected shape: batched filtered SUM and single-column group-by run at
// >= 2x the per-doc path; group-bys gain the most (no per-doc string key
// allocation or node-based hash probe).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "metrics/metrics.h"
#include "query/result.h"
#include "query/segment_executor.h"
#include "trace/slow_query_log.h"
#include "trace/trace.h"

namespace pinot {
namespace bench {
namespace {

std::shared_ptr<ImmutableSegment> BuildScanSegment(uint32_t rows,
                                                   uint64_t seed) {
  auto schema = Schema::Make({
      FieldSpec::Dimension("country", DataType::kString),
      FieldSpec::Dimension("browser", DataType::kString),
      FieldSpec::Dimension("memberId", DataType::kLong),
      FieldSpec::Metric("impressions", DataType::kLong),
      FieldSpec::Metric("clicks", DataType::kLong),
      FieldSpec::Time("day", DataType::kLong),
      // ~1% per value: the selective high-cardinality case filters on it.
      FieldSpec::Dimension("bucket", DataType::kLong),
      // About one distinct value per row.
      FieldSpec::Metric("revenue", DataType::kDouble),
  });
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    std::abort();
  }
  const std::vector<std::string> countries = {"us", "ca", "de", "fr",
                                              "jp", "br", "in", "uk"};
  const std::vector<std::string> browsers = {"firefox", "chrome", "safari",
                                             "edge"};
  SegmentBuildConfig config;
  config.table_name = "scan";
  config.segment_name = "scan_0";
  // Filters go through inverted indexes (the production Pinot setup), so
  // the timed difference is the scan/aggregation pipeline itself.
  config.inverted_index_columns = {"country", "browser", "bucket"};
  SegmentBuilder builder(*schema, config);
  Random rng(seed);
  Random extra_rng(seed ^ 0x5ca1ab1e);  // Leaves the other columns' draws.
  for (uint32_t i = 0; i < rows; ++i) {
    Row row;
    row.SetString("country", countries[rng.NextUint64(countries.size())])
        .SetString("browser", browsers[rng.NextUint64(browsers.size())])
        .SetLong("memberId", static_cast<int64_t>(rng.NextUint64(50000)))
        .SetLong("impressions", static_cast<int64_t>(rng.NextUint64(100000)))
        .SetLong("clicks", static_cast<int64_t>(rng.NextUint64(100)))
        .SetLong("day", 100 + static_cast<int64_t>(rng.NextUint64(30)))
        .SetLong("bucket", static_cast<int64_t>(extra_rng.NextUint64(100)))
        .SetDouble("revenue", extra_rng.NextDouble() * 1000);
    Status st = builder.AddRow(row);
    if (!st.ok()) {
      std::fprintf(stderr, "AddRow: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  auto segment = builder.Build();
  if (!segment.ok()) {
    std::fprintf(stderr, "Build: %s\n", segment.status().ToString().c_str());
    std::abort();
  }
  return *segment;
}

struct RunStats {
  double rows_per_sec = 0;
  uint64_t docs_scanned = 0;
  double checksum = 0;  // Keeps the work observable; compared across paths.
  std::vector<double> latencies_ms;  // One entry per iteration, sorted.
};

RunStats RunQuery(const SegmentInterface& segment, const Query& query,
                  const ScanOptions& options, int iters,
                  Histogram* latency = nullptr) {
  RunStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    const auto iter_start = std::chrono::steady_clock::now();
    PartialResult partial;
    Status st = ExecuteQueryOnSegment(segment, query, options, &partial);
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    const double millis = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - iter_start)
                              .count();
    stats.latencies_ms.push_back(millis);
    if (latency != nullptr) latency->Observe(millis);
    stats.docs_scanned += partial.stats.docs_scanned;
    for (const auto& agg : partial.aggregates) {
      stats.checksum += agg.sum + static_cast<double>(agg.count);
      if (agg.distinct != nullptr) {
        stats.checksum += static_cast<double>(agg.distinct->size());
      }
    }
    const GroupTable& groups = partial.groups;
    for (uint32_t g = 0; g < groups.size(); ++g) {
      const AggState* states = groups.StatesAt(g);
      for (size_t i = 0; i < groups.num_aggs(); ++i) {
        stats.checksum += states[i].sum;
      }
    }
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats.rows_per_sec =
      seconds > 0 ? static_cast<double>(stats.docs_scanned) / seconds : 0;
  return stats;
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  // Default to one 1M-doc segment (the acceptance configuration); the
  // shared --rows flag overrides.
  const uint32_t rows = options.rows == 150000 ? 1000000 : options.rows;
  const int iters = 5;

  std::printf("# bench_scan_batch — per-doc vs batched scan on a %u-doc "
              "segment (%d iterations per cell)\n",
              rows, iters);
  auto segment = BuildScanSegment(rows, options.seed);

  struct Case {
    const char* name;
    const char* slug;  // Space-free JSON config key (check_perf.sh awk).
    const char* pql;
  };
  const std::vector<Case> cases = {
      {"full-scan sum", "full-scan-sum", "SELECT sum(impressions) FROM scan"},
      {"filtered sum", "filtered-sum",
       "SELECT sum(impressions) FROM scan WHERE browser = 'firefox'"},
      {"filtered sum+min+max", "filtered-sum-min-max",
       "SELECT sum(impressions), min(impressions), max(impressions) FROM "
       "scan WHERE country IN ('us', 'de', 'fr')"},
      {"group-by country (8 groups)", "groupby-country",
       "SELECT sum(impressions) FROM scan GROUP BY country TOP 1000"},
      {"group-by country,browser,day", "groupby-country-browser-day",
       "SELECT count(*), sum(impressions) FROM scan GROUP BY country, "
       "browser, day TOP 10000"},
      {"group-by memberId (50k groups)", "groupby-memberId-50k",
       "SELECT sum(impressions) FROM scan GROUP BY memberId TOP 100000"},
      // ~1% of rows, summing a metric with a dictionary as large as the
      // segment: cost should track the matched docs, not the dictionary.
      {"selective sum, high-card metric", "selective-sum-highcard",
       "SELECT sum(revenue) FROM scan WHERE bucket = 7"},
      {"distinctcount memberId", "distinctcount",
       "SELECT distinctcount(memberId) FROM scan WHERE browser = 'firefox'"},
  };

  ScanOptions reference;
  reference.batched_decode = false;
  reference.packed_groupby = false;
  ScanOptions batched;  // Defaults.

  MetricsRegistry metrics;
  // Worst-3 traces of the batched path, collected from one traced run per
  // case *after* its timed cells so the measured loop stays on the
  // disabled (null-span) path.
  SlowQueryLog slow_log(SlowQueryLog::Options{/*threshold_millis=*/0.0,
                                              /*capacity=*/3});
  // Machine-readable dump gated by scripts/check_perf.sh: one point per
  // (case, mode) keyed by the segment row count so runs at the same --rows
  // compare against each other; achieved_qps carries the scan throughput.
  BenchJsonWriter json("scan_batch", options.json_path);
  auto to_point = [rows](RunStats& stats) {
    QpsPoint point;
    point.offered_qps = rows;
    point.achieved_qps = stats.rows_per_sec;
    point.queries = stats.latencies_ms.size();
    double sum = 0;
    for (double v : stats.latencies_ms) sum += v;
    point.avg_ms =
        stats.latencies_ms.empty() ? 0 : sum / stats.latencies_ms.size();
    point.p50_ms = Percentile(stats.latencies_ms, 0.50);
    point.p95_ms = Percentile(stats.latencies_ms, 0.95);
    point.p99_ms = Percentile(stats.latencies_ms, 0.99);
    return point;
  };
  std::printf("%-32s %16s %16s %9s\n", "query", "per-doc rows/s",
              "batched rows/s", "speedup");
  for (const auto& c : cases) {
    auto query = ParsePql(c.pql);
    if (!query.ok()) {
      std::fprintf(stderr, "bad query %s: %s\n", c.pql,
                   query.status().ToString().c_str());
      std::abort();
    }
    RunStats ref = RunQuery(
        *segment, *query, reference, iters,
        metrics.GetHistogram("bench_scan_latency_ms",
                             {{"case", c.name}, {"mode", "per-doc"}}));
    RunStats fast = RunQuery(
        *segment, *query, batched, iters,
        metrics.GetHistogram("bench_scan_latency_ms",
                             {{"case", c.name}, {"mode", "batched"}}));
    json.Add(std::string(c.slug) + "/per-doc", to_point(ref));
    json.Add(std::string(c.slug) + "/batched", to_point(fast));
    if (ref.checksum != fast.checksum) {
      std::fprintf(stderr, "MISMATCH on %s: %f vs %f\n", c.name, ref.checksum,
                   fast.checksum);
      std::abort();
    }
    std::printf("%-32s %16.0f %16.0f %8.2fx\n", c.name, ref.rows_per_sec,
                fast.rows_per_sec,
                ref.rows_per_sec > 0 ? fast.rows_per_sec / ref.rows_per_sec
                                     : 0);
    std::fflush(stdout);

    // One traced execution per case for the exit-time slow-query log.
    const auto traced_start = std::chrono::steady_clock::now();
    TraceSpan root = TraceSpan::Open("segment:scan_0");
    PartialResult partial;
    Status st = ExecuteQueryOnSegment(*segment, *query, batched, &root,
                                      &partial);
    if (!st.ok()) {
      std::fprintf(stderr, "traced execute: %s\n", st.ToString().c_str());
      std::abort();
    }
    root.Annotate("docs_scanned",
                  static_cast<int64_t>(partial.stats.docs_scanned));
    root.Close();
    slow_log.Record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - traced_start)
                        .count(),
                    c.pql, root);
  }
  std::printf("\n# --- slow query log (top 3) ---\n%s",
              slow_log.Dump(3).c_str());
  std::printf("\n# --- metrics dump ---\n%s", metrics.Dump().c_str());
  return json.Write() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pinot

int main(int argc, char** argv) { return pinot::bench::Main(argc, argv); }
