// End-to-end and per-layer benchmark of the in-process Pinot cluster.
//
// One process stands up a PinotCluster (2 servers x 2 query threads, a
// broker with 4 scatter threads, no artificial latency, no straggler),
// loads one workload, checks every distinct query's answer against a
// reference computed over unindexed segments, then measures:
//   open loop   queries at a fixed rate, each timed from its due send time;
//   ingest      rows streamed at a fixed rate (beside the open loop on
//               realtime_hybrid), then flat out;
//   peak        closed loop with one client per core, counting completions.
// Usage:
//   perfbench --workload anomaly_scan|impression_lookup|realtime_hybrid
//             --seed N --seconds S --trace 0|1 [--spans FILE] [--smoke]
//             [--corrupt-reference]
// The last line of stdout is one JSON object with the run's metrics:
// end-to-end metrics untraced (--trace 0), per-layer metrics traced
// (--trace 1). See perfbench/README.md for the metric -> layer map.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "cluster/pinot_cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/filter_evaluator.h"
#include "query/parser.h"
#include "query/table_executor.h"
#include "segment/segment_builder.h"
#include "spans.h"
#include "workload/workloads.h"

namespace perfbench {
namespace {

using namespace pinot;
using SteadyClock = std::chrono::steady_clock;

constexpr int kServers = 2;
constexpr int kQueryThreadsPerServer = 2;
constexpr int kScatterThreads = 4;
constexpr int kStreamPartitions = 4;
constexpr int kSetupRepeats = 3;
constexpr int kReplayQueries = 120;
// The timed part of a run is kRounds rounds of: open loop, peak slice,
// fixed-rate ingest, peak slice, flat-out ingest, peak slice (a peak slice is
// a short closed loop). Interference from outside the process
// (other tenants of the machine take CPU time in bursts of seconds) only
// ever slows a round, so a latency at the fixed rate is the lowest round
// median: a burst that spares one round does not move it, while a slower
// program slows every round. A rate at saturation varies both ways from
// round to round and is the median round. Shares of --seconds across all
// rounds:
constexpr int kRounds = 5;
constexpr double kOpenShare = 0.45;
constexpr double kPeakShare = 0.25;
constexpr int kPeakSlices = 3;  // Per round.
// Fixed-rate ingest; realtime_hybrid ingests at the fixed rate beside the
// open loop instead, for the open loop's share.
constexpr double kIngestShare = 0.3;
constexpr double kWarmupSeconds = 1.5;
constexpr int64_t kIngestBatchMillis = 2;
constexpr int kFlatOutBatchRows = 4000;
constexpr auto kIngestGrace = std::chrono::seconds(5);
constexpr int64_t kFirstDay = 17000;
// realtime_hybrid: OFFLINE holds days <= kHybridLastOfflineDay; the stream
// carries days >= it, so the day at the time boundary is served by the
// realtime table once ingested (offline answers day < boundary).
constexpr int64_t kHybridLastOfflineDay = kFirstDay + 3;

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt_reference = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* v = next("--workload");
      if (v == nullptr) return false;
      args->workload = v;
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = next("--seconds");
      if (v == nullptr) return false;
      args->seconds = std::atof(v);
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return false;
      args->trace = std::string(v) == "1";
    } else if (arg == "--spans") {
      const char* v = next("--spans");
      if (v == nullptr) return false;
      args->spans_path = v;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (args->seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workload plans and inputs

struct Plan {
  uint32_t rows = 0;
  int queries = 0;           // Generated query list (with repeats).
  int offline_segments = 0;  // Partitions for partitioned tables.
  int replicas = 1;
  bool partitioned = false;
  bool hybrid = false;
  double query_qps = 0;          // Open-loop rate.
  double ingest_rows_per_s = 0;  // Fixed ingest rate.
  uint32_t flat_out_rows = 0;    // Streamed flat out after the fixed rate.
  int64_t flush_rows = 0;        // Consuming-segment flush threshold.
};

Plan PlanFor(const std::string& workload, bool smoke) {
  Plan plan;
  if (workload == "anomaly_scan") {
    plan.rows = 1000000;
    plan.queries = 2000;
    plan.offline_segments = 8;
    plan.replicas = 1;
    plan.query_qps = 120;
    plan.ingest_rows_per_s = 20000;
    plan.flat_out_rows = 150000;
    plan.flush_rows = 6000;
  } else if (workload == "impression_lookup") {
    plan.rows = 1000000;
    plan.queries = 8000;
    plan.offline_segments = 8;
    plan.replicas = 2;
    plan.partitioned = true;
    plan.query_qps = 500;
    plan.ingest_rows_per_s = 20000;
    plan.flat_out_rows = 500000;
    plan.flush_rows = 6000;
  } else if (workload == "realtime_hybrid") {
    plan.rows = 560000;
    plan.queries = 8000;
    plan.offline_segments = 8;
    plan.replicas = 2;
    plan.partitioned = true;
    plan.hybrid = true;
    plan.query_qps = 500;
    plan.ingest_rows_per_s = 20000;
    plan.flush_rows = 15000;
  } else {
    return plan;
  }
  if (smoke) {
    plan.rows /= 50;
    plan.queries = 60;
    plan.query_qps /= 4;
    plan.ingest_rows_per_s /= 10;
    plan.flat_out_rows /= 50;
    plan.flush_rows /= 10;
  }
  return plan;
}

struct Inputs {
  Workload workload;
  std::vector<std::string> distinct_pql;
  std::vector<Query> distinct;      // Parsed, same order.
  std::vector<int> mix;             // Generator's list as distinct indexes.
  std::vector<const Row*> offline_rows;
  std::vector<const Row*> stream_rows;
  std::vector<const Row*> precheck_rows;  // What is served before ingest.
  std::string realtime_table;              // Logical name.
};

// A tenth of anomaly_scan's queries count distinct values of a dimension
// under the monitoring filter shape; they exercise the per-doc engine.
std::vector<std::string> DistinctCountQueries(int n, uint64_t seed) {
  static const char* kColumns[] = {"country", "browser", "application",
                                   "pageType"};
  Random rng(seed ^ 0xd15c0u);
  ZipfGenerator metric_gen(60, 1.1);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const int64_t day_lo = kFirstDay + static_cast<int64_t>(rng.NextUint64(11));
    const int64_t day_hi = day_lo + 1 + static_cast<int64_t>(rng.NextUint64(3));
    out.push_back("SELECT distinctcount(" +
                  std::string(kColumns[rng.NextUint64(4)]) +
                  ") FROM anomaly WHERE metricName = 'metric_" +
                  std::to_string(metric_gen.Next(rng)) + "' AND day BETWEEN " +
                  std::to_string(day_lo) + " AND " + std::to_string(day_hi));
  }
  return out;
}

bool MakeInputs(const std::string& name, const Plan& plan, uint64_t seed,
                Inputs* in) {
  WorkloadOptions options;
  options.num_rows = plan.rows;
  options.seed = seed;
  std::vector<std::string> pql;
  if (name == "anomaly_scan") {
    const int distinct_count = plan.queries / 10;
    options.num_queries = plan.queries - distinct_count;
    in->workload = MakeAnomalyWorkload(options);
    // No star-tree: the filter, decode, aggregation and group-by layers do
    // the work instead of preaggregates.
    in->workload.pinot_config.star_tree = StarTreeConfig{};
    pql = in->workload.queries;
    for (auto& q : DistinctCountQueries(distinct_count, seed)) {
      pql.push_back(std::move(q));
    }
    in->realtime_table = "anomaly_fresh";
  } else {
    options.num_queries = plan.queries;
    in->workload = MakeImpressionWorkload(options);
    pql = in->workload.queries;
    in->realtime_table = plan.hybrid ? "impressions" : "impressions_fresh";
  }
  // Shuffle so the DISTINCTCOUNT slice is spread through the mix.
  Random shuffle_rng(seed ^ 0x5a17u);
  for (size_t i = pql.size(); i > 1; --i) {
    std::swap(pql[i - 1], pql[shuffle_rng.NextUint64(i)]);
  }
  std::map<std::string, int> index;
  for (const auto& q : pql) {
    auto [it, inserted] =
        index.emplace(q, static_cast<int>(in->distinct_pql.size()));
    if (inserted) {
      auto parsed = ParsePql(q);
      if (!parsed.ok()) {
        std::fprintf(stderr, "perfbench: bad query %s: %s\n", q.c_str(),
                     parsed.status().ToString().c_str());
        return false;
      }
      in->distinct_pql.push_back(q);
      in->distinct.push_back(std::move(*parsed));
    }
    in->mix.push_back(it->second);
  }

  const auto& rows = in->workload.rows;
  for (const Row& row : rows) {
    if (!plan.hybrid) {
      in->offline_rows.push_back(&row);
      in->precheck_rows.push_back(&row);
      continue;
    }
    const int64_t day = std::get<int64_t>(row.Get("day"));
    if (day <= kHybridLastOfflineDay) in->offline_rows.push_back(&row);
    if (day >= kHybridLastOfflineDay) in->stream_rows.push_back(&row);
    if (day < kHybridLastOfflineDay) in->precheck_rows.push_back(&row);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reference answers

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

std::vector<std::shared_ptr<SegmentInterface>> BuildUnindexed(
    const Schema& schema, const std::vector<const Row*>& rows,
    const std::string& table) {
  constexpr size_t kRowsPerSegment = 250000;
  std::vector<std::shared_ptr<SegmentInterface>> out;
  for (size_t begin = 0; begin < rows.size(); begin += kRowsPerSegment) {
    SegmentBuildConfig config;
    config.table_name = table;
    config.segment_name = "reference_" + std::to_string(out.size());
    SegmentBuilder builder(schema, config);
    const size_t end = std::min(rows.size(), begin + kRowsPerSegment);
    for (size_t i = begin; i < end; ++i) {
      Status st = builder.AddRow(*rows[i]);
      if (!st.ok()) Die("reference AddRow: " + st.ToString());
    }
    auto segment = builder.Build();
    if (!segment.ok()) Die("reference Build: " + segment.status().ToString());
    out.push_back(*segment);
  }
  return out;
}

std::vector<Reference> ComputeReferences(const Inputs& in,
                                         const std::vector<const Row*>& rows,
                                         ThreadPool* pool) {
  auto segments = BuildUnindexed(in.workload.schema, rows, in.workload.name);
  std::vector<Reference> out(in.distinct.size());
  pool->ParallelFor(static_cast<int>(out.size()), [&](int q) {
    out[q] = ComputeReference(segments, in.distinct[q]);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Cluster set-up

double ResidentMb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0;
  long long pages_total = 0;
  long long pages_resident = 0;
  const int n = std::fscanf(file, "%lld %lld", &pages_total, &pages_resident);
  std::fclose(file);
  if (n != 2) return 0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

struct SetupCounters {
  uint64_t rows = 0;
  uint64_t blob_bytes = 0;
};

struct Deployment {
  std::unique_ptr<PinotCluster> cluster;
  std::string offline_physical;
  std::string realtime_physical;
  StreamTopic* topic = nullptr;
  // Segments as built, by name, for the traced engine/filter replay.
  std::map<std::string, std::shared_ptr<SegmentInterface>> segments;
  SetupCounters counters;
};

Deployment Setup(const Inputs& in, const Plan& plan, SpanBuffer* spans) {
  Deployment d;
  PinotClusterOptions options;
  options.num_servers = kServers;
  options.num_brokers = 1;
  options.server_options.num_query_threads = kQueryThreadsPerServer;
  options.server_options.artificial_latency_micros = 0;
  options.broker_options.scatter_threads = kScatterThreads;
  d.cluster = std::make_unique<PinotCluster>(options);
  Controller* leader = d.cluster->leader_controller();
  if (leader == nullptr) Die("no leader controller");

  const Workload& w = in.workload;
  TableConfig offline;
  offline.name = w.name;
  offline.type = TableType::kOffline;
  offline.schema = w.schema;
  offline.num_replicas = plan.replicas;
  offline.sort_columns = w.pinot_config.sort_columns;
  offline.inverted_index_columns = w.pinot_config.inverted_index_columns;
  if (plan.partitioned) {
    offline.routing = RoutingStrategy::kPartitionAware;
    offline.partition_column = w.partition_column;
    offline.num_partitions = plan.offline_segments;
  }
  Status st = leader->AddTable(offline);
  if (!st.ok()) Die("AddTable: " + st.ToString());
  d.offline_physical = offline.PhysicalName();

  std::vector<std::vector<const Row*>> buckets(plan.offline_segments);
  for (size_t i = 0; i < in.offline_rows.size(); ++i) {
    const Row* row = in.offline_rows[i];
    const size_t b =
        plan.partitioned
            ? static_cast<size_t>(KafkaPartition(
                  ValueToString(row->Get(w.partition_column)),
                  plan.offline_segments))
            : i * plan.offline_segments / in.offline_rows.size();
    buckets[b].push_back(row);
  }
  for (int b = 0; b < plan.offline_segments; ++b) {
    SegmentBuildConfig build = w.pinot_config;
    build.table_name = d.offline_physical;
    build.segment_name = w.name + "_" + std::to_string(b);
    if (plan.partitioned) {
      build.partition_id = b;
      build.partition_column = w.partition_column;
      build.num_partitions = plan.offline_segments;
    }
    std::shared_ptr<ImmutableSegment> segment;
    {
      Scoped span(spans, "segment.build");
      SegmentBuilder builder(w.schema, build);
      for (const Row* row : buckets[b]) {
        Status add = builder.AddRow(*row);
        if (!add.ok()) Die("AddRow: " + add.ToString());
      }
      auto built = builder.Build();
      if (!built.ok()) Die("Build: " + built.status().ToString());
      segment = *built;
    }
    std::string blob;
    {
      Scoped span(spans, "segment.serialize");
      blob = segment->SerializeToBlob();
    }
    if (spans->enabled()) {
      Scoped span(spans, "segment.load");
      auto loaded = ImmutableSegment::DeserializeFromBlob(blob);
      if (!loaded.ok()) Die("DeserializeFromBlob: " + loaded.status().ToString());
    }
    {
      Scoped span(spans, "controller.upload");
      Status upload = leader->UploadSegment(d.offline_physical, blob);
      if (!upload.ok()) Die("UploadSegment: " + upload.ToString());
    }
    d.counters.rows += buckets[b].size();
    d.counters.blob_bytes += blob.size();
    d.segments[build.segment_name] = segment;
  }

  TableConfig realtime;
  realtime.name = in.realtime_table;
  realtime.type = TableType::kRealtime;
  realtime.schema = w.schema;
  realtime.num_replicas = 1;
  realtime.realtime.topic = in.realtime_table + "_topic";
  realtime.realtime.num_partitions = kStreamPartitions;
  realtime.realtime.flush_threshold_rows = plan.flush_rows;
  d.topic = d.cluster->streams()->GetOrCreateTopic(realtime.realtime.topic,
                                                   kStreamPartitions);
  st = leader->AddTable(realtime);
  if (!st.ok()) Die("AddTable realtime: " + st.ToString());
  d.realtime_physical = realtime.PhysicalName();
  return d;
}

// ---------------------------------------------------------------------------
// Load generation

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double MillisBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs one distinct query on behalf of load thread `thread`; returns false
/// when it failed.
using SendFn = std::function<bool(int query, int thread)>;

struct LoadResult {
  std::vector<double> latency_ms;  // Completed queries, from due time.
  std::vector<double> late_ms;     // Send time minus due time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
};

void Append(LoadResult* into, const LoadResult& part) {
  into->latency_ms.insert(into->latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
  into->late_ms.insert(into->late_ms.end(), part.late_ms.begin(),
                       part.late_ms.end());
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->elapsed_s += part.elapsed_s;
}

/// Open loop: queries are due at fixed intervals from the phase start
/// (slot k at k / qps). `threads` workers take the slots in order, so a slow
/// query holds up only its own worker; each query is timed from its due
/// time, so waiting for a free worker counts in its latency. Stops at the
/// phase end or when `stop` is set.
LoadResult OpenLoop(const SendFn& send, int threads, double qps,
                    double seconds, const std::vector<int>& order,
                    const std::atomic<bool>* stop = nullptr) {
  const auto start = SteadyClock::now() + std::chrono::milliseconds(5);
  const int64_t slots = static_cast<int64_t>(seconds * qps);
  std::atomic<int64_t> next_slot{0};
  std::vector<LoadResult> local(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoadResult& out = local[t];
      while (true) {
        const int64_t slot = next_slot.fetch_add(1);
        if (slot >= slots) break;
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
        const auto due =
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(slot / qps));
        std::this_thread::sleep_until(due);
        const auto sent = SteadyClock::now();
        const bool ok = send(order[slot % order.size()], t);
        const auto done = SteadyClock::now();
        ++out.attempted;
        if (!ok) ++out.failed;
        out.latency_ms.push_back(MillisBetween(due, done));
        out.late_ms.push_back(MillisBetween(due, sent));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  LoadResult all;
  for (auto& part : local) {
    all.latency_ms.insert(all.latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
    all.late_ms.insert(all.late_ms.end(), part.late_ms.begin(),
                       part.late_ms.end());
    all.attempted += part.attempted;
    all.failed += part.failed;
  }
  all.elapsed_s = MillisBetween(start, SteadyClock::now()) / 1000.0;
  return all;
}

/// Closed loop: `threads` clients each send the next query when the
/// previous one returns. The rate is counted from completions.
LoadResult ClosedLoop(const SendFn& send, int threads, double seconds,
                      const std::vector<int>& order, int64_t first_slot = 0) {
  const auto start = SteadyClock::now();
  const auto deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::atomic<int64_t> next_slot{first_slot};
  std::vector<LoadResult> local(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoadResult& out = local[t];
      while (SteadyClock::now() < deadline) {
        const auto sent = SteadyClock::now();
        const int64_t slot = next_slot.fetch_add(1);
        const bool ok = send(order[slot % order.size()], t);
        ++out.attempted;
        if (!ok) ++out.failed;
        out.latency_ms.push_back(MillisBetween(sent, SteadyClock::now()));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  LoadResult all;
  for (auto& part : local) {
    all.latency_ms.insert(all.latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
    all.attempted += part.attempted;
    all.failed += part.failed;
  }
  all.elapsed_s = MillisBetween(start, SteadyClock::now()) / 1000.0;
  return all;
}

// ---------------------------------------------------------------------------
// Ingestion

struct IngestResult {
  std::vector<double> freshness_ms;  // Per batch, fixed-rate phase only.
  std::vector<double> tick_ms;
  std::vector<double> commit_tick_ms;
  double non_commit_tick_us = 0;  // Ticks that indexed rows, no commit.
  uint64_t non_commit_rows = 0;
  uint64_t rows = 0;
  uint64_t batches = 0;
  uint64_t batches_indexed = 0;
  double elapsed_s = 0;
  size_t next_row = 0;  // First row not produced.
};

void Append(IngestResult* into, const IngestResult& part) {
  into->freshness_ms.insert(into->freshness_ms.end(), part.freshness_ms.begin(),
                            part.freshness_ms.end());
  into->tick_ms.insert(into->tick_ms.end(), part.tick_ms.begin(),
                       part.tick_ms.end());
  into->commit_tick_ms.insert(into->commit_tick_ms.end(),
                              part.commit_tick_ms.begin(),
                              part.commit_tick_ms.end());
  into->non_commit_tick_us += part.non_commit_tick_us;
  into->non_commit_rows += part.non_commit_rows;
  into->rows += part.rows;
  into->batches += part.batches;
  into->batches_indexed += part.batches_indexed;
  into->elapsed_s += part.elapsed_s;
  into->next_row = part.next_row;
}

class Ingester {
 public:
  /// Rows are keyed by `key_column` (the offline partition column, so a
  /// member's stream partition follows the same function); with no key
  /// column they are spread round-robin.
  Ingester(Deployment* d, SpanBuffer* spans, std::string key_column,
           std::function<void()> after_ticks = nullptr)
      : d_(d),
        spans_(spans),
        key_column_(std::move(key_column)),
        after_ticks_(std::move(after_ticks)) {
    flushes_ = d_->cluster->metrics()->GetCounter(
        "realtime_flush_total", {{"table", d_->realtime_physical}});
  }

  /// Streams `rows` at `rows_per_s` (0 = flat out) in batches and ticks the
  /// cluster's consumers after each production step, until every row is
  /// produced and indexed or `seconds` pass.
  IngestResult Run(const std::vector<const Row*>& rows, size_t begin,
                   size_t end, double rows_per_s, double seconds) {
    IngestResult out;
    const auto start = SteadyClock::now();
    const auto deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                                      std::chrono::duration<double>(seconds));
    const bool fixed_rate = rows_per_s > 0;
    const size_t batch_rows =
        fixed_rate ? std::max<size_t>(1, static_cast<size_t>(std::llround(
                                             rows_per_s * kIngestBatchMillis /
                                             1000.0)))
                   : kFlatOutBatchRows;
    struct Pending {
      SteadyClock::time_point due;
      uint64_t cumulative_rows;
    };
    std::vector<Pending> pending;
    size_t next_pending = 0;
    size_t next_row = begin;
    uint64_t produced = 0;
    uint64_t indexed = 0;
    int64_t batch = 0;
    while (true) {
      const auto now = SteadyClock::now();
      // Produce every batch that is due (flat out: one batch per tick).
      while (next_row < end) {
        const auto due =
            fixed_rate
                ? start + std::chrono::milliseconds(batch * kIngestBatchMillis)
                : now;
        if (fixed_rate && (due > now || due >= deadline)) break;
        const size_t stop_row = std::min(end, next_row + batch_rows);
        {
          Scoped span(spans_, "stream.produce");
          for (; next_row < stop_row; ++next_row) {
            const Row& row = *rows[next_row];
            if (key_column_.empty()) {
              d_->topic->ProduceToPartition(
                  static_cast<int>(next_row % kStreamPartitions), "", row);
            } else {
              d_->topic->Produce(ValueToString(row.Get(key_column_)), row);
            }
          }
        }
        produced = next_row - begin;
        pending.push_back({due, produced});
        ++batch;
        if (!fixed_rate) break;
      }
      if (indexed >= produced) {
        if (next_row >= end) break;
        if (SteadyClock::now() >= deadline) break;
        if (fixed_rate) {
          std::this_thread::sleep_until(
              start + std::chrono::milliseconds(batch * kIngestBatchMillis));
          continue;
        }
      }
      const uint64_t flushes_before = flushes_->Value();
      const auto tick_start = SteadyClock::now();
      int rows_now = 0;
      {
        Scoped span(spans_, "realtime.tick");
        rows_now = d_->cluster->ProcessRealtimeTicks(1);
      }
      const auto tick_end = SteadyClock::now();
      const double tick_ms = MillisBetween(tick_start, tick_end);
      indexed += rows_now;
      out.tick_ms.push_back(tick_ms);
      if (flushes_->Value() != flushes_before) {
        out.commit_tick_ms.push_back(tick_ms);
      } else if (rows_now > 0) {
        out.non_commit_tick_us += tick_ms * 1000.0;
        out.non_commit_rows += rows_now;
      }
      while (next_pending < pending.size() &&
             pending[next_pending].cumulative_rows <= indexed) {
        if (fixed_rate) {
          out.freshness_ms.push_back(
              MillisBetween(pending[next_pending].due, tick_end));
        }
        ++next_pending;
      }
      if (after_ticks_ && ++ticks_ % 10 == 0) after_ticks_();
      // Past the deadline, keep ticking until produced rows are indexed;
      // rows still unindexed after the grace period count as failed.
      if (rows_now == 0 && tick_end >= deadline + kIngestGrace) break;
    }
    out.next_row = next_row;
    out.elapsed_s = MillisBetween(start, SteadyClock::now()) / 1000.0;
    out.rows = indexed;
    out.batches = pending.size();
    out.batches_indexed = next_pending;
    return out;
  }

 private:
  Deployment* d_;
  SpanBuffer* spans_;
  std::string key_column_;
  std::function<void()> after_ticks_;
  Counter* flushes_ = nullptr;
  uint64_t ticks_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------
// The run

class Bench {
 public:
  Bench(Args args, Plan plan)
      : args_(std::move(args)), plan_(plan), spans_(args_.trace) {
    tracing_ = args_.trace;
    load_threads_ = std::max(
        1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
    for (int t = 0; t < load_threads_; ++t) {
      thread_spans_.push_back(spans_.NewBuffer());
    }
    main_spans_ = spans_.NewBuffer();
    ingest_spans_ = spans_.NewBuffer();
  }

  int Run() {
    const auto t0 = SteadyClock::now();
    if (!MakeInputs(args_.workload, plan_, args_.seed, &in_)) return 2;
    const double inputs_s = MillisBetween(t0, SteadyClock::now()) / 1000.0;

    // Set-up: repeated untraced for a median; once (traced) in a traced run.
    // RSS growth is taken over the first set-up only.
    const double rss_before = ResidentMb();
    std::vector<double> setup_s;
    double rss_growth = 0;
    const int repeats = args_.trace ? 1 : kSetupRepeats;
    for (int r = 0; r < repeats; ++r) {
      d_ = Deployment{};
      const auto s0 = SteadyClock::now();
      d_ = Setup(in_, plan_, main_spans_);
      setup_s.push_back(MillisBetween(s0, SteadyClock::now()) / 1000.0);
      if (r == 0) rss_growth = ResidentMb() - rss_before;
    }
    double hosted_bytes = 0;
    for (int i = 0; i < d_.cluster->num_servers(); ++i) {
      hosted_bytes += d_.cluster->server(i)->HostedDataBytes();
    }
    broker_ = d_.cluster->broker(0);

    const auto r0 = SteadyClock::now();
    ThreadPool check_pool(load_threads_);
    references_ = ComputeReferences(in_, in_.precheck_rows, &check_pool);
    if (plan_.hybrid) {
      std::vector<const Row*> all;
      for (const Row& row : in_.workload.rows) all.push_back(&row);
      final_references_ = ComputeReferences(in_, all, &check_pool);
    }
    if (args_.corrupt_reference && !references_.empty()) {
      references_[0].Corrupt();
    }
    std::printf("# workload %s seed %llu: %zu rows (%zu offline, %zu streamed"
                "), %zu distinct queries; inputs %.2f s, reference %.2f s\n",
                args_.workload.c_str(),
                static_cast<unsigned long long>(args_.seed),
                in_.workload.rows.size(), in_.offline_rows.size(),
                StreamRows().size(), in_.distinct.size(), inputs_s,
                MillisBetween(r0, SteadyClock::now()) / 1000.0);

    // Answer check before timing: every distinct query once.
    if (!CheckAll(references_, "before timing", &check_pool)) return 1;

    const auto& stream = StreamRows();
    Ingester ingester(&d_, ingest_spans_,
                      plan_.partitioned ? in_.workload.partition_column : "",
                      plan_.hybrid ? std::function<void()>([this] {
                        MonitorCount();
                      })
                                   : nullptr);
    // Per round. realtime_hybrid ingests at the fixed rate beside the open
    // loop and streams the rest of its rows flat out over the rounds; the
    // other workloads stream a slice of their rows into a separate table.
    const double s = args_.seconds;
    const double open_s = s * kOpenShare / kRounds;
    const double fixed_s = (plan_.hybrid ? s * kOpenShare : s * kIngestShare) /
                           kRounds;
    const double peak_s = s * kPeakShare / (kRounds * kPeakSlices);
    const size_t fixed_rows =
        static_cast<size_t>(plan_.ingest_rows_per_s * fixed_s);
    const size_t flat_rows =
        (stream.size() - std::min(stream.size(), fixed_rows * kRounds)) /
        kRounds;

    // Warm-up: a short closed loop brings every thread and core up to speed
    // before the first timed phase (idle virtual CPUs run slow for about a
    // second after they wake).
    tracing_ = false;
    const LoadResult warmup = ClosedLoop(Sender(!plan_.hybrid), load_threads_,
                                         kWarmupSeconds, Order(0));
    tracing_ = args_.trace;
    // Answers are checked as they come back on the read-only workloads; on
    // realtime_hybrid they change while rows arrive and are checked after
    // the final drain.
    const bool check = !plan_.hybrid;
    LoadResult open, peak, untraced_peak, beside_flat;
    IngestResult fixed, flat;
    std::vector<double> round_p50, round_peak, round_fresh, round_flat;
    size_t next_row = 0;
    // The peak runs in short slices spread over every round; the slices
    // continue one query order, so together they cover the whole mix. The
    // peak rate is the median slice, untraced.
    const std::vector<int> peak_order = Order(20);
    int64_t peak_slot = 0;
    std::vector<double> untraced_slice_qps;
    auto peak_slice = [&] {
      if (args_.trace) {
        // Tracing overhead: the slice runs untraced first in a traced run.
        tracing_ = false;
        const LoadResult untraced = ClosedLoop(Sender(check), load_threads_,
                                               peak_s, peak_order, peak_slot);
        untraced_slice_qps.push_back(untraced.attempted / untraced.elapsed_s);
        Append(&untraced_peak, untraced);
        tracing_ = true;
      }
      const LoadResult slice = ClosedLoop(Sender(check), load_threads_, peak_s,
                                          peak_order, peak_slot);
      peak_slot += static_cast<int64_t>(slice.attempted);
      round_peak.push_back(slice.attempted / slice.elapsed_s);
      Append(&peak, slice);
    };
    for (int r = 0; r < kRounds; ++r) {
      const size_t fixed_end = std::min(stream.size(), next_row + fixed_rows);
      IngestResult fixed_r;
      LoadResult open_r;
      if (plan_.hybrid) {
        std::thread writer([&] {
          fixed_r = ingester.Run(stream, next_row, fixed_end,
                                 plan_.ingest_rows_per_s, fixed_s);
        });
        open_r = OpenLoop(Sender(check), load_threads_, plan_.query_qps,
                          open_s, Order(10 + r));
        writer.join();
      } else {
        open_r = OpenLoop(Sender(check), load_threads_, plan_.query_qps,
                          open_s, Order(10 + r));
      }
      peak_slice();
      if (!plan_.hybrid) {
        fixed_r = ingester.Run(stream, next_row, fixed_end,
                               plan_.ingest_rows_per_s, fixed_s);
      }
      peak_slice();
      const size_t flat_end = r + 1 == kRounds
                                  ? stream.size()
                                  : std::min(stream.size(),
                                             fixed_r.next_row + flat_rows);
      IngestResult flat_r;
      if (plan_.hybrid) {
        std::atomic<bool> done{false};
        std::thread writer([&] {
          flat_r = ingester.Run(stream, fixed_r.next_row, flat_end, 0, 60);
          done = true;
        });
        Append(&beside_flat, OpenLoop(Sender(check), load_threads_,
                                      plan_.query_qps, 60, Order(30 + r),
                                      &done));
        writer.join();
      } else {
        flat_r = ingester.Run(stream, fixed_r.next_row, flat_end, 0, 60);
      }
      next_row = flat_r.next_row;
      peak_slice();
      round_p50.push_back(Quantile(open_r.latency_ms, 0.5));
      round_fresh.push_back(Quantile(fixed_r.freshness_ms, 0.5));
      round_flat.push_back(flat_r.rows / std::max(1e-9, flat_r.elapsed_s));
      Append(&open, open_r);
      Append(&fixed, fixed_r);
      Append(&flat, flat_r);
    }
    d_.cluster->DrainRealtime();
    if (plan_.hybrid) {
      if (!CheckAll(final_references_, "after ingest", &check_pool)) return 1;
    } else {
      CheckFreshCount(stream.size());
    }

    const uint64_t failed_batches =
        (fixed.batches - fixed.batches_indexed) +
        (flat.batches - flat.batches_indexed);
    const uint64_t attempted = warmup.attempted + open.attempted +
                               peak.attempted + untraced_peak.attempted +
                               beside_flat.attempted + fixed.batches +
                               flat.batches + checks_;
    const uint64_t failed = warmup.failed + open.failed + peak.failed +
                            untraced_peak.failed + beside_flat.failed +
                            failed_batches + check_failures_;
    const bool correct = mismatches_ == 0 && count_monotonic_;

    const std::vector<Metric> e2e = {
        {"setup_s", Median(setup_s), "s"},
        {"query_p50_ms", Min(round_p50), "ms"},
        {"ingest_freshness_p50_ms", Min(round_fresh), "ms"},
        {"ingest_peak_rows_per_s", Median(round_flat), "1/s"},
        {"hosted_mb", hosted_bytes / 1e6, "MB"},
        {"rss_mb", rss_growth, "MB"},
    };
    std::printf(
        "# open loop: %.0f qps offered, %.1f qps completed, %zu samples, "
        "generator late p99 %.3f ms; peak: %d clients, %llu queries; "
        "fixed ingest: %.0f rows/s offered, %llu rows, %zu batches, %zu "
        "commits; flat out: %llu rows in %.2f s\n",
        plan_.query_qps,
        (open.attempted - open.failed) / std::max(1e-9, open.elapsed_s),
        open.latency_ms.size(), Quantile(open.late_ms, 0.99), load_threads_,
        static_cast<unsigned long long>(peak.attempted),
        plan_.ingest_rows_per_s, static_cast<unsigned long long>(fixed.rows),
        fixed.freshness_ms.size(),
        fixed.commit_tick_ms.size() + flat.commit_tick_ms.size(),
        static_cast<unsigned long long>(flat.rows), flat.elapsed_s);
    // Tails are printed, not bounded: on a shared machine their run-to-run
    // spread is wider than any bound the benchmark may set (see README).
    std::printf("# open-loop latency (ms): p50 %.4f p90 %.4f p99 %.4f "
                "p99.9 %.4f; ingest freshness (ms): p50 %.4f p99 %.4f\n",
                Quantile(open.latency_ms, 0.50), Quantile(open.latency_ms, 0.90),
                Quantile(open.latency_ms, 0.99),
                Quantile(open.latency_ms, 0.999),
                Quantile(fixed.freshness_ms, 0.50),
                Quantile(fixed.freshness_ms, 0.99));
    auto list = [](const std::vector<double>& values) {
      std::string out;
      for (double v : values) out += " " + std::to_string(v);
      return out;
    };
    std::printf("# rounds: p50 ms%s; peak 1/s%s; freshness p50 ms%s; flat-out "
                "rows/s%s\n",
                list(round_p50).c_str(), list(round_peak).c_str(),
                list(round_fresh).c_str(), list(round_flat).c_str());
    if (plan_.hybrid) {
      std::printf("# queries beside flat-out ingest: %zu, p50 %.3f ms, p99 "
                  "%.3f ms\n",
                  beside_flat.latency_ms.size(),
                  Quantile(beside_flat.latency_ms, 0.5),
                  Quantile(beside_flat.latency_ms, 0.99));
    }
    std::printf("# fail_frac %.6f (%llu failed of %llu attempted), answers "
                "checked %llu, mismatches %llu\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(checks_),
                static_cast<unsigned long long>(mismatches_));
    // The peak rate is printed, not bounded: its run-to-run spread on a
    // shared machine is wider than any bound the benchmark may set (README).
    std::printf("# query_peak_qps %.4f 1/s (median of %zu untraced slices)\n",
                Median(args_.trace ? untraced_slice_qps : round_peak),
                round_peak.size());
    PrintMetrics("end-to-end", e2e);

    std::vector<Metric> out = e2e;
    if (args_.trace) {
      out = PerLayer(open, peak, untraced_peak, Median(untraced_slice_qps),
                     fixed, flat);
      PrintMetrics("per-layer (traced run)", out);
      PrintSelfTimes();
      if (!args_.spans_path.empty() && !spans_.Write(args_.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args_.spans_path.c_str());
      }
    }
    std::printf("%s\n", JsonLine(correct, attempted, failed, out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  // The order a phase sends queries in, as distinct-query indexes. Each
  // distinct query's occurrences in the generator's mix are spread evenly
  // (systematic sampling with a seeded offset per query and phase), so any
  // stretch of the order carries the mix's proportions; a phase that sends
  // only part of the mix still sends its hot and cold queries in the mix's
  // ratio.
  std::vector<int> Order(uint64_t phase) const {
    std::vector<int> count(in_.distinct.size(), 0);
    for (int q : in_.mix) ++count[q];
    Random rng(args_.seed * 0x9e3779b97f4a7c15ULL + phase);
    std::vector<std::pair<double, int>> keyed;
    keyed.reserve(in_.mix.size());
    for (size_t q = 0; q < count.size(); ++q) {
      const double offset = rng.NextDouble();
      for (int j = 0; j < count[q]; ++j) {
        keyed.emplace_back((j + offset) / count[q], static_cast<int>(q));
      }
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<int> order;
    order.reserve(keyed.size());
    for (const auto& entry : keyed) order.push_back(entry.second);
    return order;
  }

  const std::vector<const Row*>& StreamRows() {
    if (plan_.hybrid) return in_.stream_rows;
    if (stream_slice_.empty()) {
      const size_t n = std::min<size_t>(
          in_.offline_rows.size(),
          static_cast<size_t>(plan_.ingest_rows_per_s * args_.seconds *
                              kIngestShare) +
              plan_.flat_out_rows);
      stream_slice_.assign(in_.offline_rows.begin(),
                           in_.offline_rows.begin() + n);
    }
    return stream_slice_;
  }

  // One query through the client path: parse, then the broker. When
  // `check` is set the answer is compared with the reference.
  SendFn Sender(bool check) {
    return [this, check](int q, int thread) {
      SpanBuffer* spans = tracing_ ? thread_spans_[thread] : &disabled_;
      const int64_t qid = next_query_id_.fetch_add(1);
      Scoped root(spans, "query", qid);
      Result<Query> parsed = [&] {
        Scoped span(spans, "parser.parse", qid);
        return ParsePql(in_.distinct_pql[q]);
      }();
      if (!parsed.ok()) return false;
      QueryResult result;
      {
        Scoped span(spans, "broker.execute", qid);
        result = broker_->ExecuteQuery(*parsed);
      }
      if (tracing_) RecordReceipt(result);
      if (result.partial || result.throttled || !result.error_message.empty() ||
          result.latency_millis > 10000) {
        return false;
      }
      if (check) {
        const std::string diff = references_[q].Compare(result);
        if (!diff.empty()) {
          ReportMismatch(q, diff);
          return false;
        }
      }
      return true;
    };
  }

  bool CheckAll(const std::vector<Reference>& refs, const char* when,
                ThreadPool* pool) {
    const uint64_t mismatches_before = mismatches_;
    pool->ParallelFor(static_cast<int>(in_.distinct.size()), [&](int q) {
      QueryResult result = broker_->ExecuteQuery(in_.distinct[q]);
      const std::string diff = refs[q].Compare(result);
      if (!diff.empty()) ReportMismatch(q, std::string(when) + ": " + diff);
    });
    checks_ += in_.distinct.size();
    check_failures_ += mismatches_ - mismatches_before;
    return mismatches_ == 0;
  }

  void ReportMismatch(size_t q, const std::string& diff) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    ++mismatches_;
    if (mismatches_ <= 5) {
      std::fprintf(stderr, "perfbench: ANSWER MISMATCH for %s: %s\n",
                   in_.distinct_pql[q].c_str(), diff.c_str());
    }
  }

  // realtime_hybrid: count(*) must never decrease while rows stream in.
  void MonitorCount() {
    QueryResult result =
        broker_->Execute("SELECT count(*) FROM " + in_.realtime_table);
    if (result.partial || result.aggregates.empty()) {
      count_monotonic_ = false;
      return;
    }
    const double count = ValueToDouble(result.aggregates[0]);
    if (count < last_count_) {
      std::fprintf(stderr, "perfbench: count(*) went from %.0f to %.0f\n",
                   last_count_, count);
      count_monotonic_ = false;
    }
    last_count_ = count;
  }

  void CheckFreshCount(size_t expected) {
    QueryResult result =
        broker_->Execute("SELECT count(*) FROM " + in_.realtime_table);
    ++checks_;
    if (result.partial || result.aggregates.empty() ||
        ValueToDouble(result.aggregates[0]) != static_cast<double>(expected)) {
      ++check_failures_;
      std::lock_guard<std::mutex> lock(report_mutex_);
      ++mismatches_;
      std::fprintf(stderr, "perfbench: realtime count(*) is %s, streamed %zu\n",
                   result.aggregates.empty()
                       ? "missing"
                       : ValueToString(result.aggregates[0]).c_str(),
                   expected);
    }
  }

  void RecordReceipt(const QueryResult& result) {
    std::lock_guard<std::mutex> lock(report_mutex_);
    ++receipts_;
    receipt_calls_ += result.receipt.calls;
    receipt_hedges_ += result.receipt.hedges;
    receipt_payload_bytes_ += result.receipt.payload_bytes;
  }

  // --- Traced replay ---------------------------------------------------------

  struct Replay {
    std::vector<double> broker_us, server_us, merge_us, reduce_us, tax_us;
    std::vector<double> engine_us, segment_us, distinct_us, filter_us;
    double docs = 0, docs_scan_us = 0, matched = 0, filtered_docs = 0;
    uint64_t queries = 0;
  };

  Replay ReplayQueries() {
    Replay r;
    ThreadPool pool(kQueryThreadsPerServer);
    SpanBuffer* spans = main_spans_;
    std::map<std::string, Server*> servers;
    for (int i = 0; i < d_.cluster->num_servers(); ++i) {
      servers[d_.cluster->server(i)->id()] = d_.cluster->server(i);
    }
    const size_t n = std::min<size_t>(in_.distinct.size(), kReplayQueries);
    bool mix_has_distinct = false;
    for (const Query& query : in_.distinct) {
      mix_has_distinct |=
          query.aggregations[0].type == AggregationType::kDistinctCount;
    }
    for (size_t q = 0; q < n; ++q) {
      Query query = in_.distinct[q];
      // Workloads without DISTINCTCOUNT in their mix (the impression ones)
      // replay every tenth query's filter with distinctcount(itemId), so the
      // engine's DISTINCTCOUNT path is measured on every workload's data.
      const bool has_distinct =
          query.aggregations[0].type == AggregationType::kDistinctCount;
      const int64_t qid = next_query_id_.fetch_add(1);
      Scoped root(spans, "replay", qid);
      QueryResult result;
      const auto b0 = SteadyClock::now();
      {
        Scoped span(spans, "replay.broker_execute", qid);
        result = broker_->ExecuteQuery(query);
      }
      const double broker_us = MillisBetween(b0, SteadyClock::now()) * 1000;
      std::vector<PartialResult> partials;
      double slowest_server_us = 0;
      std::set<std::string> seen;
      std::vector<std::vector<std::shared_ptr<SegmentInterface>>> per_call;
      for (const auto& event : result.trace.events) {
        if (event.outcome != "ok") continue;
        auto server = servers.find(event.server);
        if (server == servers.end()) continue;
        std::vector<std::string> segments;
        for (const auto& s : event.segments) {
          if (seen.insert(event.physical_table + "/" + s).second) {
            segments.push_back(s);
          }
        }
        if (segments.empty()) continue;
        ServerQueryRequest request;
        request.physical_table = event.physical_table;
        request.query = query;
        request.segments = segments;
        request.tenant = "DefaultTenant";
        const auto s0 = SteadyClock::now();
        {
          Scoped span(spans, "server.execute", qid);
          partials.push_back(server->second->ExecuteServerQuery(request));
        }
        const double us = MillisBetween(s0, SteadyClock::now()) * 1000;
        r.server_us.push_back(us);
        slowest_server_us = std::max(slowest_server_us, us);
        std::vector<std::shared_ptr<SegmentInterface>> objects;
        for (const auto& s : segments) {
          auto it = d_.segments.find(s);
          if (it != d_.segments.end()) objects.push_back(it->second);
        }
        if (!objects.empty()) per_call.push_back(std::move(objects));
      }
      if (partials.empty()) continue;
      const auto m0 = SteadyClock::now();
      PartialResult merged = std::move(partials[0]);
      {
        Scoped span(spans, "broker.merge", qid);
        for (size_t i = 1; i < partials.size(); ++i) {
          merged.Merge(std::move(partials[i]));
        }
      }
      const double merge_us = MillisBetween(m0, SteadyClock::now()) * 1000;
      const auto r0 = SteadyClock::now();
      {
        Scoped span(spans, "broker.reduce", qid);
        QueryResult reduced = ReduceToFinalResult(query, std::move(merged));
        (void)reduced;
      }
      const double reduce_us = MillisBetween(r0, SteadyClock::now()) * 1000;
      r.broker_us.push_back(broker_us);
      r.merge_us.push_back(merge_us);
      r.reduce_us.push_back(reduce_us);
      r.tax_us.push_back(broker_us - slowest_server_us - merge_us - reduce_us);
      ++r.queries;

      Query distinct_probe = query;
      const bool probe = !mix_has_distinct && q % 10 == 0;
      if (probe) {
        distinct_probe.aggregations = {
            {AggregationType::kDistinctCount, "itemId"}};
        distinct_probe.group_by.clear();
      }
      for (const auto& objects : per_call) {
        const auto e0 = SteadyClock::now();
        {
          Scoped span(spans, "engine.execute", qid);
          PartialResult p = ExecuteQueryOnSegments(objects, query, &pool);
          (void)p;
        }
        r.engine_us.push_back(MillisBetween(e0, SteadyClock::now()) * 1000);
        for (const auto& segment : objects) {
          const auto g0 = SteadyClock::now();
          PartialResult p;
          {
            Scoped span(spans, "engine.segment", qid);
            p = ExecuteQueryOnSegments({segment}, query);
          }
          const double segment_us =
              MillisBetween(g0, SteadyClock::now()) * 1000;
          r.segment_us.push_back(segment_us);
          if (has_distinct) r.distinct_us.push_back(segment_us);
          if (probe) {
            const auto p0 = SteadyClock::now();
            {
              Scoped span(spans, "engine.distinctcount_probe", qid);
              PartialResult dp = ExecuteQueryOnSegments({segment},
                                                        distinct_probe);
              (void)dp;
            }
            r.distinct_us.push_back(MillisBetween(p0, SteadyClock::now()) *
                                    1000);
          }
          ExecutionStats stats;
          const auto f0 = SteadyClock::now();
          uint64_t matched = 0;
          {
            Scoped span(spans, "filter.eval", qid);
            FilterEvaluator evaluator(*segment, &stats);
            auto docs = evaluator.Evaluate(query.filter);
            if (docs.ok()) matched = docs->Cardinality();
          }
          const double filter_us = MillisBetween(f0, SteadyClock::now()) * 1000;
          r.filter_us.push_back(filter_us);
          r.matched += matched;
          r.filtered_docs += segment->num_docs();
          r.docs += p.stats.docs_scanned;
          r.docs_scan_us += std::max(0.0, segment_us - filter_us);
        }
      }
    }
    return r;
  }

  std::vector<Metric> PerLayer(const LoadResult& open, const LoadResult& peak,
                               const LoadResult& untraced_peak,
                               double peak_qps,
                               const IngestResult& fixed,
                               const IngestResult& flat) {
    const Replay r = ReplayQueries();
    auto durations = [this](const char* name) { return spans_.Durations(name); };
    auto sum = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return s;
    };
    const auto parse = durations("parser.parse");
    const auto execute = durations("broker.execute");
    const auto build = durations("segment.build");
    const auto serialize = durations("segment.serialize");
    const auto load = durations("segment.load");
    const auto upload = durations("controller.upload");
    const auto produce = durations("stream.produce");
    const double blob_mb = d_.counters.blob_bytes / 1e6;
    const double rows = std::max<uint64_t>(1, d_.counters.rows);
    const uint64_t streamed = fixed.rows + flat.rows;
    std::vector<double> ticks = fixed.tick_ms;
    ticks.insert(ticks.end(), flat.tick_ms.begin(), flat.tick_ms.end());
    std::vector<double> commits = fixed.commit_tick_ms;
    commits.insert(commits.end(), flat.commit_tick_ms.begin(),
                   flat.commit_tick_ms.end());
    const double receipts = std::max<uint64_t>(1, receipts_);
    const double broker_p50 = Median(r.broker_us);
    const double engine_p50 = Median(r.engine_us);
    std::printf(
        "# replay of %llu queries on the idle cluster: broker p50 %.1f us; "
        "share of it in one server's engine call %.2f, in dispatch tax "
        "%.2f\n",
        static_cast<unsigned long long>(r.queries), broker_p50,
        engine_p50 / broker_p50, Median(r.tax_us) / broker_p50);
    return {
        {"loadgen.late_p99_ms", Quantile(open.late_ms, 0.99), "ms"},
        {"loadgen.query_p99_ms", Quantile(open.latency_ms, 0.99), "ms"},
        {"loadgen.freshness_p99_ms", Quantile(fixed.freshness_ms, 0.99), "ms"},
        {"loadgen.peak_qps", peak_qps, "1/s"},
        {"parser.parse_us", Median(parse), "us"},
        {"broker.execute_us_p50", Quantile(execute, 0.5), "us"},
        {"broker.execute_us_p99", Quantile(execute, 0.99), "us"},
        {"broker.dispatch_tax_us", Median(r.tax_us), "us"},
        {"broker.merge_us", Median(r.merge_us), "us"},
        {"broker.reduce_us", Median(r.reduce_us), "us"},
        {"broker.calls_per_query", receipt_calls_ / receipts, "count"},
        {"broker.hedges_per_query", receipt_hedges_ / receipts, "count"},
        {"broker.payload_kb_per_query", receipt_payload_bytes_ / receipts / 1e3,
         "KB"},
        {"server.execute_us_p50", Quantile(r.server_us, 0.5), "us"},
        {"server.execute_us_p99", Quantile(r.server_us, 0.99), "us"},
        {"engine.execute_us", engine_p50, "us"},
        {"engine.segment_us", Median(r.segment_us), "us"},
        {"engine.distinctcount_us", Median(r.distinct_us), "us"},
        {"engine.docs_scanned_per_query", r.docs / std::max<uint64_t>(1, r.queries),
         "count"},
        {"engine.docs_per_us", r.docs / std::max(1e-9, r.docs_scan_us),
         "1/us"},
        {"filter.eval_us", Median(r.filter_us), "us"},
        {"filter.selectivity", r.matched / std::max(1.0, r.filtered_docs),
         "ratio"},
        {"segment.build_us_per_row", sum(build) / rows, "us"},
        {"segment.serialize_mb_per_s", blob_mb / (sum(serialize) / 1e6),
         "MB/s"},
        {"segment.load_mb_per_s", blob_mb / (sum(load) / 1e6), "MB/s"},
        {"segment.bytes_per_row", d_.counters.blob_bytes / rows, "B"},
        {"controller.upload_ms", Median(upload) / 1000, "ms"},
        {"stream.produce_us_per_row",
         sum(produce) / std::max<uint64_t>(1, streamed), "us"},
        {"realtime.tick_ms_p50", Quantile(ticks, 0.5), "ms"},
        {"realtime.tick_ms_p99", Quantile(ticks, 0.99), "ms"},
        {"realtime.index_us_per_row",
         (fixed.non_commit_tick_us + flat.non_commit_tick_us) /
             std::max<uint64_t>(1, fixed.non_commit_rows + flat.non_commit_rows),
         "us"},
        {"realtime.commit_ms", Median(commits), "ms"},
        {"realtime.commits", static_cast<double>(commits.size()), "count"},
        {"trace.overhead_peak_qps",
         untraced_peak.attempted / untraced_peak.elapsed_s -
             peak.attempted / peak.elapsed_s,
         "1/s"},
        {"trace.overhead_peak_p50_ms",
         Quantile(peak.latency_ms, 0.5) -
             Quantile(untraced_peak.latency_ms, 0.5),
         "ms"},
    };
  }

  void PrintSelfTimes() const {
    std::printf("# span self time: name count total_ms self_ms\n");
    for (const auto& [name, layer] : spans_.SelfTimes()) {
      std::printf("#   %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(layer.count),
                  layer.total_us / 1000, layer.self_us / 1000);
    }
  }

  Args args_;
  Plan plan_;
  Inputs in_;
  std::vector<const Row*> stream_slice_;
  std::vector<Reference> references_;
  std::vector<Reference> final_references_;
  Deployment d_;
  Broker* broker_ = nullptr;
  int load_threads_ = 1;

  SpanStore spans_;
  SpanBuffer disabled_{false};
  std::vector<SpanBuffer*> thread_spans_;
  SpanBuffer* main_spans_ = nullptr;
  SpanBuffer* ingest_spans_ = nullptr;
  bool tracing_ = false;
  std::atomic<int64_t> next_query_id_{0};

  std::mutex report_mutex_;
  uint64_t mismatches_ = 0;
  uint64_t checks_ = 0;
  uint64_t check_failures_ = 0;
  bool count_monotonic_ = true;
  double last_count_ = 0;
  uint64_t receipts_ = 0;
  double receipt_calls_ = 0;
  double receipt_hedges_ = 0;
  double receipt_payload_bytes_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  const perfbench::Plan plan = perfbench::PlanFor(args.workload, args.smoke);
  if (plan.rows == 0) {
    std::fprintf(stderr,
                 "perfbench: unknown --workload '%s' (anomaly_scan, "
                 "impression_lookup, realtime_hybrid)\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, plan);
  return bench.Run();
}
