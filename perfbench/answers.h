// Answer checking for the benchmark. The reference answer of a query comes
// from ExecuteQueryOnSegments + ReduceToFinalResult over segments built from
// the same rows with no indexes, in one process with no scatter, trim or
// merge. Group keys and integer values must match exactly; doubles get a
// tight relative tolerance (summation order differs between the paths).
// Rows tied on the ranking value at the TOP-n cut may be any of the tied
// groups, so a group-by answer is accepted when its ranking values equal
// the reference's top n and every row it returns carries the reference
// values for its key.

#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "query/result.h"
#include "query/table_executor.h"
#include "segment/segment.h"

namespace perfbench {

using pinot::Query;
using pinot::QueryResult;
using pinot::Value;

constexpr double kRelativeTolerance = 1e-9;

inline bool SameValue(const Value& a, const Value& b) {
  const double* da = std::get_if<double>(&a);
  const double* db = std::get_if<double>(&b);
  if (da != nullptr || db != nullptr) {
    const double x = da != nullptr ? *da : pinot::ValueToDouble(a);
    const double y = db != nullptr ? *db : pinot::ValueToDouble(b);
    return std::fabs(x - y) <=
           kRelativeTolerance * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

inline std::string KeyString(const std::vector<Value>& keys) {
  std::string out;
  for (const Value& key : keys) {
    const std::string rendered = pinot::ValueToString(key);
    out += std::to_string(rendered.size());
    out += ':';
    out += rendered;
  }
  return out;
}

/// The reference answer of one query, with every group kept.
class Reference {
 public:
  Reference() = default;
  Reference(const Query& query, QueryResult full) : top_n_(query.top_n),
                                                    full_(std::move(full)) {
    for (size_t i = 0; i < full_.group_rows.size(); ++i) {
      by_key_.emplace(KeyString(full_.group_rows[i].keys), i);
    }
  }

  /// Empty when `actual` matches; otherwise a one-line description of the
  /// first difference.
  std::string Compare(const QueryResult& actual) const {
    if (actual.partial || actual.throttled || !actual.error_message.empty()) {
      return "query failed: " + actual.error_message;
    }
    if (actual.aggregates.size() != full_.aggregates.size()) {
      return "aggregate count differs";
    }
    for (size_t i = 0; i < full_.aggregates.size(); ++i) {
      if (!SameValue(actual.aggregates[i], full_.aggregates[i])) {
        return "aggregate " + std::to_string(i) + " is " +
               pinot::ValueToString(actual.aggregates[i]) + ", reference " +
               pinot::ValueToString(full_.aggregates[i]);
      }
    }
    const size_t expected_rows =
        std::min(full_.group_rows.size(), static_cast<size_t>(top_n_));
    if (actual.group_rows.size() != expected_rows) {
      return "group rows " + std::to_string(actual.group_rows.size()) +
             ", reference " + std::to_string(expected_rows);
    }
    for (size_t r = 0; r < expected_rows; ++r) {
      const auto& row = actual.group_rows[r];
      if (row.values.empty() ||
          !SameValue(row.values[0], full_.group_rows[r].values[0])) {
        return "ranking value at row " + std::to_string(r) + " differs";
      }
      auto it = by_key_.find(KeyString(row.keys));
      if (it == by_key_.end()) {
        return "group " + KeyString(row.keys) + " not in reference";
      }
      const auto& ref = full_.group_rows[it->second].values;
      if (ref.size() != row.values.size()) return "group arity differs";
      for (size_t i = 0; i < ref.size(); ++i) {
        if (!SameValue(row.values[i], ref[i])) {
          return "group " + KeyString(row.keys) + " value " +
                 std::to_string(i) + " is " +
                 pinot::ValueToString(row.values[i]) + ", reference " +
                 pinot::ValueToString(ref[i]);
        }
      }
    }
    return "";
  }

  /// Makes the reference wrong on purpose (self-test of the checker).
  void Corrupt() {
    if (!full_.aggregates.empty()) {
      full_.aggregates[0] = Value(int64_t{-1});
    } else if (!full_.group_rows.empty()) {
      full_.group_rows[0].values[0] = Value(-1.0);
    }
  }

 private:
  int top_n_ = 0;
  QueryResult full_;
  std::unordered_map<std::string, size_t> by_key_;
};

/// Computes the reference answer over unindexed segments.
inline Reference ComputeReference(
    const std::vector<std::shared_ptr<pinot::SegmentInterface>>& segments,
    const Query& query) {
  Query all_groups = query;
  all_groups.top_n = std::numeric_limits<int>::max();
  pinot::PartialResult partial =
      pinot::ExecuteQueryOnSegments(segments, all_groups);
  return Reference(query,
                   pinot::ReduceToFinalResult(all_groups, std::move(partial)));
}

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
