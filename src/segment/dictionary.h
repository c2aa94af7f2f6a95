#ifndef PINOT_SEGMENT_DICTIONARY_H_
#define PINOT_SEGMENT_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "data/data_type.h"
#include "data/value.h"

namespace pinot {

/// Per-column dictionary (paper section 3.1: "Various encoding strategies
/// are used to minimize the data size, including dictionary encoding and bit
/// packing of values").
///
/// Two modes:
///  - Immutable (offline segments): ids are assigned in sorted value order,
///    so range predicates translate to contiguous dictionary-id ranges and
///    the physically sorted column is also sorted by dictionary id.
///  - Mutable (realtime consuming segments): ids are assigned in arrival
///    order via GetOrAdd; lookups use a hash map and range predicates fall
///    back to scanning the dictionary.
class Dictionary {
 public:
  /// Inclusive dictionary-id interval; empty when lo > hi.
  struct IdRange {
    int lo = 0;
    int hi = -1;
    bool empty() const { return lo > hi; }
  };

  /// Builds an immutable sorted dictionary from arbitrary (possibly
  /// duplicated) integral values.
  static Dictionary BuildSortedInt64(std::vector<int64_t> values);
  static Dictionary BuildSortedDouble(std::vector<double> values);
  static Dictionary BuildSortedString(std::vector<std::string> values);

  /// Creates an empty mutable dictionary for a realtime segment column.
  static Dictionary CreateMutable(DataType type);

  /// Internal storage class for a column type.
  enum class Storage { kInt64, kDouble, kString };
  static Storage StorageFor(DataType type);

  int size() const;
  bool sorted() const { return sorted_; }
  Storage storage() const { return storage_; }

  /// Id for a value, or -1 when absent. The value must match the storage
  /// class (int64 for integral columns, etc.).
  int IndexOf(const Value& value) const;
  int IndexOfInt64(int64_t v) const;
  int IndexOfDouble(double v) const;
  int IndexOfString(const std::string& v) const;

  /// Mutable mode only: returns the id for the value, adding it if new.
  int GetOrAdd(const Value& value);

  Value ValueAt(int dict_id) const;
  int64_t Int64At(int dict_id) const { return int64_values_[dict_id]; }
  double DoubleAt(int dict_id) const { return double_values_[dict_id]; }
  const std::string& StringAt(int dict_id) const {
    return string_values_[dict_id];
  }

  /// Numeric view of the value at `dict_id` (strings -> 0); used by metric
  /// aggregation.
  double DoubleValueAt(int dict_id) const;

  /// The typed value array itself, indexed by dict id, for kernels that
  /// read many values in place. Only the array matching storage() is
  /// populated. The pointer stays valid until a mutable dictionary grows.
  const int64_t* int64_data() const { return int64_values_.data(); }
  const double* double_data() const { return double_values_.data(); }

  /// Sorted mode only: inclusive dict-id range matching
  /// (lower, upper) with the given inclusiveness. Null bounds are
  /// unbounded. E.g. x > 5 -> RangeFor(5, exclusive, none).
  IdRange RangeFor(const std::optional<Value>& lower, bool lower_inclusive,
                   const std::optional<Value>& upper,
                   bool upper_inclusive) const;

  /// Compares the value at `dict_id` against `v`; returns <0, 0, >0. Used
  /// by unsorted (realtime) dictionaries to evaluate range predicates by
  /// scanning ids.
  int CompareValueAt(int dict_id, const Value& v) const;

  /// Smallest / largest value in the dictionary (by value order, regardless
  /// of mode). Dictionary must be non-empty.
  Value MinValue() const;
  Value MaxValue() const;

  /// Converts this (possibly mutable) dictionary into a sorted immutable
  /// one. Returns the new dictionary and fills `old_to_new` with the id
  /// remapping, used when sealing a realtime segment.
  Dictionary ToSorted(std::vector<int>* old_to_new) const;

  void Serialize(ByteWriter* writer) const;
  static Result<Dictionary> Deserialize(ByteReader* reader);

  /// Approximate heap bytes used (for index-size comparisons).
  uint64_t SizeInBytes() const;

 private:
  Dictionary(Storage storage, bool sorted)
      : storage_(storage), sorted_(sorted) {}

  Storage storage_ = Storage::kInt64;
  bool sorted_ = true;

  // Exactly one of these is populated, per storage_.
  std::vector<int64_t> int64_values_;
  std::vector<double> double_values_;
  std::vector<std::string> string_values_;

  // Mutable mode: value -> id.
  std::unordered_map<int64_t, int> int64_map_;
  std::unordered_map<double, int> double_map_;
  std::unordered_map<std::string, int> string_map_;
};

}  // namespace pinot

#endif  // PINOT_SEGMENT_DICTIONARY_H_
