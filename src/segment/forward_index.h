#ifndef PINOT_SEGMENT_FORWARD_INDEX_H_
#define PINOT_SEGMENT_FORWARD_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace pinot {

/// Fixed-bit-width packed vector of unsigned integers ("bit packing of
/// values", paper section 3.1). Width is chosen from the largest stored
/// value; a width of 0 is allowed for all-zero columns (cardinality 1).
class FixedBitVector {
 public:
  FixedBitVector() = default;

  /// Packs `values`; `max_value` determines the bit width.
  FixedBitVector(const std::vector<uint32_t>& values, uint32_t max_value);

  uint32_t Get(uint32_t index) const {
    if (bits_ == 0) return 0;
    const uint64_t bit_pos = static_cast<uint64_t>(index) * bits_;
    const uint64_t word_index = bit_pos >> 6;
    const int offset = static_cast<int>(bit_pos & 63);
    uint64_t value = words_[word_index] >> offset;
    if (offset + bits_ > 64) {
      value |= words_[word_index + 1] << (64 - offset);
    }
    return static_cast<uint32_t>(value & mask_);
  }

  /// Bulk decode of `count` consecutive values starting at `start` into
  /// `out`. Equivalent to calling Get for each index but unpacks a word at
  /// a time: widths that divide 64 (1/2/4/8/16/32) never straddle a word
  /// boundary and take an unrolled fast path; other widths take a generic
  /// shift path that still avoids the per-call position multiply.
  void GetBatch(uint32_t start, uint32_t count, uint32_t* out) const;

  uint32_t size() const { return size_; }
  int bits() const { return bits_; }
  uint64_t SizeInBytes() const { return words_.size() * sizeof(uint64_t); }

  void Serialize(ByteWriter* writer) const;
  static Result<FixedBitVector> Deserialize(ByteReader* reader);

  /// Bits needed to represent `max_value` (0 for max_value == 0).
  static int BitsFor(uint32_t max_value);

 private:
  std::vector<uint64_t> words_;
  uint32_t size_ = 0;
  int bits_ = 0;
  uint64_t mask_ = 0;
};

/// Dictionary-id forward index for one column of an immutable segment.
/// Single-value columns store one packed id per document; multi-value
/// columns store a packed offsets array plus a packed flattened id array.
class ForwardIndex {
 public:
  ForwardIndex() = default;

  static ForwardIndex BuildSingle(const std::vector<uint32_t>& dict_ids,
                                  uint32_t cardinality);
  static ForwardIndex BuildMulti(
      const std::vector<std::vector<uint32_t>>& dict_ids, uint32_t cardinality);

  bool single_value() const { return single_value_; }
  uint32_t num_docs() const { return num_docs_; }

  /// Single-value: dictionary id of `doc`.
  uint32_t Get(uint32_t doc) const { return values_.Get(doc); }

  /// Single-value: bulk decode of docs [start, start + count) into `out`.
  void GetRangeSingle(uint32_t start, uint32_t count, uint32_t* out) const {
    values_.GetBatch(start, count, out);
  }

  /// Multi-value: appends the ids of `doc` to `out` (clears it first).
  void GetMulti(uint32_t doc, std::vector<uint32_t>* out) const;

  /// Multi-value: total number of (doc, value) entries.
  uint32_t TotalEntries() const { return values_.size(); }

  uint64_t SizeInBytes() const {
    return values_.SizeInBytes() + offsets_.SizeInBytes();
  }

  /// Corruption unless every stored dict id (every entry, for multi-value)
  /// is below `cardinality`. One bulk-decode pass; segment loads run it so
  /// corrupt ids fail at load instead of indexing past the dictionary at
  /// query time.
  Status ValidateDictIds(uint32_t cardinality) const;

  void Serialize(ByteWriter* writer) const;
  static Result<ForwardIndex> Deserialize(ByteReader* reader);

 private:
  bool single_value_ = true;
  uint32_t num_docs_ = 0;
  FixedBitVector values_;   // Packed dict ids (flattened for multi-value).
  FixedBitVector offsets_;  // Multi-value only: num_docs_+1 offsets.
};

}  // namespace pinot

#endif  // PINOT_SEGMENT_FORWARD_INDEX_H_
