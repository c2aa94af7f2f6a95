#include "segment/forward_index.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace pinot {

namespace {

// Word-at-a-time unpacking for widths that divide 64: values never straddle
// a word boundary, so each 64-bit word yields exactly 64/kBits values with
// an unrolled inner loop. `words` must have one pad word past the last
// value (the FixedBitVector buffer guarantees this).
template <int kBits>
void UnpackAligned(const uint64_t* words, uint32_t start, uint32_t count,
                   uint32_t* out) {
  constexpr int kPerWord = 64 / kBits;
  constexpr uint64_t kMask = (uint64_t{1} << kBits) - 1;
  const uint64_t bit_pos = static_cast<uint64_t>(start) * kBits;
  uint64_t w = bit_pos >> 6;
  uint32_t i = 0;
  const int offset = static_cast<int>(bit_pos & 63);
  if (offset != 0) {
    // Leading partial word.
    uint64_t word = words[w] >> offset;
    const uint32_t take = std::min<uint32_t>((64 - offset) / kBits, count);
    for (uint32_t k = 0; k < take; ++k) {
      out[i++] = static_cast<uint32_t>(word & kMask);
      word >>= kBits;
    }
    ++w;
  }
  for (; count - i >= static_cast<uint32_t>(kPerWord); ++w, i += kPerWord) {
    const uint64_t word = words[w];
    for (int k = 0; k < kPerWord; ++k) {
      out[i + k] = static_cast<uint32_t>((word >> (k * kBits)) & kMask);
    }
  }
  if (i < count) {
    // Trailing partial word.
    uint64_t word = words[w];
    for (; i < count; ++i) {
      out[i] = static_cast<uint32_t>(word & kMask);
      word >>= kBits;
    }
  }
}

// Calls fn(chunk, n) over the values of `v` in decoded chunks.
template <typename Fn>
void ForEachDecodedChunk(const FixedBitVector& v, Fn&& fn) {
  constexpr uint32_t kChunk = 4096;
  uint32_t chunk[kChunk];
  for (uint32_t start = 0; start < v.size(); start += kChunk) {
    const uint32_t n = std::min(kChunk, v.size() - start);
    v.GetBatch(start, n, chunk);
    fn(chunk, n);
  }
}

}  // namespace

int FixedBitVector::BitsFor(uint32_t max_value) {
  int bits = 0;
  while (max_value != 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

FixedBitVector::FixedBitVector(const std::vector<uint32_t>& values,
                               uint32_t max_value)
    : size_(static_cast<uint32_t>(values.size())),
      bits_(BitsFor(max_value)) {
  mask_ = bits_ == 0 ? 0 : (~uint64_t{0} >> (64 - bits_));
  if (bits_ == 0) return;
  const uint64_t total_bits = static_cast<uint64_t>(size_) * bits_;
  words_.assign((total_bits + 63) / 64 + 1, 0);
  for (uint32_t i = 0; i < size_; ++i) {
    assert(values[i] <= max_value);
    const uint64_t bit_pos = static_cast<uint64_t>(i) * bits_;
    const uint64_t word_index = bit_pos >> 6;
    const int offset = static_cast<int>(bit_pos & 63);
    words_[word_index] |= static_cast<uint64_t>(values[i]) << offset;
    if (offset + bits_ > 64) {
      words_[word_index + 1] |=
          static_cast<uint64_t>(values[i]) >> (64 - offset);
    }
  }
}

void FixedBitVector::GetBatch(uint32_t start, uint32_t count,
                              uint32_t* out) const {
  assert(static_cast<uint64_t>(start) + count <= size_);
  if (count == 0) return;
  if (bits_ == 0) {
    std::fill_n(out, count, 0u);
    return;
  }
  const uint64_t* words = words_.data();
  switch (bits_) {
    case 1:
      UnpackAligned<1>(words, start, count, out);
      return;
    case 2:
      UnpackAligned<2>(words, start, count, out);
      return;
    case 4:
      UnpackAligned<4>(words, start, count, out);
      return;
    case 8:
      UnpackAligned<8>(words, start, count, out);
      return;
    case 16:
      UnpackAligned<16>(words, start, count, out);
      return;
    case 32:
      UnpackAligned<32>(words, start, count, out);
      return;
    default:
      break;
  }
  // Generic path: advance the bit cursor instead of recomputing the
  // position multiply per value; the buffer's pad word makes the
  // straddling words[w + 1] read safe for the last value.
  uint64_t bit_pos = static_cast<uint64_t>(start) * bits_;
  for (uint32_t i = 0; i < count; ++i, bit_pos += bits_) {
    const uint64_t w = bit_pos >> 6;
    const int offset = static_cast<int>(bit_pos & 63);
    uint64_t value = words[w] >> offset;
    if (offset + bits_ > 64) {
      value |= words[w + 1] << (64 - offset);
    }
    out[i] = static_cast<uint32_t>(value & mask_);
  }
}

void FixedBitVector::Serialize(ByteWriter* writer) const {
  writer->WriteU32(size_);
  writer->WriteU32(static_cast<uint32_t>(bits_));
  writer->WriteU64(words_.size());
  writer->WriteRaw(words_.data(), words_.size() * sizeof(uint64_t));
}

Result<FixedBitVector> FixedBitVector::Deserialize(ByteReader* reader) {
  FixedBitVector v;
  PINOT_ASSIGN_OR_RETURN(v.size_, reader->ReadU32());
  PINOT_ASSIGN_OR_RETURN(uint32_t bits, reader->ReadU32());
  if (bits > 32) return Status::Corruption("bad bit width");
  v.bits_ = static_cast<int>(bits);
  v.mask_ = v.bits_ == 0 ? 0 : (~uint64_t{0} >> (64 - v.bits_));
  PINOT_ASSIGN_OR_RETURN(uint64_t num_words, reader->ReadU64());
  // The word count is fully determined by (size, bits): the packing
  // constructor allocates (size * bits + 63) / 64 words plus one pad word
  // (none at width 0). Validating it before the resize bounds the
  // allocation against corrupt or hostile input.
  const uint64_t total_bits = static_cast<uint64_t>(v.size_) * v.bits_;
  const uint64_t expected_words =
      v.bits_ == 0 ? 0 : (total_bits + 63) / 64 + 1;
  if (num_words != expected_words) {
    return Status::Corruption("bit vector word count inconsistent with size");
  }
  v.words_.resize(num_words);
  PINOT_RETURN_NOT_OK(
      reader->ReadRaw(v.words_.data(), num_words * sizeof(uint64_t)));
  return v;
}

ForwardIndex ForwardIndex::BuildSingle(const std::vector<uint32_t>& dict_ids,
                                       uint32_t cardinality) {
  ForwardIndex index;
  index.single_value_ = true;
  index.num_docs_ = static_cast<uint32_t>(dict_ids.size());
  const uint32_t max_id = cardinality == 0 ? 0 : cardinality - 1;
  index.values_ = FixedBitVector(dict_ids, max_id);
  return index;
}

ForwardIndex ForwardIndex::BuildMulti(
    const std::vector<std::vector<uint32_t>>& dict_ids, uint32_t cardinality) {
  ForwardIndex index;
  index.single_value_ = false;
  index.num_docs_ = static_cast<uint32_t>(dict_ids.size());
  std::vector<uint32_t> flat;
  std::vector<uint32_t> offsets;
  offsets.reserve(dict_ids.size() + 1);
  offsets.push_back(0);
  for (const auto& ids : dict_ids) {
    flat.insert(flat.end(), ids.begin(), ids.end());
    offsets.push_back(static_cast<uint32_t>(flat.size()));
  }
  const uint32_t max_id = cardinality == 0 ? 0 : cardinality - 1;
  index.values_ = FixedBitVector(flat, max_id);
  index.offsets_ =
      FixedBitVector(offsets, offsets.empty() ? 0 : offsets.back());
  return index;
}

Status ForwardIndex::ValidateDictIds(uint32_t cardinality) const {
  uint32_t max_id = 0;
  ForEachDecodedChunk(values_, [&](const uint32_t* ids, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) max_id = std::max(max_id, ids[i]);
  });
  if (values_.size() > 0 && max_id >= cardinality) {
    return Status::Corruption("forward index dict id " +
                              std::to_string(max_id) +
                              " >= dictionary size " +
                              std::to_string(cardinality));
  }
  return Status::OK();
}

void ForwardIndex::GetMulti(uint32_t doc, std::vector<uint32_t>* out) const {
  assert(!single_value_);
  out->clear();
  const uint32_t begin = offsets_.Get(doc);
  const uint32_t end = offsets_.Get(doc + 1);
  out->reserve(end - begin);
  for (uint32_t i = begin; i < end; ++i) out->push_back(values_.Get(i));
}

void ForwardIndex::Serialize(ByteWriter* writer) const {
  writer->WriteU8(single_value_ ? 1 : 0);
  writer->WriteU32(num_docs_);
  values_.Serialize(writer);
  if (!single_value_) offsets_.Serialize(writer);
}

Result<ForwardIndex> ForwardIndex::Deserialize(ByteReader* reader) {
  ForwardIndex index;
  PINOT_ASSIGN_OR_RETURN(uint8_t sv, reader->ReadU8());
  index.single_value_ = sv != 0;
  PINOT_ASSIGN_OR_RETURN(index.num_docs_, reader->ReadU32());
  PINOT_ASSIGN_OR_RETURN(index.values_, FixedBitVector::Deserialize(reader));
  if (index.single_value_) {
    if (index.values_.size() != index.num_docs_) {
      return Status::Corruption("forward index value count != num docs");
    }
  } else {
    PINOT_ASSIGN_OR_RETURN(index.offsets_,
                           FixedBitVector::Deserialize(reader));
    if (index.offsets_.size() !=
        static_cast<uint64_t>(index.num_docs_) + 1) {
      return Status::Corruption("forward index offset count != num docs + 1");
    }
    if (index.offsets_.Get(index.num_docs_) != index.values_.size()) {
      return Status::Corruption("forward index offsets exceed value count");
    }
    // Non-decreasing offsets keep every doc's [begin, end) inside values_.
    bool sorted = true;
    uint32_t prev = 0;
    ForEachDecodedChunk(index.offsets_, [&](const uint32_t* offsets,
                                            uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        sorted &= offsets[i] >= prev;
        prev = offsets[i];
      }
    });
    if (!sorted) return Status::Corruption("forward index offsets decrease");
  }
  return index;
}

}  // namespace pinot
