#include "segment/segment.h"

#include "common/hash.h"
#include "startree/star_tree.h"

namespace pinot {

namespace {
constexpr uint32_t kSegmentMagic = 0x50534547;  // "PSEG"
constexpr uint32_t kSegmentVersion = 1;
}  // namespace

uint64_t ImmutableSegment::Column::SizeInBytes() const {
  uint64_t total = dictionary_.SizeInBytes() + forward_.SizeInBytes();
  if (inverted_ != nullptr) total += inverted_->SizeInBytes();
  if (sorted_ != nullptr) total += sorted_->SizeInBytes();
  return total;
}

ImmutableSegment::ImmutableSegment(
    Schema schema, SegmentMetadata metadata,
    std::vector<std::unique_ptr<Column>> columns)
    : schema_(std::move(schema)),
      metadata_(std::move(metadata)),
      columns_(std::move(columns)) {
  for (int i = 0; i < static_cast<int>(columns_.size()); ++i) {
    column_index_[columns_[i]->spec().name] = i;
  }
}

ImmutableSegment::~ImmutableSegment() = default;

const ColumnReader* ImmutableSegment::GetColumn(
    const std::string& name) const {
  auto it = column_index_.find(name);
  return it == column_index_.end() ? nullptr : columns_[it->second].get();
}

ImmutableSegment::Column* ImmutableSegment::GetMutableColumn(
    const std::string& name) {
  auto it = column_index_.find(name);
  return it == column_index_.end() ? nullptr : columns_[it->second].get();
}

const StarTree* ImmutableSegment::star_tree() const {
  return star_tree_.get();
}

void ImmutableSegment::SetStarTree(std::unique_ptr<StarTree> tree) {
  star_tree_ = std::move(tree);
}

Status ImmutableSegment::CreateInvertedIndex(const std::string& column) {
  Column* col = GetMutableColumn(column);
  if (col == nullptr) {
    return Status::NotFound("no such column: " + column);
  }
  if (col->inverted_index() != nullptr) return Status::OK();
  auto index = std::make_unique<InvertedIndex>(
      InvertedIndex::BuildFromForwardIndex(col->forward_index(),
                                           col->dictionary().size()));
  col->SetInvertedIndex(std::move(index));
  return Status::OK();
}

Status ImmutableSegment::AddDefaultColumn(const FieldSpec& field) {
  if (column_index_.count(field.name) > 0) {
    return Status::AlreadyExists("column already exists: " + field.name);
  }
  if (!schema_.HasField(field.name)) {
    PINOT_RETURN_NOT_OK(schema_.AddField(field));
  }
  const Value default_value =
      schema_.EffectiveDefault(schema_.IndexOf(field.name));

  // Dictionary with a single entry; the forward index then packs zero bits
  // per document. Multi-value columns default to a one-element array of the
  // scalar zero value.
  Dictionary dictionary = [&] {
    switch (Dictionary::StorageFor(field.type)) {
      case Dictionary::Storage::kInt64: {
        int64_t v = 0;
        if (const auto* i = std::get_if<int64_t>(&default_value)) v = *i;
        return Dictionary::BuildSortedInt64({v});
      }
      case Dictionary::Storage::kDouble: {
        double v = 0.0;
        if (const auto* d = std::get_if<double>(&default_value)) v = *d;
        return Dictionary::BuildSortedDouble({v});
      }
      case Dictionary::Storage::kString: {
        std::string s;
        if (const auto* str = std::get_if<std::string>(&default_value)) {
          s = *str;
        }
        return Dictionary::BuildSortedString({std::move(s)});
      }
    }
    return Dictionary::BuildSortedInt64({0});
  }();

  ColumnStats stats;
  stats.cardinality = 1;
  stats.min_value = dictionary.ValueAt(0);
  stats.max_value = dictionary.ValueAt(0);
  stats.is_sorted = true;
  stats.total_entries = metadata_.num_docs;

  ForwardIndex forward;
  if (field.single_value) {
    forward = ForwardIndex::BuildSingle(
        std::vector<uint32_t>(metadata_.num_docs, 0), 1);
  } else {
    forward = ForwardIndex::BuildMulti(
        std::vector<std::vector<uint32_t>>(metadata_.num_docs, {0}), 1);
  }

  auto column = std::make_unique<Column>(field, std::move(dictionary),
                                         std::move(forward), stats);
  column_index_[field.name] = static_cast<int>(columns_.size());
  columns_.push_back(std::move(column));
  return Status::OK();
}

uint64_t ImmutableSegment::SizeInBytes() const {
  uint64_t total = 0;
  for (const auto& column : columns_) total += column->SizeInBytes();
  if (star_tree_ != nullptr) total += star_tree_->SizeInBytes();
  return total;
}

std::string ImmutableSegment::SerializeToBlob() const {
  // Body: schema + metadata + columns + star tree.
  ByteWriter body;
  schema_.Serialize(&body);

  body.WriteString(metadata_.table_name);
  body.WriteString(metadata_.segment_name);
  body.WriteU32(metadata_.num_docs);
  body.WriteI64(metadata_.min_time);
  body.WriteI64(metadata_.max_time);
  body.WriteI64(metadata_.creation_time_millis);
  body.WriteString(metadata_.sorted_column);
  body.WriteI32(metadata_.partition_id);
  body.WriteString(metadata_.partition_column);
  body.WriteI32(metadata_.num_partitions);

  body.WriteU32(static_cast<uint32_t>(columns_.size()));
  for (const auto& column : columns_) {
    body.WriteString(column->spec().name);
    column->dictionary().Serialize(&body);
    column->forward_index().Serialize(&body);
    const ColumnStats& stats = column->stats();
    body.WriteI32(stats.cardinality);
    WriteValue(stats.min_value, &body);
    WriteValue(stats.max_value, &body);
    body.WriteU8(stats.is_sorted ? 1 : 0);
    body.WriteU32(stats.total_entries);
    body.WriteU32(stats.max_entries_per_row);
    body.WriteU8(column->inverted_index() != nullptr ? 1 : 0);
    if (column->inverted_index() != nullptr) {
      column->inverted_index()->Serialize(&body);
    }
    body.WriteU8(column->sorted_index() != nullptr ? 1 : 0);
    if (column->sorted_index() != nullptr) {
      column->sorted_index()->Serialize(&body);
    }
  }

  body.WriteU8(star_tree_ != nullptr ? 1 : 0);
  if (star_tree_ != nullptr) star_tree_->Serialize(&body);

  // Envelope: magic, version, crc, body.
  ByteWriter envelope;
  envelope.WriteU32(kSegmentMagic);
  envelope.WriteU32(kSegmentVersion);
  envelope.WriteU32(Crc32(body.buffer()));
  envelope.WriteRaw(body.buffer().data(), body.size());
  return std::move(envelope.TakeBuffer());
}

Result<std::shared_ptr<ImmutableSegment>> ImmutableSegment::
    DeserializeFromBlob(std::string_view blob) {
  ByteReader reader(blob);
  PINOT_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kSegmentMagic) return Status::Corruption("bad segment magic");
  PINOT_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kSegmentVersion) {
    return Status::Corruption("unsupported segment version");
  }
  PINOT_ASSIGN_OR_RETURN(uint32_t crc, reader.ReadU32());
  const std::string_view body = blob.substr(reader.position());
  if (Crc32(body) != crc) {
    return Status::Corruption("segment crc mismatch");
  }

  PINOT_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(&reader));

  SegmentMetadata metadata;
  PINOT_ASSIGN_OR_RETURN(metadata.table_name, reader.ReadString());
  PINOT_ASSIGN_OR_RETURN(metadata.segment_name, reader.ReadString());
  PINOT_ASSIGN_OR_RETURN(metadata.num_docs, reader.ReadU32());
  PINOT_ASSIGN_OR_RETURN(metadata.min_time, reader.ReadI64());
  PINOT_ASSIGN_OR_RETURN(metadata.max_time, reader.ReadI64());
  PINOT_ASSIGN_OR_RETURN(metadata.creation_time_millis, reader.ReadI64());
  PINOT_ASSIGN_OR_RETURN(metadata.sorted_column, reader.ReadString());
  PINOT_ASSIGN_OR_RETURN(metadata.partition_id, reader.ReadI32());
  PINOT_ASSIGN_OR_RETURN(metadata.partition_column, reader.ReadString());
  PINOT_ASSIGN_OR_RETURN(metadata.num_partitions, reader.ReadI32());
  metadata.crc = crc;

  PINOT_ASSIGN_OR_RETURN(uint32_t num_columns, reader.ReadU32());
  std::vector<std::unique_ptr<Column>> columns;
  columns.reserve(num_columns);
  for (uint32_t i = 0; i < num_columns; ++i) {
    PINOT_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    const FieldSpec* spec = schema.GetField(name);
    if (spec == nullptr) {
      return Status::Corruption("column not in schema: " + name);
    }
    PINOT_ASSIGN_OR_RETURN(Dictionary dictionary,
                           Dictionary::Deserialize(&reader));
    PINOT_ASSIGN_OR_RETURN(ForwardIndex forward,
                           ForwardIndex::Deserialize(&reader));
    PINOT_RETURN_NOT_OK(forward.ValidateDictIds(
        static_cast<uint32_t>(dictionary.size())));
    ColumnStats stats;
    PINOT_ASSIGN_OR_RETURN(stats.cardinality, reader.ReadI32());
    PINOT_ASSIGN_OR_RETURN(stats.min_value, ReadValue(&reader));
    PINOT_ASSIGN_OR_RETURN(stats.max_value, ReadValue(&reader));
    PINOT_ASSIGN_OR_RETURN(uint8_t is_sorted, reader.ReadU8());
    stats.is_sorted = is_sorted != 0;
    PINOT_ASSIGN_OR_RETURN(stats.total_entries, reader.ReadU32());
    PINOT_ASSIGN_OR_RETURN(stats.max_entries_per_row, reader.ReadU32());
    auto column = std::make_unique<Column>(*spec, std::move(dictionary),
                                           std::move(forward), stats);
    PINOT_ASSIGN_OR_RETURN(uint8_t has_inverted, reader.ReadU8());
    if (has_inverted != 0) {
      PINOT_ASSIGN_OR_RETURN(InvertedIndex inverted,
                             InvertedIndex::Deserialize(&reader));
      column->SetInvertedIndex(
          std::make_unique<InvertedIndex>(std::move(inverted)));
    }
    PINOT_ASSIGN_OR_RETURN(uint8_t has_sorted, reader.ReadU8());
    if (has_sorted != 0) {
      PINOT_ASSIGN_OR_RETURN(SortedIndex sorted,
                             SortedIndex::Deserialize(&reader));
      column->SetSortedIndex(std::make_unique<SortedIndex>(std::move(sorted)));
    }
    columns.push_back(std::move(column));
  }

  auto segment = std::make_shared<ImmutableSegment>(
      std::move(schema), std::move(metadata), std::move(columns));

  PINOT_ASSIGN_OR_RETURN(uint8_t has_star_tree, reader.ReadU8());
  if (has_star_tree != 0) {
    PINOT_ASSIGN_OR_RETURN(StarTree tree, StarTree::Deserialize(&reader));
    segment->SetStarTree(std::make_unique<StarTree>(std::move(tree)));
  }
  return segment;
}

}  // namespace pinot
