#include "segment/segment_store.h"

#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "metrics/metrics.h"
#include "startree/star_tree.h"

namespace pinot {

namespace {

constexpr uint32_t kMetadataMagic = 0x504d4554;  // "PMET"
constexpr uint32_t kMetadataVersion = 1;

enum class BlockKind : uint8_t {
  kDictionary = 0,
  kForward = 1,
  kInverted = 2,
  kSorted = 3,
  kStarTree = 4,
};

struct DirectoryEntry {
  BlockKind kind = BlockKind::kDictionary;
  std::string column;  // Empty for the star-tree block.
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

Status WriteFile(const std::string& path, const std::string& contents,
                 bool atomic) {
  const std::string target = atomic ? path + ".tmp" : path;
  {
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open for write: " + target);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    if (!out) return Status::Internal("write failed: " + target);
  }
  if (atomic) {
    std::error_code ec;
    std::filesystem::rename(target, path, ec);
    if (ec) return Status::Internal("rename failed: " + path);
  }
  return Status::OK();
}

Status AppendFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::Internal("cannot open for append: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::Internal("append failed: " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return contents;
}

std::string MetadataPath(const std::string& dir) {
  return dir + "/metadata.bin";
}
std::string IndexPath(const std::string& dir) { return dir + "/index.bin"; }

void WriteSegmentMetadata(const SegmentMetadata& meta, ByteWriter* writer) {
  writer->WriteString(meta.table_name);
  writer->WriteString(meta.segment_name);
  writer->WriteU32(meta.num_docs);
  writer->WriteI64(meta.min_time);
  writer->WriteI64(meta.max_time);
  writer->WriteI64(meta.creation_time_millis);
  writer->WriteString(meta.sorted_column);
  writer->WriteI32(meta.partition_id);
  writer->WriteString(meta.partition_column);
  writer->WriteI32(meta.num_partitions);
}

Result<SegmentMetadata> ReadSegmentMetadata(ByteReader* reader) {
  SegmentMetadata meta;
  PINOT_ASSIGN_OR_RETURN(meta.table_name, reader->ReadString());
  PINOT_ASSIGN_OR_RETURN(meta.segment_name, reader->ReadString());
  PINOT_ASSIGN_OR_RETURN(meta.num_docs, reader->ReadU32());
  PINOT_ASSIGN_OR_RETURN(meta.min_time, reader->ReadI64());
  PINOT_ASSIGN_OR_RETURN(meta.max_time, reader->ReadI64());
  PINOT_ASSIGN_OR_RETURN(meta.creation_time_millis, reader->ReadI64());
  PINOT_ASSIGN_OR_RETURN(meta.sorted_column, reader->ReadString());
  PINOT_ASSIGN_OR_RETURN(meta.partition_id, reader->ReadI32());
  PINOT_ASSIGN_OR_RETURN(meta.partition_column, reader->ReadString());
  PINOT_ASSIGN_OR_RETURN(meta.num_partitions, reader->ReadI32());
  return meta;
}

void WriteColumnStats(const ColumnStats& stats, ByteWriter* writer) {
  writer->WriteI32(stats.cardinality);
  WriteValue(stats.min_value, writer);
  WriteValue(stats.max_value, writer);
  writer->WriteU8(stats.is_sorted ? 1 : 0);
  writer->WriteU32(stats.total_entries);
  writer->WriteU32(stats.max_entries_per_row);
}

Result<ColumnStats> ReadColumnStats(ByteReader* reader) {
  ColumnStats stats;
  PINOT_ASSIGN_OR_RETURN(stats.cardinality, reader->ReadI32());
  PINOT_ASSIGN_OR_RETURN(stats.min_value, ReadValue(reader));
  PINOT_ASSIGN_OR_RETURN(stats.max_value, ReadValue(reader));
  PINOT_ASSIGN_OR_RETURN(uint8_t sorted, reader->ReadU8());
  stats.is_sorted = sorted != 0;
  PINOT_ASSIGN_OR_RETURN(stats.total_entries, reader->ReadU32());
  PINOT_ASSIGN_OR_RETURN(stats.max_entries_per_row, reader->ReadU32());
  return stats;
}

struct ParsedMetadata {
  Schema schema;
  SegmentMetadata metadata;
  std::vector<std::pair<std::string, ColumnStats>> columns;
  std::vector<DirectoryEntry> entries;
};

std::string EncodeMetadata(const ParsedMetadata& meta) {
  ByteWriter writer;
  writer.WriteU32(kMetadataMagic);
  writer.WriteU32(kMetadataVersion);
  meta.schema.Serialize(&writer);
  WriteSegmentMetadata(meta.metadata, &writer);
  writer.WriteU32(static_cast<uint32_t>(meta.columns.size()));
  for (const auto& [name, stats] : meta.columns) {
    writer.WriteString(name);
    WriteColumnStats(stats, &writer);
  }
  writer.WriteU32(static_cast<uint32_t>(meta.entries.size()));
  for (const auto& entry : meta.entries) {
    writer.WriteU8(static_cast<uint8_t>(entry.kind));
    writer.WriteString(entry.column);
    writer.WriteU64(entry.offset);
    writer.WriteU64(entry.size);
    writer.WriteU32(entry.crc);
  }
  return writer.TakeBuffer();
}

Result<ParsedMetadata> DecodeMetadata(const std::string& encoded) {
  ByteReader reader(encoded);
  PINOT_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMetadataMagic) {
    return Status::Corruption("bad segment metadata magic");
  }
  PINOT_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kMetadataVersion) {
    return Status::Corruption("unsupported segment metadata version");
  }
  ParsedMetadata meta;
  PINOT_ASSIGN_OR_RETURN(meta.schema, Schema::Deserialize(&reader));
  PINOT_ASSIGN_OR_RETURN(meta.metadata, ReadSegmentMetadata(&reader));
  PINOT_ASSIGN_OR_RETURN(uint32_t num_columns, reader.ReadU32());
  for (uint32_t i = 0; i < num_columns; ++i) {
    PINOT_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    PINOT_ASSIGN_OR_RETURN(ColumnStats stats, ReadColumnStats(&reader));
    meta.columns.emplace_back(std::move(name), std::move(stats));
  }
  PINOT_ASSIGN_OR_RETURN(uint32_t num_entries, reader.ReadU32());
  for (uint32_t i = 0; i < num_entries; ++i) {
    DirectoryEntry entry;
    PINOT_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());
    if (kind > static_cast<uint8_t>(BlockKind::kStarTree)) {
      return Status::Corruption("bad block kind");
    }
    entry.kind = static_cast<BlockKind>(kind);
    PINOT_ASSIGN_OR_RETURN(entry.column, reader.ReadString());
    PINOT_ASSIGN_OR_RETURN(entry.offset, reader.ReadU64());
    PINOT_ASSIGN_OR_RETURN(entry.size, reader.ReadU64());
    PINOT_ASSIGN_OR_RETURN(entry.crc, reader.ReadU32());
    meta.entries.push_back(std::move(entry));
  }
  return meta;
}

// Returns the CRC-verified payload slice of `entry` within the index file.
Result<std::string_view> SliceBlock(const std::string& index_contents,
                                    const DirectoryEntry& entry) {
  if (entry.offset + entry.size > index_contents.size()) {
    return Status::Corruption("index block out of bounds");
  }
  const std::string_view slice(index_contents.data() + entry.offset,
                               entry.size);
  if (Crc32(slice) != entry.crc) {
    return Status::Corruption("index block crc mismatch");
  }
  return slice;
}

const DirectoryEntry* FindEntry(const std::vector<DirectoryEntry>& entries,
                                BlockKind kind, const std::string& column) {
  for (const auto& entry : entries) {
    if (entry.kind == kind && entry.column == column) return &entry;
  }
  return nullptr;
}

}  // namespace

Status SaveSegmentToDirectory(const ImmutableSegment& segment,
                              const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create directory: " + dir);

  ParsedMetadata meta;
  meta.schema = segment.schema();
  meta.metadata = segment.metadata();

  std::string index_contents;
  auto append_block = [&](BlockKind kind, const std::string& column,
                          std::string payload) {
    DirectoryEntry entry;
    entry.kind = kind;
    entry.column = column;
    entry.offset = index_contents.size();
    entry.size = payload.size();
    entry.crc = Crc32(payload);
    index_contents += payload;
    meta.entries.push_back(std::move(entry));
  };

  for (const auto& field : segment.schema().fields()) {
    const ColumnReader* column = segment.GetColumn(field.name);
    if (column == nullptr) continue;
    meta.columns.emplace_back(field.name, column->stats());
    {
      ByteWriter writer;
      column->dictionary().Serialize(&writer);
      append_block(BlockKind::kDictionary, field.name, writer.TakeBuffer());
    }
    {
      const auto* immutable_column =
          static_cast<const ImmutableSegment::Column*>(column);
      ByteWriter writer;
      immutable_column->forward_index().Serialize(&writer);
      append_block(BlockKind::kForward, field.name, writer.TakeBuffer());
    }
    if (column->inverted_index() != nullptr) {
      ByteWriter writer;
      column->inverted_index()->Serialize(&writer);
      append_block(BlockKind::kInverted, field.name, writer.TakeBuffer());
    }
    if (column->sorted_index() != nullptr) {
      ByteWriter writer;
      column->sorted_index()->Serialize(&writer);
      append_block(BlockKind::kSorted, field.name, writer.TakeBuffer());
    }
  }
  if (segment.star_tree() != nullptr) {
    ByteWriter writer;
    segment.star_tree()->Serialize(&writer);
    append_block(BlockKind::kStarTree, "", writer.TakeBuffer());
  }

  PINOT_RETURN_NOT_OK(WriteFile(IndexPath(dir), index_contents,
                                /*atomic=*/false));
  PINOT_RETURN_NOT_OK(
      WriteFile(MetadataPath(dir), EncodeMetadata(meta), /*atomic=*/true));
  // Free functions have no cluster wiring; account against the process-wide
  // registry.
  MetricsRegistry* metrics = MetricsRegistry::Default();
  metrics->GetCounter("segment_store_segments_saved_total")->Increment();
  metrics->GetCounter("segment_store_bytes_written_total")
      ->Increment(index_contents.size());
  return Status::OK();
}

Result<std::shared_ptr<ImmutableSegment>> LoadSegmentFromDirectory(
    const std::string& dir) {
  PINOT_ASSIGN_OR_RETURN(std::string metadata_contents,
                         ReadFile(MetadataPath(dir)));
  PINOT_ASSIGN_OR_RETURN(ParsedMetadata meta,
                         DecodeMetadata(metadata_contents));
  PINOT_ASSIGN_OR_RETURN(std::string index_contents,
                         ReadFile(IndexPath(dir)));

  std::vector<std::unique_ptr<ImmutableSegment::Column>> columns;
  for (const auto& [name, stats] : meta.columns) {
    const FieldSpec* spec = meta.schema.GetField(name);
    if (spec == nullptr) {
      return Status::Corruption("column not in schema: " + name);
    }
    const DirectoryEntry* dict_entry =
        FindEntry(meta.entries, BlockKind::kDictionary, name);
    const DirectoryEntry* forward_entry =
        FindEntry(meta.entries, BlockKind::kForward, name);
    if (dict_entry == nullptr || forward_entry == nullptr) {
      return Status::Corruption("missing dictionary/forward block: " + name);
    }
    PINOT_ASSIGN_OR_RETURN(std::string_view dict_slice,
                           SliceBlock(index_contents, *dict_entry));
    ByteReader dict_reader(dict_slice);
    PINOT_ASSIGN_OR_RETURN(Dictionary dictionary,
                           Dictionary::Deserialize(&dict_reader));
    PINOT_ASSIGN_OR_RETURN(std::string_view forward_slice,
                           SliceBlock(index_contents, *forward_entry));
    ByteReader forward_reader(forward_slice);
    PINOT_ASSIGN_OR_RETURN(ForwardIndex forward,
                           ForwardIndex::Deserialize(&forward_reader));
    PINOT_RETURN_NOT_OK(forward.ValidateDictIds(
        static_cast<uint32_t>(dictionary.size())));
    auto column = std::make_unique<ImmutableSegment::Column>(
        *spec, std::move(dictionary), std::move(forward), stats);

    if (const DirectoryEntry* entry =
            FindEntry(meta.entries, BlockKind::kInverted, name)) {
      PINOT_ASSIGN_OR_RETURN(std::string_view slice,
                             SliceBlock(index_contents, *entry));
      ByteReader reader(slice);
      PINOT_ASSIGN_OR_RETURN(InvertedIndex inverted,
                             InvertedIndex::Deserialize(&reader));
      column->SetInvertedIndex(
          std::make_unique<InvertedIndex>(std::move(inverted)));
    }
    if (const DirectoryEntry* entry =
            FindEntry(meta.entries, BlockKind::kSorted, name)) {
      PINOT_ASSIGN_OR_RETURN(std::string_view slice,
                             SliceBlock(index_contents, *entry));
      ByteReader reader(slice);
      PINOT_ASSIGN_OR_RETURN(SortedIndex sorted,
                             SortedIndex::Deserialize(&reader));
      column->SetSortedIndex(
          std::make_unique<SortedIndex>(std::move(sorted)));
    }
    columns.push_back(std::move(column));
  }

  auto segment = std::make_shared<ImmutableSegment>(
      std::move(meta.schema), std::move(meta.metadata), std::move(columns));

  if (const DirectoryEntry* entry =
          FindEntry(meta.entries, BlockKind::kStarTree, "")) {
    PINOT_ASSIGN_OR_RETURN(std::string_view slice,
                           SliceBlock(index_contents, *entry));
    ByteReader reader(slice);
    PINOT_ASSIGN_OR_RETURN(StarTree tree, StarTree::Deserialize(&reader));
    segment->SetStarTree(std::make_unique<StarTree>(std::move(tree)));
  }
  MetricsRegistry* metrics = MetricsRegistry::Default();
  metrics->GetCounter("segment_store_segments_loaded_total")->Increment();
  metrics->GetCounter("segment_store_bytes_read_total")
      ->Increment(metadata_contents.size() + index_contents.size());
  return segment;
}

Status AppendInvertedIndexToDirectory(const std::string& dir,
                                      const std::string& column) {
  PINOT_ASSIGN_OR_RETURN(std::string metadata_contents,
                         ReadFile(MetadataPath(dir)));
  PINOT_ASSIGN_OR_RETURN(ParsedMetadata meta,
                         DecodeMetadata(metadata_contents));
  if (FindEntry(meta.entries, BlockKind::kInverted, column) != nullptr) {
    return Status::OK();  // Already indexed.
  }
  const DirectoryEntry* dict_entry =
      FindEntry(meta.entries, BlockKind::kDictionary, column);
  const DirectoryEntry* forward_entry =
      FindEntry(meta.entries, BlockKind::kForward, column);
  if (dict_entry == nullptr || forward_entry == nullptr) {
    return Status::NotFound("no such column on disk: " + column);
  }
  PINOT_ASSIGN_OR_RETURN(std::string index_contents,
                         ReadFile(IndexPath(dir)));
  PINOT_ASSIGN_OR_RETURN(std::string_view dict_slice,
                         SliceBlock(index_contents, *dict_entry));
  ByteReader dict_reader(dict_slice);
  PINOT_ASSIGN_OR_RETURN(Dictionary dictionary,
                         Dictionary::Deserialize(&dict_reader));
  PINOT_ASSIGN_OR_RETURN(std::string_view forward_slice,
                         SliceBlock(index_contents, *forward_entry));
  ByteReader forward_reader(forward_slice);
  PINOT_ASSIGN_OR_RETURN(ForwardIndex forward,
                         ForwardIndex::Deserialize(&forward_reader));
  PINOT_RETURN_NOT_OK(
      forward.ValidateDictIds(static_cast<uint32_t>(dictionary.size())));

  const InvertedIndex inverted =
      InvertedIndex::BuildFromForwardIndex(forward, dictionary.size());
  ByteWriter writer;
  inverted.Serialize(&writer);
  const std::string payload = writer.TakeBuffer();

  DirectoryEntry entry;
  entry.kind = BlockKind::kInverted;
  entry.column = column;
  entry.offset = index_contents.size();
  entry.size = payload.size();
  entry.crc = Crc32(payload);

  // Append-only index file; metadata rewritten atomically afterwards.
  PINOT_RETURN_NOT_OK(AppendFile(IndexPath(dir), payload));
  meta.entries.push_back(std::move(entry));
  return WriteFile(MetadataPath(dir), EncodeMetadata(meta), /*atomic=*/true);
}

}  // namespace pinot
