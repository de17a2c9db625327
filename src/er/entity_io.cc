#include "er/entity_io.h"

#include <charconv>
#include <cstddef>
#include <string_view>

#include "common/csv.h"

namespace erlb {
namespace er {

namespace {

Result<uint64_t> ParseId(std::string_view cell, size_t row) {
  uint64_t id = 0;
  auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), id);
  if (ec != std::errc() || ptr != cell.data() + cell.size()) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   ": unparsable id '" + std::string(cell) +
                                   "'");
  }
  return id;
}

/// Converts one data line to an Entity. `row_index` is the absolute row
/// number (for error messages); `next_id` supplies sequential ids when
/// the schema has no id column. Without a field_columns subset, cells
/// parse straight into `e->fields` and the id cell is taken back out;
/// a subset parses into the reusable `cells` and copies the chosen ones.
Status RowToEntity(std::string_view line, const CsvSchema& schema,
                   size_t row_index, uint64_t* next_id,
                   std::vector<std::string>* cells, Entity* e) {
  std::vector<std::string>* row = &e->fields;
  if (!schema.field_columns.empty()) {
    cells->clear();
    row = cells;
  }
  AppendCsvFields(line, ',', row);
  if (schema.id_column >= 0) {
    const size_t id_column = static_cast<size_t>(schema.id_column);
    if (id_column >= row->size()) {
      return Status::InvalidArgument("row " + std::to_string(row_index) +
                                     ": missing id column");
    }
    ERLB_ASSIGN_OR_RETURN(e->id, ParseId((*row)[id_column], row_index));
    if (row == &e->fields) {
      e->fields.erase(e->fields.begin() +
                      static_cast<std::ptrdiff_t>(id_column));
    }
  } else {
    e->id = (*next_id)++;
  }
  if (row != &e->fields) {
    e->fields.reserve(schema.field_columns.size());
    for (int c : schema.field_columns) {
      if (c < 0 || static_cast<size_t>(c) >= cells->size()) {
        return Status::InvalidArgument(
            "row " + std::to_string(row_index) + ": missing field column " +
            std::to_string(c));
      }
      e->fields.push_back((*cells)[static_cast<size_t>(c)]);
    }
  }
  if (e->fields.empty()) {
    return Status::InvalidArgument("row " + std::to_string(row_index) +
                                   ": no fields");
  }
  return Status::OK();
}

}  // namespace

Result<CsvSplitReader> CsvSplitReader::Open(const std::string& path,
                                            const CsvSchema& schema) {
  ERLB_ASSIGN_OR_RETURN(CsvChunkReader reader, CsvChunkReader::Open(path));
  return CsvSplitReader(std::move(reader), schema);
}

Result<bool> CsvSplitReader::Next(size_t max_lines, CsvSplit* split) {
  ERLB_ASSIGN_OR_RETURN(split->lines,
                        reader_.NextSplit(max_lines, &split->bytes));
  if (split->lines == 0) return false;
  split->first_row = next_row_;
  split->first_id = next_id_;
  split->header = has_header_ && next_row_ == 0;
  next_row_ += split->lines;
  if (sequential_ids_) {
    // Only this split's data-row count is needed for the next split's
    // first id, and the blank-line test needs no parse.
    std::string_view rest = split->bytes;
    std::string_view line;
    bool skip = split->header;
    while (NextCsvLine(&rest, &line)) {
      if (!skip && !IsBlankCsvLine(line)) ++next_id_;
      skip = false;
    }
  }
  return true;
}

Status ParseCsvSplit(const CsvSplit& split, const CsvSchema& schema,
                     const std::function<void(Entity&&)>& emit) {
  std::string_view rest = split.bytes;
  std::string_view line;
  size_t row_index = split.first_row;
  uint64_t next_id = split.first_id;
  bool skip = split.header;
  std::vector<std::string> cells;
  size_t width = 0;  // the previous row's cell count, to presize fields
  for (; NextCsvLine(&rest, &line); ++row_index) {
    if (skip || IsBlankCsvLine(line)) {
      skip = false;
      continue;
    }
    Entity e;
    if (schema.field_columns.empty()) e.fields.reserve(width);
    ERLB_RETURN_NOT_OK(
        RowToEntity(line, schema, row_index, &next_id, &cells, &e));
    width = e.fields.size() + (schema.id_column >= 0 ? 1 : 0);
    emit(std::move(e));
  }
  return Status::OK();
}

Result<uint64_t> LoadEntitiesFromCsvChunked(
    const std::string& path, const CsvSchema& schema, size_t chunk_rows,
    const std::function<Status(std::vector<Entity>&&)>& sink) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be >= 1");
  }
  ERLB_ASSIGN_OR_RETURN(CsvSplitReader reader,
                        CsvSplitReader::Open(path, schema));
  CsvSplit split;
  std::vector<Entity> batch;
  uint64_t total = 0;
  while (true) {
    ERLB_ASSIGN_OR_RETURN(bool more, reader.Next(chunk_rows, &split));
    if (!more) break;
    batch.clear();
    batch.reserve(split.lines);
    ERLB_RETURN_NOT_OK(ParseCsvSplit(split, schema, [&batch](Entity&& e) {
      batch.push_back(std::move(e));
    }));
    if (batch.empty()) continue;
    total += batch.size();
    ERLB_RETURN_NOT_OK(sink(std::move(batch)));
  }
  return total;
}

Result<std::vector<Entity>> LoadEntitiesFromCsv(const std::string& path,
                                                const CsvSchema& schema) {
  std::vector<Entity> entities;
  ERLB_RETURN_NOT_OK(
      LoadEntitiesFromCsvChunked(path, schema, 4096,
                                 [&entities](std::vector<Entity>&& batch) {
                                   for (auto& e : batch) {
                                     entities.push_back(std::move(e));
                                   }
                                   return Status::OK();
                                 })
          .status());
  return entities;
}

Status SaveEntitiesToCsv(const std::string& path,
                         const std::vector<Entity>& entities) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(entities.size() + 1);
  size_t max_fields = 0;
  for (const auto& e : entities) {
    max_fields = std::max(max_fields, e.fields.size());
  }
  std::vector<std::string> header{"id"};
  for (size_t f = 0; f < max_fields; ++f) {
    header.push_back("field" + std::to_string(f));
  }
  rows.push_back(std::move(header));
  for (const auto& e : entities) {
    std::vector<std::string> row{std::to_string(e.id)};
    for (const auto& f : e.fields) row.push_back(f);
    rows.push_back(std::move(row));
  }
  return WriteCsvFile(path, rows);
}

Status SaveMatchesToCsv(const std::string& path,
                        const MatchResult& matches) {
  MatchResult canon = matches;
  canon.Canonicalize();
  std::vector<std::vector<std::string>> rows;
  rows.reserve(canon.size() + 1);
  rows.push_back({"id1", "id2"});
  for (const auto& p : canon.pairs()) {
    rows.push_back({std::to_string(p.first), std::to_string(p.second)});
  }
  return WriteCsvFile(path, rows);
}

}  // namespace er
}  // namespace erlb
