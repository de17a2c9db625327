// Loading and saving entities and match results as CSV, so the pipeline
// can run over real datasets (e.g. the CiteSeerX-style dumps the paper
// evaluates on).
#ifndef ERLB_ER_ENTITY_IO_H_
#define ERLB_ER_ENTITY_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "er/entity.h"
#include "er/match_result.h"

namespace erlb {
namespace er {

/// How CSV columns map onto Entity fields.
struct CsvSchema {
  /// Column holding a numeric entity id, or -1 to assign sequential ids
  /// (1-based, in file order).
  int id_column = -1;
  /// Columns copied into Entity::fields, in order. fields[0] becomes the
  /// primary matching attribute. Empty = all columns except id_column.
  std::vector<int> field_columns;
  /// Skip the first row.
  bool has_header = true;
};

/// Loads entities from a CSV file. Rows with too few columns yield
/// InvalidArgument; an unparsable id yields InvalidArgument.
[[nodiscard]] Result<std::vector<Entity>> LoadEntitiesFromCsv(
    const std::string& path, const CsvSchema& schema);

/// One input split of a CSV file: the raw text of consecutive whole
/// lines plus their place in the file — enough to parse the split alone,
/// on any thread, into exactly what a front-to-back parse of the whole
/// file gives for those lines.
struct CsvSplit {
  /// The split's lines, '\n' terminators included.
  std::string bytes;
  /// Number of lines in `bytes`.
  size_t lines = 0;
  /// Absolute 0-based row (= line) index of the split's first line, for
  /// error messages; header and blank lines count.
  size_t first_row = 0;
  /// Sequential id of the split's first data row (schema.id_column < 0).
  uint64_t first_id = 1;
  /// The first line is the file's header row (skipped).
  bool header = false;
};

/// Cuts a CSV file into CsvSplits of up to `max_lines` lines each through
/// a bounded read buffer (common/csv.h CsvChunkReader::NextSplit), in
/// file order. Cheap and serial: it only finds line ends, and — when ids
/// are sequential — counts the data rows of each split so the next split
/// knows its first id. Parsing is left to ParseCsvSplit.
class CsvSplitReader {
 public:
  [[nodiscard]] static Result<CsvSplitReader> Open(const std::string& path,
                                                   const CsvSchema& schema);

  /// Replaces `*split` with the next split (reusing its buffer). Returns
  /// false once the file is exhausted. Fires the "csv.read_chunk" fault
  /// point once per call, like CsvChunkReader::NextSplit.
  [[nodiscard]] Result<bool> Next(size_t max_lines, CsvSplit* split);

 private:
  CsvSplitReader(CsvChunkReader reader, const CsvSchema& schema)
      : reader_(std::move(reader)),
        sequential_ids_(schema.id_column < 0),
        has_header_(schema.has_header) {}

  CsvChunkReader reader_;
  bool sequential_ids_;
  bool has_header_;
  size_t next_row_ = 0;
  uint64_t next_id_ = 1;
};

/// Parses one split into entities, calling `emit` for each in line order.
/// Cells are parsed straight into Entity::fields. Skips the header line
/// (split.header) and blank lines (common/csv.h IsBlankCsvLine). Stops at
/// the split's first bad row with InvalidArgument naming its absolute
/// row: too few columns, an unparsable id, or no fields. Distinct splits
/// may be parsed concurrently.
[[nodiscard]] Status ParseCsvSplit(
    const CsvSplit& split, const CsvSchema& schema,
    const std::function<void(Entity&&)>& emit);

/// Streaming loader: cuts `path` into splits of `chunk_rows` lines
/// (CsvSplitReader), parses them one after another (ParseCsvSplit) and
/// hands each non-empty split's entities to `sink` — at no point are all
/// rows (or the raw file) resident at once, only one split. A non-OK
/// status from `sink` aborts the load and is returned. Returns the total
/// number of entities delivered. LoadEntitiesFromCsv is this loader
/// draining into one vector; core::CsvSourceStage parses the same splits
/// on a worker pool.
[[nodiscard]] Result<uint64_t> LoadEntitiesFromCsvChunked(
    const std::string& path, const CsvSchema& schema, size_t chunk_rows,
    const std::function<Status(std::vector<Entity>&&)>& sink);

/// Writes entities as CSV: id, then each field. Includes a header row.
[[nodiscard]] Status SaveEntitiesToCsv(const std::string& path,
                                       const std::vector<Entity>& entities);

/// Writes a match result as CSV with columns id1,id2 (canonical order).
[[nodiscard]] Status SaveMatchesToCsv(const std::string& path,
                                      const MatchResult& matches);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_ENTITY_IO_H_
