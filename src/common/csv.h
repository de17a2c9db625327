// Minimal RFC-4180-ish CSV reading/writing for loading external datasets
// and dumping experiment series.
#ifndef ERLB_COMMON_CSV_H_
#define ERLB_COMMON_CSV_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_buffer.h"
#include "common/result.h"
#include "common/status.h"

namespace erlb {

/// Parses one CSV line into fields. Supports double-quoted fields with
/// embedded delimiters and doubled quotes ("").
std::vector<std::string> ParseCsvLine(std::string_view line,
                                      char delim = ',');

/// ParseCsvLine appending straight into `*fields` (which keeps its
/// existing elements), so a caller can parse into its own storage.
void AppendCsvFields(std::string_view line, char delim,
                     std::vector<std::string>* fields);

/// True iff ParseCsvLine(line) is one empty field — a blank record. Only
/// "", "\"" and "\"\"" parse that way: any other character either ends
/// a field (a delimiter) or lands in one.
bool IsBlankCsvLine(std::string_view line);

/// Pops the next line off `*bytes` (text cut by CsvChunkReader::NextSplit)
/// into `*line`, without its '\n' and one trailing '\r'. A final line with
/// no '\n' still counts. Returns false once `*bytes` is empty.
inline bool NextCsvLine(std::string_view* bytes, std::string_view* line) {
  if (bytes->empty()) return false;
  const size_t nl = bytes->find('\n');
  *line = bytes->substr(0, nl);
  bytes->remove_prefix(nl == std::string_view::npos ? bytes->size()
                                                    : nl + 1);
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

/// Escapes a field for CSV output (quotes when needed).
std::string EscapeCsvField(std::string_view field, char delim = ',');

/// Serializes a row.
std::string FormatCsvRow(const std::vector<std::string>& fields,
                         char delim = ',');

/// Streams a CSV file in bounded-memory splits read through a
/// fixed-size buffer (common/io_buffer.h), so memory holds one split plus
/// one I/O buffer — never the whole file. Records are separated by '\n'
/// (trailing '\r' stripped); quoted fields may not span lines, so every
/// split boundary is a record boundary. A split comes as raw text, for a
/// caller that parses it elsewhere, e.g. on another thread.
///
/// \code
///   ERLB_ASSIGN_OR_RETURN(CsvChunkReader reader, CsvChunkReader::Open(p));
///   std::string split;
///   while (true) {
///     ERLB_ASSIGN_OR_RETURN(size_t lines, reader.NextSplit(4096, &split));
///     if (lines == 0) break;
///     std::string_view rest = split, line;
///     while (NextCsvLine(&rest, &line)) Consume(ParseCsvLine(line));
///   }
/// \endcode
class CsvChunkReader {
 public:
  [[nodiscard]] static Result<CsvChunkReader> Open(
      const std::string& path, size_t buffer_bytes = 1 << 16);

  /// Replaces `*bytes` with the raw text of the next up-to-`max_lines`
  /// lines, '\n' terminators included (only the file's last line may
  /// lack one), and returns how many lines it holds — 0 once the file is
  /// exhausted. Nothing is parsed: walk the lines with NextCsvLine. Every
  /// call on a reader that has not yet reported the end fires the
  /// "csv.read_chunk" fault point, so it fires once per split.
  [[nodiscard]] Result<size_t> NextSplit(size_t max_lines,
                                         std::string* bytes);

  /// True once the file is fully consumed.
  bool done() const { return done_; }

 private:
  explicit CsvChunkReader(size_t buffer_bytes) : block_(buffer_bytes) {}

  BufferedFileReader reader_;
  std::vector<char> block_;  // one read block
  size_t block_pos_ = 0;
  size_t block_len_ = 0;
  bool eof_ = false;
  bool done_ = false;
};

/// Writes rows to `path`, overwriting. Returns IOError on failure.
[[nodiscard]] Status WriteCsvFile(
    const std::string& path, const std::vector<std::vector<std::string>>& rows,
    char delim = ',');

}  // namespace erlb

#endif  // ERLB_COMMON_CSV_H_
