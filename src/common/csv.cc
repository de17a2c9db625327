#include "common/csv.h"

#include <cstring>
#include <fstream>

#include "common/fault.h"

namespace erlb {

std::vector<std::string> ParseCsvLine(std::string_view line, char delim) {
  std::vector<std::string> fields;
  AppendCsvFields(line, delim, &fields);
  return fields;
}

void AppendCsvFields(std::string_view line, char delim,
                     std::vector<std::string>* fields) {
  std::string* cur = &fields->emplace_back();
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      // Copy up to the next quote in one append; "" is a literal quote,
      // any other quote closes the quoted section.
      const size_t q = line.find('"', i);
      if (q == std::string_view::npos) {
        cur->append(line.substr(i));
        break;
      }
      cur->append(line.substr(i, q - i));
      if (q + 1 < line.size() && line[q + 1] == '"') {
        cur->push_back('"');
        i = q + 2;
      } else {
        in_quotes = false;
        i = q + 1;
      }
    } else if (c == '"' && cur->empty()) {
      in_quotes = true;
      ++i;
    } else if (c == delim) {
      cur = &fields->emplace_back();
      ++i;
    } else {
      // Once a field holds a character, every quote up to the next
      // delimiter is literal: copy the whole run.
      size_t j = line.find(delim, i);
      if (j == std::string_view::npos) j = line.size();
      cur->append(line.substr(i, j - i));
      i = j;
    }
  }
}

bool IsBlankCsvLine(std::string_view line) {
  return line.empty() || line == "\"" || line == "\"\"";
}

std::string EscapeCsvField(std::string_view field, char delim) {
  bool needs_quote = false;
  for (char c : field) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string FormatCsvRow(const std::vector<std::string>& fields,
                         char delim) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) out.push_back(delim);
    out += EscapeCsvField(fields[i], delim);
  }
  return out;
}

Result<CsvChunkReader> CsvChunkReader::Open(const std::string& path,
                                            size_t buffer_bytes) {
  if (buffer_bytes == 0) {
    return Status::InvalidArgument("buffer_bytes must be >= 1");
  }
  CsvChunkReader reader(buffer_bytes);
  // block_ is the real read buffer: every Read is block_-sized, which
  // takes BufferedFileReader's large-read bypass, so give the reader
  // only a token buffer instead of doubling the allocation.
  ERLB_RETURN_NOT_OK(reader.reader_.Open(path, 64));
  return reader;
}

Result<size_t> CsvChunkReader::NextSplit(size_t max_lines,
                                         std::string* bytes) {
  bytes->clear();
  if (done_) return 0;
  ERLB_FAULT_POINT("csv.read_chunk");
  size_t lines = 0;
  while (lines < max_lines) {
    if (block_pos_ >= block_len_ && !eof_) {
      ERLB_ASSIGN_OR_RETURN(size_t got,
                            reader_.Read(block_.data(), block_.size()));
      block_pos_ = 0;
      block_len_ = got;
      if (got < block_.size()) eof_ = true;
    }
    if (block_pos_ >= block_len_) {
      // End of input: an unterminated last line still counts. The reader
      // is done only when this call ran out of lines — a split that ends
      // exactly on the last line leaves the next call to report the end,
      // as a line-at-a-time reader would.
      if (!bytes->empty() && bytes->back() != '\n') ++lines;
      if (lines < max_lines) done_ = true;
      break;
    }
    const char* start = block_.data() + block_pos_;
    const char* end = block_.data() + block_len_;
    const char* p = start;
    while (lines < max_lines) {
      const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
      if (nl == nullptr) {
        p = end;
        break;
      }
      p = static_cast<const char*>(nl) + 1;
      ++lines;
    }
    bytes->append(start, static_cast<size_t>(p - start));
    block_pos_ += static_cast<size_t>(p - start);
  }
  return lines;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows,
                    char delim) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  for (const auto& row : rows) {
    out << FormatCsvRow(row, delim) << "\n";
  }
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace erlb
