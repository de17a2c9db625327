#include "common/csv.h"

#include <gtest/gtest.h>

#include <charconv>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io_buffer.h"
#include "common/random.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/entity_io.h"

namespace erlb {
namespace {

TEST(CsvTest, ParseSimpleLine) {
  auto f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvTest, ParseQuotedDelimiter) {
  auto f = ParseCsvLine("\"a,b\",c");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "c");
}

TEST(CsvTest, ParseDoubledQuotes) {
  auto f = ParseCsvLine("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "say \"hi\"");
}

TEST(CsvTest, ParseEmptyFields) {
  auto f = ParseCsvLine(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_EQ(s, "");
}

TEST(CsvTest, EscapePlainUnchanged) {
  EXPECT_EQ(EscapeCsvField("abc"), "abc");
}

TEST(CsvTest, EscapeQuotesWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
}

TEST(CsvTest, RowRoundTrip) {
  std::vector<std::string> row{"plain", "with,comma", "with\"quote"};
  auto parsed = ParseCsvLine(FormatCsvRow(row));
  EXPECT_EQ(parsed, row);
}

// ---- Split ingest vs. a serial reference ---------------------------------
//
// core::CsvSourceStage cuts the file into splits on its own thread and
// parses them on the dataflow's pool; er::LoadEntitiesFromCsvChunked
// parses the same splits one after another. Both must produce exactly
// what a plain serial loader produces. The reference below is that
// loader, written out with no code from the library: std::getline
// lines, a char-at-a-time field parser, the row -> Entity rules, and a
// partition cut every `split_records` lines.

/// Char-at-a-time CSV field parser (the library's original ParseCsvLine).
std::vector<std::string> ReferenceParseLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"' && cur.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::vector<std::vector<std::string>> ReferenceReadRows(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    rows.push_back(ReferenceParseLine(line));
  }
  return rows;
}

Status ReferenceRowToEntity(const std::vector<std::string>& row,
                            const er::CsvSchema& schema, size_t row_index,
                            uint64_t* next_id, er::Entity* e) {
  const std::string where = "row " + std::to_string(row_index);
  if (schema.id_column >= 0) {
    if (static_cast<size_t>(schema.id_column) >= row.size()) {
      return Status::InvalidArgument(where + ": missing id column");
    }
    const std::string& cell = row[static_cast<size_t>(schema.id_column)];
    auto [ptr, ec] =
        std::from_chars(cell.data(), cell.data() + cell.size(), e->id);
    if (ec != std::errc() || ptr != cell.data() + cell.size()) {
      return Status::InvalidArgument(where + ": unparsable id '" + cell +
                                     "'");
    }
  } else {
    e->id = (*next_id)++;
  }
  if (schema.field_columns.empty()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (static_cast<int>(c) != schema.id_column) {
        e->fields.push_back(row[c]);
      }
    }
  } else {
    for (int c : schema.field_columns) {
      if (c < 0 || static_cast<size_t>(c) >= row.size()) {
        return Status::InvalidArgument(where + ": missing field column " +
                                       std::to_string(c));
      }
      e->fields.push_back(row[static_cast<size_t>(c)]);
    }
  }
  if (e->fields.empty()) return Status::InvalidArgument(where + ": no fields");
  return Status::OK();
}

struct ReferenceLoad {
  Status status;
  std::vector<std::vector<er::Entity>> partitions;
};

ReferenceLoad ReferenceLoadSplits(const std::string& path,
                                  const er::CsvSchema& schema,
                                  size_t split_records) {
  ReferenceLoad out;
  const auto rows = ReferenceReadRows(path);
  uint64_t next_id = 1;
  for (size_t begin = 0; begin < rows.size(); begin += split_records) {
    std::vector<er::Entity> split;
    const size_t end = std::min(rows.size(), begin + split_records);
    for (size_t r = begin; r < end; ++r) {
      const auto& row = rows[r];
      if (r == 0 && schema.has_header) continue;
      if (row.size() == 1 && row[0].empty()) continue;  // blank line
      er::Entity e;
      out.status = ReferenceRowToEntity(row, schema, r, &next_id, &e);
      if (!out.status.ok()) return out;
      split.push_back(std::move(e));
    }
    if (!split.empty()) out.partitions.push_back(std::move(split));
  }
  if (out.partitions.empty()) {
    out.status = Status::InvalidArgument("input is empty: " + path);
  }
  return out;
}

/// Runs CsvSourceStage alone on `workers` pool threads.
ReferenceLoad StageLoad(const std::string& path, const er::CsvSchema& schema,
                        uint32_t split_records, uint32_t workers) {
  core::DataflowOptions options;
  options.num_workers = workers;
  core::Dataflow df(options);
  df.Emplace<core::CsvSourceStage>("ingest", core::kDatasetPartitions, path,
                                   schema, split_records);
  ReferenceLoad out;
  auto report = df.Run();
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  auto parts = df.Get<core::PartitionedEntities>(core::kDatasetPartitions);
  EXPECT_TRUE(parts.ok());
  for (const auto& part : (*parts)->partitions) {
    std::vector<er::Entity> split;
    for (const auto& ref : part) split.push_back(*ref);
    out.partitions.push_back(std::move(split));
  }
  return out;
}

/// What the stage reports for a failure of its own: the stage name
/// prefixed to the loader's message.
Status AsStageError(const Status& st) {
  return Status(st.code(),
                "dataflow stage \"ingest\": " + std::string(st.message()));
}

void ExpectSameLoad(const ReferenceLoad& want, const ReferenceLoad& got,
                    const std::string& label) {
  ASSERT_EQ(got.status.ToString(), want.status.ToString()) << label;
  ASSERT_EQ(got.partitions.size(), want.partitions.size()) << label;
  for (size_t p = 0; p < want.partitions.size(); ++p) {
    ASSERT_EQ(got.partitions[p].size(), want.partitions[p].size())
        << label << " partition " << p;
    for (size_t i = 0; i < want.partitions[p].size(); ++i) {
      EXPECT_EQ(got.partitions[p][i].id, want.partitions[p][i].id)
          << label << " partition " << p << " entity " << i;
      EXPECT_EQ(got.partitions[p][i].fields, want.partitions[p][i].fields)
          << label << " partition " << p << " entity " << i;
    }
  }
}

class CsvIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = ScopedTempDir::Make("", "erlb-csv-ingest");
    ASSERT_TRUE(dir.ok());
    dir_.emplace(std::move(*dir));
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  std::string Write(const std::string& name, const std::string& text) {
    const std::string path = dir_->path() + "/" + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  /// Every loader the library has for this file — the stage on 1, 2, 4
  /// and 8 workers and the serial chunked loader — against the
  /// reference, for split sizes 1, 7, 128 and larger than the file.
  void ExpectAllMatchReference(const std::string& path,
                               const er::CsvSchema& schema) {
    for (uint32_t split_records : {1u, 7u, 128u, 1u << 20}) {
      ReferenceLoad want = ReferenceLoadSplits(path, schema, split_records);
      const std::string label = "split_records=" +
                                std::to_string(split_records) + " ";
      ReferenceLoad chunked;
      auto total = er::LoadEntitiesFromCsvChunked(
          path, schema, split_records,
          [&chunked](std::vector<er::Entity>&& batch) {
            chunked.partitions.push_back(std::move(batch));
            return Status::OK();
          });
      if (!total.ok()) {
        chunked.status = total.status();
        chunked.partitions.clear();
      } else if (*total == 0) {
        chunked.status = Status::InvalidArgument("input is empty: " + path);
      }
      ExpectSameLoad(want, chunked, label + "chunked loader");

      if (!want.status.ok()) want.status = AsStageError(want.status);
      for (uint32_t workers : {1u, 2u, 4u, 8u}) {
        ExpectSameLoad(want,
                       StageLoad(path, schema, split_records, workers),
                       label + "workers=" + std::to_string(workers));
      }
    }
  }

  std::optional<ScopedTempDir> dir_;
};

/// A file exercising every line shape the reader handles: blank lines
/// (empty, `""`, `"`, a lone '\r'), CRLF endings, quoted delimiters and
/// doubled quotes, rows with extra columns, and — unless
/// `trailing_newline` — a last line with no '\n'.
std::string MixedCsv(bool header, bool trailing_newline, uint64_t seed) {
  Pcg32 rng(seed);
  std::string text = header ? "id,title,block\n" : "";
  for (int r = 0; r < 300; ++r) {
    const uint32_t shape = rng.NextBounded(12);
    const std::string id = std::to_string(1000 + r);
    switch (shape) {
      case 0:
        text += "\n";
        break;
      case 1:
        text += "\"\"\n";
        break;
      case 2:
        text += "\"\r\n";
        break;
      case 3:
        text += "\r\n";
        break;
      case 4:
        text += id + ",\"quoted, with comma\",b" + std::to_string(r % 7) +
                "\r\n";
        break;
      case 5:
        text += id + ",\"say \"\"hi\"\"\",b" + std::to_string(r % 5) + "\n";
        break;
      case 6:
        text += id + ",title " + std::to_string(r) + ",b1,extra,more\n";
        break;
      default:
        text += id + ",plain title number " + std::to_string(r) + ",b" +
                std::to_string(r % 11) + "\n";
        break;
    }
  }
  text += "99999,last row,b0";
  if (trailing_newline) text += "\n";
  return text;
}

TEST_F(CsvIngestTest, SplitsMatchSerialReferenceAcrossWorkersAndSplits) {
  for (bool header : {true, false}) {
    for (bool trailing_newline : {true, false}) {
      const std::string path =
          Write("mixed.csv", MixedCsv(header, trailing_newline, 17));
      SCOPED_TRACE(std::string("header=") + (header ? "1" : "0") +
                   " trailing_newline=" + (trailing_newline ? "1" : "0"));
      er::CsvSchema by_id;
      by_id.id_column = 0;
      by_id.has_header = header;
      ExpectAllMatchReference(path, by_id);

      // Sequential ids must continue across splits and skip blank lines.
      er::CsvSchema sequential;
      sequential.id_column = -1;
      sequential.has_header = header;
      ExpectAllMatchReference(path, sequential);

      // A column subset, reordered.
      er::CsvSchema subset;
      subset.id_column = 0;
      subset.field_columns = {2, 1};
      subset.has_header = header;
      ExpectAllMatchReference(path, subset);
    }
  }
}

TEST_F(CsvIngestTest, BlankOnlyAndEmptyFilesMatchReference) {
  er::CsvSchema schema;
  schema.id_column = -1;
  schema.has_header = false;
  ExpectAllMatchReference(Write("empty.csv", ""), schema);
  ExpectAllMatchReference(Write("blank.csv", "\n\"\"\n\r\n\"\n"), schema);
  schema.has_header = true;
  ExpectAllMatchReference(Write("header_only.csv", "id,title\n"), schema);
}

TEST_F(CsvIngestTest, FirstBadRowInFileWinsAcrossParallelSplits) {
  // Seven lines per split: a bad id in split 3 and a missing column in
  // split 5 (0-based), parsed concurrently on 4 workers. Whichever comes
  // first in the file is the error, as in a serial load — in both orders.
  er::CsvSchema schema;
  schema.id_column = 0;
  schema.field_columns = {1, 2};
  schema.has_header = true;
  for (bool bad_id_first : {true, false}) {
    std::string text = "id,title,block\n";
    for (int line = 1; line < 60; ++line) {
      const std::string id = std::to_string(line);
      const int bad_id_line = bad_id_first ? 3 * 7 + 2 : 5 * 7 + 4;
      const int short_line = bad_id_first ? 5 * 7 + 4 : 3 * 7 + 2;
      if (line == bad_id_line) {
        text += "x" + id + ",title,b\n";
      } else if (line == short_line) {
        text += id + ",only title\n";
      } else {
        text += id + ",title " + id + ",b" + std::to_string(line % 3) + "\n";
      }
    }
    const std::string path = Write("bad.csv", text);
    const ReferenceLoad want = ReferenceLoadSplits(path, schema, 7);
    ASSERT_TRUE(want.status.IsInvalidArgument());
    EXPECT_NE(want.status.message().find(bad_id_first ? "unparsable id"
                                                      : "missing field"),
              std::string::npos);
    const ReferenceLoad got = StageLoad(path, schema, 7, 4);
    EXPECT_EQ(got.status.ToString(), AsStageError(want.status).ToString());
    auto serial = er::LoadEntitiesFromCsv(path, schema);
    EXPECT_EQ(serial.status().ToString(), want.status.ToString());
  }
}

TEST_F(CsvIngestTest, ReadChunkFaultFailsTheStage) {
  er::CsvSchema schema;
  schema.id_column = 0;
  const std::string path = Write("mixed.csv", MixedCsv(true, true, 3));
  for (uint64_t hit : {1u, 3u, 9u}) {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.trigger_hit = hit;
    spec.code = StatusCode::kIOError;
    ASSERT_TRUE(FaultInjector::Global().Arm("csv.read_chunk", spec).ok());
    const ReferenceLoad got = StageLoad(path, schema, 16, 4);
    EXPECT_EQ(got.status.code(), StatusCode::kIOError) << "hit " << hit;
    EXPECT_NE(got.status.message().find("csv.read_chunk"), std::string::npos)
        << got.status.ToString();
    FaultInjector::Global().Reset();
  }
  // A bad row in a split read before the faulting one still wins: it
  // comes first in the file, though its split is parsed after the fault.
  const std::string bad = Write("bad_first.csv", "id,t\nx,a\n2,b\n3,c\n4,d\n");
  FaultSpec spec;
  spec.trigger_hit = 2;
  ASSERT_TRUE(FaultInjector::Global().Arm("csv.read_chunk", spec).ok());
  const ReferenceLoad got = StageLoad(bad, schema, 2, 4);
  EXPECT_TRUE(got.status.IsInvalidArgument()) << got.status.ToString();
  EXPECT_NE(got.status.message().find("row 1: unparsable id 'x'"),
            std::string::npos)
      << got.status.ToString();
}

TEST(CsvLineTest, ParserAndBlankTestMatchReferenceOnAllShortLines) {
  // Every line of up to 6 characters over the characters that steer the
  // parser: field parsing must match the char-at-a-time reference, and
  // IsBlankCsvLine must agree with "parses to one empty field".
  const std::string alphabet = "\",a\r ";
  std::vector<std::string> lines{""};
  for (size_t len = 1, begin = 0; len <= 6; ++len) {
    const size_t end = lines.size();
    for (size_t i = begin; i < end; ++i) {
      for (char c : alphabet) lines.push_back(lines[i] + c);
    }
    begin = end;
  }
  for (const std::string& line : lines) {
    const auto want = ReferenceParseLine(line);
    EXPECT_EQ(ParseCsvLine(line), want) << "line '" << line << "'";
    const bool blank = want.size() == 1 && want[0].empty();
    EXPECT_EQ(IsBlankCsvLine(line), blank) << "line '" << line << "'";
  }
}

TEST(CsvLineTest, NextSplitCutsWholeLinesAndCountsAnUnterminatedLast) {
  auto dir = ScopedTempDir::Make("", "erlb-csv-split");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->path() + "/lines.csv";
  std::ofstream(path, std::ios::binary) << "a\nb\r\nc\n\nd";
  // A tiny read buffer so lines straddle block boundaries.
  auto reader = CsvChunkReader::Open(path, 3);
  ASSERT_TRUE(reader.ok());
  std::string bytes;
  std::vector<std::string> splits;
  std::vector<size_t> counts;
  while (true) {
    auto lines = reader->NextSplit(2, &bytes);
    ASSERT_TRUE(lines.ok());
    if (*lines == 0) break;
    splits.push_back(bytes);
    counts.push_back(*lines);
  }
  EXPECT_EQ(splits,
            (std::vector<std::string>{"a\nb\r\n", "c\n\n", "d"}));
  EXPECT_EQ(counts, (std::vector<size_t>{2, 2, 1}));
}

}  // namespace
}  // namespace erlb
