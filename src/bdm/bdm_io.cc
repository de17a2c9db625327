#include "bdm/bdm_io.h"

#include <charconv>

#include "common/csv.h"

namespace erlb {
namespace bdm {

namespace {

Result<uint64_t> ParseU64(const std::string& cell, size_t row) {
  uint64_t v = 0;
  auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (ec != std::errc() || ptr != cell.data() + cell.size()) {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   ": unparsable number '" + cell + "'");
  }
  return v;
}

}  // namespace

Status SaveBdmToCsv(const std::string& path, const Bdm& bdm) {
  std::vector<std::vector<std::string>> rows;
  // Metadata row: number of partitions + optional source tags.
  std::vector<std::string> meta{"#partitions",
                                std::to_string(bdm.num_partitions())};
  if (bdm.two_source()) {
    std::string tags;
    for (auto s : bdm.partition_sources()) {
      tags += (s == er::Source::kR ? 'R' : 'S');
    }
    meta.push_back(tags);
  }
  rows.push_back(std::move(meta));
  rows.push_back({"block_key", "source", "partition", "count"});
  for (const auto& t : bdm.ToTriples()) {
    rows.push_back({t.block_key, er::SourceName(t.source),
                    std::to_string(t.partition),
                    std::to_string(t.count)});
  }
  return WriteCsvFile(path, rows);
}

Result<Bdm> LoadBdmFromCsv(const std::string& path) {
  ERLB_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  if (rows.size() < 2 || rows[0].size() < 2 ||
      rows[0][0] != "#partitions") {
    return Status::InvalidArgument("not a BDM file: " + path);
  }
  ERLB_ASSIGN_OR_RETURN(uint64_t m, ParseU64(rows[0][1], 0));
  std::vector<er::Source> tags;
  if (rows[0].size() >= 3 && !rows[0][2].empty()) {
    for (char c : rows[0][2]) {
      if (c == 'R') {
        tags.push_back(er::Source::kR);
      } else if (c == 'S') {
        tags.push_back(er::Source::kS);
      } else {
        return Status::InvalidArgument("bad source tag in " + path);
      }
    }
    if (tags.size() != m) {
      return Status::InvalidArgument("source tag count != partitions");
    }
  }

  std::vector<BdmTriple> triples;
  for (size_t i = 2; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() == 1 && row[0].empty()) continue;
    if (row.size() < 4) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     ": expected 4 columns");
    }
    BdmTriple t;
    t.block_key = row[0];
    if (row[1] == "R") {
      t.source = er::Source::kR;
    } else if (row[1] == "S") {
      t.source = er::Source::kS;
    } else {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     ": bad source '" + row[1] + "'");
    }
    ERLB_ASSIGN_OR_RETURN(uint64_t p, ParseU64(row[2], i));
    ERLB_ASSIGN_OR_RETURN(t.count, ParseU64(row[3], i));
    t.partition = static_cast<uint32_t>(p);
    triples.push_back(std::move(t));
  }
  if (!tags.empty()) {
    return Bdm::FromTriplesTwoSource(std::move(triples), tags);
  }
  return Bdm::FromTriples(std::move(triples), static_cast<uint32_t>(m));
}

}  // namespace bdm
}  // namespace erlb
