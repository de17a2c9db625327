#include "bdm/bdm.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace erlb {
namespace bdm {

Result<Bdm> Bdm::FromTriples(std::vector<BdmTriple> triples,
                             uint32_t num_partitions) {
  return Build(std::move(triples), num_partitions, {});
}

Result<Bdm> Bdm::Build(std::vector<BdmTriple> triples,
                       uint32_t num_partitions,
                       std::vector<er::Source> partition_sources) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  for (const auto& t : triples) {
    if (t.partition >= num_partitions) {
      return Status::OutOfRange("triple partition " +
                                std::to_string(t.partition) +
                                " >= m=" + std::to_string(num_partitions));
    }
  }
  // (key, partition) order is the lexicographic block order the paper
  // derives from Job 1's sorted output, and makes duplicate (block,
  // partition) triples adjacent. AssembleBdm delivers that order, so the
  // sort is only a fix-up for other callers (FromKeys).
  const auto less = [](const BdmTriple& a, const BdmTriple& b) {
    const int c = a.block_key.compare(b.block_key);
    return c != 0 ? c < 0 : a.partition < b.partition;
  };
  if (!std::is_sorted(triples.begin(), triples.end(), less)) {
    std::sort(triples.begin(), triples.end(), less);
  }
  size_t num_blocks = triples.empty() ? 0 : 1;
  for (size_t i = 1; i < triples.size(); ++i) {
    if (triples[i].block_key != triples[i - 1].block_key) {
      ++num_blocks;
    } else if (triples[i].partition == triples[i - 1].partition) {
      return Status::AlreadyExists("duplicate triple for block '" +
                                   triples[i].block_key + "' partition " +
                                   std::to_string(triples[i].partition));
    }
  }

  Bdm bdm;
  bdm.num_partitions_ = num_partitions;
  bdm.partition_sources_ = std::move(partition_sources);
  bdm.block_keys_.reserve(num_blocks);
  bdm.cell_offsets_.reserve(num_blocks + 1);
  bdm.cells_.reserve(triples.size());
  bdm.cell_offsets_.push_back(0);
  for (auto& t : triples) {
    if (bdm.block_keys_.empty() || bdm.block_keys_.back() != t.block_key) {
      bdm.cell_offsets_.push_back(bdm.cells_.size());
      bdm.block_keys_.push_back(std::move(t.block_key));
    }
    bdm.cells_.push_back(BdmCell{t.partition, t.count});
    bdm.cell_offsets_.back() = bdm.cells_.size();
  }
  bdm.BuildDerived();
  return bdm;
}

Result<Bdm> Bdm::FromTriplesTwoSource(
    std::vector<BdmTriple> triples,
    const std::vector<er::Source>& partition_sources) {
  if (partition_sources.empty()) {
    return Status::InvalidArgument("partition_sources must be non-empty");
  }
  for (const auto& t : triples) {
    if (t.partition >= partition_sources.size()) {
      return Status::OutOfRange("triple partition out of range");
    }
    if (partition_sources[t.partition] != t.source) {
      return Status::InvalidArgument(
          "triple source tag disagrees with partition_sources for block '" +
          t.block_key + "'");
    }
  }
  return Build(std::move(triples),
               static_cast<uint32_t>(partition_sources.size()),
               partition_sources);
}

Result<Bdm> Bdm::FromKeys(
    const std::vector<std::vector<std::string>>& keys_per_partition,
    const std::vector<er::Source>* partition_sources) {
  if (keys_per_partition.empty()) {
    return Status::InvalidArgument("need at least one partition");
  }
  if (partition_sources != nullptr &&
      partition_sources->size() != keys_per_partition.size()) {
    return Status::InvalidArgument(
        "partition_sources size must equal number of partitions");
  }
  // Aggregate each partition by sorting its keys and run-length encoding;
  // duplicates cannot arise by construction. The triples come out in
  // (partition, key) order, so FromTriples sorts them.
  std::vector<BdmTriple> triples;
  std::vector<std::string_view> sorted;
  for (uint32_t p = 0; p < keys_per_partition.size(); ++p) {
    sorted.assign(keys_per_partition[p].begin(),
                  keys_per_partition[p].end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      BdmTriple t;
      t.block_key = std::string(sorted[i]);
      t.partition = p;
      t.count = j - i;
      t.source = partition_sources ? (*partition_sources)[p] : er::Source::kR;
      triples.push_back(std::move(t));
      i = j;
    }
  }
  if (partition_sources != nullptr) {
    return FromTriplesTwoSource(std::move(triples), *partition_sources);
  }
  return FromTriples(std::move(triples),
                     static_cast<uint32_t>(keys_per_partition.size()));
}

void Bdm::BuildDerived() {
  const uint32_t b = num_blocks();
  block_sizes_.assign(b, 0);
  block_sizes_r_.assign(b, 0);
  block_sizes_s_.assign(b, 0);
  pair_offsets_.assign(b + 1, 0);
  total_entities_ = 0;
  for (uint32_t k = 0; k < b; ++k) {
    for (size_t i = cell_offsets_[k]; i < cell_offsets_[k + 1]; ++i) {
      const BdmCell& cell = cells_[i];
      block_sizes_[k] += cell.count;
      if (two_source()) {
        if (partition_sources_[cell.partition] == er::Source::kR) {
          block_sizes_r_[k] += cell.count;
        } else {
          block_sizes_s_[k] += cell.count;
        }
      }
    }
    if (!two_source()) block_sizes_r_[k] = block_sizes_[k];
    total_entities_ += block_sizes_[k];
    // Comparisons of the block: |Φk,R|·|Φk,S| or C(|Φk|,2).
    const uint64_t n = block_sizes_[k];
    const uint64_t pairs = two_source()
                               ? block_sizes_r_[k] * block_sizes_s_[k]
                               : n * (n - 1) / 2;
    pair_offsets_[k + 1] = pair_offsets_[k] + pairs;
  }

  // Memoize the content hash here: every construction path and ApplyDelta
  // end in BuildDerived, so the hash can never go stale. Keys are
  // length-prefixed and rows carry their cell count, so (key "ab", key
  // "c") cannot collide with (key "a", key "bc") by concatenation.
  // The bytes are staged in a buffer and fed in large pieces: the digest
  // does not depend on how the stream is cut, and feeding 8-byte values
  // one at a time behind an odd-length key would take StreamChecksum's
  // bytewise tail path for every value.
  StreamChecksum sum;
  std::string buf;
  buf.reserve(4096 + 64);
  auto put = [&sum, &buf](const void* data, size_t len) {
    buf.append(static_cast<const char*>(data), len);
    if (buf.size() >= 4096) {
      sum.Update(buf.data(), buf.size());
      buf.clear();
    }
  };
  auto put_u64 = [&put](uint64_t v) { put(&v, sizeof(v)); };
  put_u64(num_partitions_);
  put_u64(partition_sources_.size());
  for (er::Source s : partition_sources_) {
    const unsigned char tag = s == er::Source::kR ? 0 : 1;
    put(&tag, 1);
  }
  for (uint32_t k = 0; k < b; ++k) {
    put_u64(block_keys_[k].size());
    put(block_keys_[k].data(), block_keys_[k].size());
    put_u64(cell_offsets_[k + 1] - cell_offsets_[k]);
    for (size_t i = cell_offsets_[k]; i < cell_offsets_[k + 1]; ++i) {
      put_u64(cells_[i].partition);
      put_u64(cells_[i].count);
    }
  }
  sum.Update(buf.data(), buf.size());
  const uint64_t h = sum.Digest();
  content_hash_ = h != 0 ? h : 1;  // 0 is reserved for "hash unknown"
}

Status Bdm::ApplyDelta(const std::vector<BdmDeltaEntry>& entries) {
  // Aggregate repeats: sort by (key, partition), sum runs, drop zero sums.
  struct DeltaCell {
    std::string_view key;
    uint32_t partition = 0;
    int64_t delta = 0;
  };
  std::vector<DeltaCell> deltas;
  deltas.reserve(entries.size());
  for (const auto& e : entries) {
    if (e.partition >= num_partitions_) {
      return Status::InvalidArgument(
          "delta partition " + std::to_string(e.partition) +
          " >= m=" + std::to_string(num_partitions_));
    }
    deltas.push_back(DeltaCell{e.block_key, e.partition, e.delta});
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const DeltaCell& a, const DeltaCell& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.partition < b.partition;
            });
  size_t w = 0;
  for (size_t i = 0; i < deltas.size();) {
    size_t j = i + 1;
    int64_t total = deltas[i].delta;
    while (j < deltas.size() && deltas[j].key == deltas[i].key &&
           deltas[j].partition == deltas[i].partition) {
      total += deltas[j].delta;
      ++j;
    }
    if (total != 0) {
      deltas[w] = deltas[i];
      deltas[w].delta = total;
      ++w;
    }
    i = j;
  }
  deltas.resize(w);
  if (deltas.empty()) return Status::OK();

  // Validate every decrement before touching anything, so a bad batch
  // leaves the BDM exactly as it was.
  for (size_t i = 0; i < deltas.size();) {
    auto row = std::lower_bound(block_keys_.begin(), block_keys_.end(),
                                deltas[i].key,
                                [](const std::string& a, std::string_view b) {
                                  return a < b;
                                });
    const bool have_row =
        row != block_keys_.end() && *row == deltas[i].key;
    const auto k = static_cast<uint32_t>(row - block_keys_.begin());
    size_t j = i;
    for (; j < deltas.size() && deltas[j].key == deltas[i].key; ++j) {
      if (deltas[j].delta >= 0) continue;
      const uint64_t need = static_cast<uint64_t>(-deltas[j].delta);
      const uint64_t have = have_row ? Size(k, deltas[j].partition) : 0;
      if (need > have) {
        return Status::InvalidArgument(
            "delta drives block '" + std::string(deltas[j].key) +
            "' partition " + std::to_string(deltas[j].partition) +
            " below zero (" + std::to_string(have) + " - " +
            std::to_string(need) + ")");
      }
    }
    i = j;
  }

  // Merge the sorted dictionary with the sorted deltas in one pass.
  // Untouched rows relocate (key moved, cells copied); touched rows
  // re-merge cell-by-cell, dropping cells (and whole rows) that reach
  // zero and inserting new blocks in dictionary order.
  const uint32_t b = num_blocks();
  std::vector<std::string> new_keys;
  std::vector<size_t> new_offsets;
  std::vector<BdmCell> new_cells;
  new_keys.reserve(b);
  new_offsets.reserve(b + 1);
  new_cells.reserve(cells_.size());
  new_offsets.push_back(0);
  uint32_t k = 0;
  size_t d = 0;
  while (k < b || d < deltas.size()) {
    if (d >= deltas.size() || (k < b && block_keys_[k] < deltas[d].key)) {
      new_cells.insert(
          new_cells.end(),
          cells_.begin() + static_cast<ptrdiff_t>(cell_offsets_[k]),
          cells_.begin() + static_cast<ptrdiff_t>(cell_offsets_[k + 1]));
      new_keys.push_back(std::move(block_keys_[k]));
      new_offsets.push_back(new_cells.size());
      ++k;
      continue;
    }
    const std::string_view key = deltas[d].key;
    const bool have_row = k < b && block_keys_[k] == key;
    size_t c = have_row ? cell_offsets_[k] : 0;
    const size_t c_end = have_row ? cell_offsets_[k + 1] : 0;
    while (c < c_end || (d < deltas.size() && deltas[d].key == key)) {
      const bool have_delta = d < deltas.size() && deltas[d].key == key;
      if (c < c_end &&
          (!have_delta || cells_[c].partition < deltas[d].partition)) {
        new_cells.push_back(cells_[c++]);
      } else if (c >= c_end || deltas[d].partition < cells_[c].partition) {
        // Brand-new cell; validation guarantees the sum is positive.
        new_cells.push_back(BdmCell{
            deltas[d].partition, static_cast<uint64_t>(deltas[d].delta)});
        ++d;
      } else {
        const int64_t delta = deltas[d].delta;
        const uint64_t count =
            delta >= 0 ? cells_[c].count + static_cast<uint64_t>(delta)
                       : cells_[c].count - static_cast<uint64_t>(-delta);
        if (count > 0) {
          new_cells.push_back(BdmCell{cells_[c].partition, count});
        }
        ++c;
        ++d;
      }
    }
    if (new_cells.size() > new_offsets.back()) {
      new_keys.push_back(have_row ? std::move(block_keys_[k])
                                  : std::string(key));
      new_offsets.push_back(new_cells.size());
    }
    if (have_row) ++k;
  }

  block_keys_ = std::move(new_keys);
  cell_offsets_ = std::move(new_offsets);
  cells_ = std::move(new_cells);
  BuildDerived();
  return Status::OK();
}

Result<uint32_t> Bdm::BlockIndex(std::string_view key) const {
  auto it = std::lower_bound(block_keys_.begin(), block_keys_.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return a < b;
                             });
  if (it == block_keys_.end() || *it != key) {
    return Status::NotFound("no block for key '" + std::string(key) + "'");
  }
  return static_cast<uint32_t>(it - block_keys_.begin());
}

Result<std::string_view> Bdm::BlockKeyChecked(uint32_t k) const {
  if (k >= num_blocks()) {
    return Status::OutOfRange("block index " + std::to_string(k) +
                              " >= b=" + std::to_string(num_blocks()));
  }
  return std::string_view(block_keys_[k]);
}

uint64_t Bdm::Size(uint32_t k, uint32_t p) const {
  ERLB_CHECK(k < num_blocks());
  ERLB_CHECK(p < num_partitions_);
  auto begin = cells_.begin() + static_cast<ptrdiff_t>(cell_offsets_[k]);
  auto end = cells_.begin() + static_cast<ptrdiff_t>(cell_offsets_[k + 1]);
  auto it = std::lower_bound(begin, end, p,
                             [](const BdmCell& cell, uint32_t partition) {
                               return cell.partition < partition;
                             });
  return (it != end && it->partition == p) ? it->count : 0;
}

uint64_t Bdm::EntityIndexOffset(uint32_t k, uint32_t p) const {
  ERLB_CHECK(k < num_blocks());
  ERLB_CHECK(p < num_partitions_);
  uint64_t off = 0;
  for (size_t i = cell_offsets_[k]; i < cell_offsets_[k + 1]; ++i) {
    const BdmCell& cell = cells_[i];
    if (cell.partition >= p) break;
    if (two_source() &&
        partition_sources_[cell.partition] != partition_sources_[p]) {
      continue;  // entity enumeration is per source
    }
    off += cell.count;
  }
  return off;
}

uint64_t Bdm::TotalPairs() const { return pair_offsets_[num_blocks()]; }

er::Source Bdm::PartitionSource(uint32_t p) const {
  ERLB_CHECK(two_source());
  ERLB_CHECK(p < num_partitions_);
  return partition_sources_[p];
}

uint32_t Bdm::LargestBlock() const {
  ERLB_CHECK(num_blocks() >= 1);
  uint32_t best = 0;
  for (uint32_t k = 1; k < num_blocks(); ++k) {
    if (block_sizes_[k] > block_sizes_[best]) best = k;
  }
  return best;
}

std::vector<BdmTriple> Bdm::ToTriples() const {
  std::vector<BdmTriple> out;
  out.reserve(cells_.size());
  for (uint32_t k = 0; k < num_blocks(); ++k) {
    for (size_t i = cell_offsets_[k]; i < cell_offsets_[k + 1]; ++i) {
      BdmTriple t;
      t.block_key = block_keys_[k];
      t.partition = cells_[i].partition;
      t.count = cells_[i].count;
      t.source = two_source() ? partition_sources_[cells_[i].partition]
                              : er::Source::kR;
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace bdm
}  // namespace erlb
