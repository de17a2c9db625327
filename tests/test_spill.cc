// Spill format (mr/spill.h): codec round trips, run files + cursors, the
// file-backed loser-tree merge against the in-memory oracle, and the
// engine-level guarantees of the external path — spill temp dirs are
// removed on success AND error (injected ENOSPC), and I/O failures
// surface as JobResult::status instead of partial output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/io_buffer.h"
#include "common/random.h"
#include "er/entity_spill.h"
#include "lb/match_kv.h"
#include "lb/spill_codec.h"
#include "mr/job.h"
#include "mr/merge.h"
#include "mr/spill.h"

namespace erlb {
namespace mr {
namespace {

namespace fs = std::filesystem;

template <typename T>
T RoundTrip(const T& v) {
  std::string buf;
  SpillCodec<T>::Encode(v, &buf);
  const char* p = buf.data();
  const char* end = p + buf.size();
  T out{};
  EXPECT_TRUE(SpillCodec<T>::Decode(&p, end, &out));
  EXPECT_EQ(p, end) << "codec did not consume its own encoding";
  return out;
}

TEST(SpillCodecTest, Primitives) {
  EXPECT_EQ(RoundTrip<uint32_t>(0xdeadbeef), 0xdeadbeefu);
  EXPECT_EQ(RoundTrip<int64_t>(-123456789012345), -123456789012345);
  EXPECT_EQ(RoundTrip<double>(3.25), 3.25);
  EXPECT_EQ(RoundTrip<std::string>("hello \"csv\"\nworld"),
            "hello \"csv\"\nworld");
  EXPECT_EQ(RoundTrip<std::string>(""), "");
  auto pair = RoundTrip(std::pair<int, std::string>{7, "x"});
  EXPECT_EQ(pair.first, 7);
  EXPECT_EQ(pair.second, "x");
  auto vec = RoundTrip(std::vector<std::string>{"a", "", "bcd"});
  EXPECT_EQ(vec, (std::vector<std::string>{"a", "", "bcd"}));
}

TEST(SpillCodecTest, DecodeRejectsTruncation) {
  std::string buf;
  SpillCodec<std::string>::Encode("payload", &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const char* p = buf.data();
    const char* end = p + cut;
    std::string out;
    EXPECT_FALSE(SpillCodec<std::string>::Decode(&p, end, &out))
        << "accepted a truncation at " << cut;
  }
}

TEST(SpillCodecTest, VectorCountBeyondBytesLeftIsRejected) {
  // A corrupt element count must fail the decode, not size a reserve:
  // 0xFFFFFFFF strings would ask for ~137 GB.
  std::string buf;
  SpillCodec<uint32_t>::Encode(0xFFFFFFFFu, &buf);
  buf.append(8, '\0');
  const char* p = buf.data();
  std::vector<std::string> out;
  EXPECT_FALSE(SpillCodec<std::vector<std::string>>::Decode(
      &p, buf.data() + buf.size(), &out));

  // A count equal to the bytes left passes the bound and then fails on
  // the truncated elements.
  buf.clear();
  SpillCodec<uint32_t>::Encode(3, &buf);
  buf.append(3, '\0');
  p = buf.data();
  EXPECT_FALSE(SpillCodec<std::vector<std::string>>::Decode(
      &p, buf.data() + buf.size(), &out));
}

TEST(SpillCodecTest, EntityRef) {
  er::Entity e;
  e.id = 42;
  e.cluster_id = 7;
  e.source = er::Source::kS;
  e.fields = {"alpha", "", "gamma"};
  er::EntityRef ref = er::MakeEntityRef(e);
  er::EntityRef back = RoundTrip(ref);
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->cluster_id, 7u);
  EXPECT_EQ(back->source, er::Source::kS);
  EXPECT_EQ(back->fields, e.fields);
  // A real copy, not a shared pointer smuggled through.
  EXPECT_NE(back.get(), ref.get());
}

TEST(SpillCodecTest, MatchKvTypes) {
  lb::BasicKey bk{"block-17", er::Source::kS};
  auto bk2 = RoundTrip(bk);
  EXPECT_EQ(bk2.block_key, "block-17");
  EXPECT_EQ(bk2.source, er::Source::kS);

  lb::BlockSplitKey bsk{3, 9, 2, 1, er::Source::kR};
  auto bsk2 = RoundTrip(bsk);
  EXPECT_EQ(bsk2.reduce_task, 3u);
  EXPECT_EQ(bsk2.block, 9u);
  EXPECT_EQ(bsk2.pi, 2u);
  EXPECT_EQ(bsk2.pj, 1u);

  lb::PairRangeKey prk{5, 11, er::Source::kS, 123456789};
  auto prk2 = RoundTrip(prk);
  EXPECT_EQ(prk2.range, 5u);
  EXPECT_EQ(prk2.block, 11u);
  EXPECT_EQ(prk2.source, er::Source::kS);
  EXPECT_EQ(prk2.entity_index, 123456789u);

  lb::MatchValue mv{er::MakeEntityRef({10, {"t"}, 0, er::Source::kR}), 4,
                    99};
  auto mv2 = RoundTrip(mv);
  EXPECT_EQ(mv2.entity->id, 10u);
  EXPECT_EQ(mv2.partition, 4u);
  EXPECT_EQ(mv2.entity_index, 99u);
}

TEST(SpillCodecTest, SpillableDetection) {
  static_assert(Spillable<uint32_t>);
  static_assert(Spillable<std::string>);
  static_assert(Spillable<std::pair<int, std::string>>);
  static_assert(Spillable<er::EntityRef>);
  static_assert(Spillable<lb::BasicKey>);
  static_assert(Spillable<lb::BlockSplitKey>);
  static_assert(Spillable<lb::PairRangeKey>);
  static_assert(Spillable<lb::MatchValue>);
  struct Opaque {};
  static_assert(!Spillable<Opaque>);
}

using Rec = std::pair<uint64_t, std::string>;

std::vector<std::vector<Rec>> MakeRuns(uint32_t num_runs,
                                       uint32_t records_per_run,
                                       uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<Rec>> runs(num_runs);
  for (auto& run : runs) {
    for (uint32_t i = 0; i < records_per_run; ++i) {
      std::string value = "v";
      value += std::to_string(rng.NextBounded(1000));
      run.push_back({rng.NextBounded(50), std::move(value)});
    }
    std::stable_sort(run.begin(), run.end(),
                     [](const Rec& a, const Rec& b) {
                       return a.first < b.first;
                     });
  }
  return runs;
}

TEST(SpillFileTest, WriteAndStreamRunsBack) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto runs = MakeRuns(5, 200, 1);

  SpillFileWriter<uint64_t, std::string> writer;
  ASSERT_TRUE(writer.Open(SpillFilePath(dir->path(), 0), 64).ok());
  for (const auto& run : runs) {
    ASSERT_TRUE(writer.BeginRun().ok());
    for (const auto& [k, v] : run) {
      ASSERT_TRUE(writer.Append(k, v).ok());
    }
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->runs.size(), 5u);
  EXPECT_EQ(fs::file_size(file->path), file->TotalBytes());

  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(file->runs[i].records, runs[i].size());
    RunCursor<uint64_t, std::string> cursor;
    ASSERT_TRUE(cursor.Open(file->path, file->runs[i], 64).ok());
    std::vector<Rec> got;
    while (!cursor.exhausted()) got.push_back(cursor.Pop());
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    EXPECT_EQ(got, runs[i]);
  }
}

TEST(SpillFileTest, EmptyRunsHaveZeroExtent) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  SpillFileWriter<uint32_t, uint32_t> writer;
  ASSERT_TRUE(writer.Open(SpillFilePath(dir->path(), 3), 64).ok());
  ASSERT_TRUE(writer.BeginRun().ok());  // empty
  ASSERT_TRUE(writer.BeginRun().ok());
  ASSERT_TRUE(writer.Append(1, 2).ok());
  ASSERT_TRUE(writer.BeginRun().ok());  // empty
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->runs[0].records, 0u);
  EXPECT_EQ(file->runs[0].bytes, 0u);
  EXPECT_EQ(file->runs[1].records, 1u);
  EXPECT_EQ(file->runs[2].records, 0u);
}

TEST(SpillFileTest, CursorReportsCorruptRecords) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  // A record that claims more payload than the file holds.
  std::string path = dir->path() + "/corrupt.run";
  BufferedFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  uint32_t len = 1000;
  ASSERT_TRUE(w.Append(&len, sizeof(len)).ok());
  ASSERT_TRUE(w.Append("abc", 3).ok());
  ASSERT_TRUE(w.Close().ok());

  RunExtent extent{0, sizeof(len) + 3, 1};
  RunCursor<uint32_t, uint32_t> cursor;
  Status s = cursor.Open(path, extent, 64);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(cursor.exhausted());
}

TEST(SpillFileTest, CursorReportsHugeElementCountAsCorrupt) {
  // Records are decoded before the run checksum is checked, so a
  // corrupt element count inside a well-framed record reaches the codec;
  // it must surface through status(), not as an exception.
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  std::string payload;
  SpillCodec<uint32_t>::Encode(7, &payload);           // key
  SpillCodec<uint32_t>::Encode(0xFFFFFFFFu, &payload);  // element count
  payload.append(8, 'x');
  const std::string path = dir->path() + "/huge_count.run";
  BufferedFileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  ASSERT_TRUE(w.Append(&len, sizeof(len)).ok());
  ASSERT_TRUE(w.Append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(w.Close().ok());

  RunExtent extent{0, sizeof(len) + payload.size(), 1};
  RunCursor<uint32_t, std::vector<std::string>> cursor;
  Status s = cursor.Open(path, extent, 64);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(cursor.exhausted());
}

// ---- Run footers: tamper detection --------------------------------------

TEST(RunFooterTest, EncodeDecodeRoundTrip) {
  char buf[kRunFooterBytes];
  EncodeRunFooter(RunFooter{12345, 0xDEADBEEFCAFEF00Dull}, buf);
  RunFooter footer;
  ASSERT_TRUE(DecodeRunFooter(buf, &footer));
  EXPECT_EQ(footer.records, 12345u);
  EXPECT_EQ(footer.checksum, 0xDEADBEEFCAFEF00Dull);
  buf[0] ^= 0x01;  // damage the magic
  EXPECT_FALSE(DecodeRunFooter(buf, &footer));
}

// Writes one single-run spill file and returns its extents.
Result<SpillFile> WriteOneRunFile(const std::string& path) {
  SpillFileWriter<uint64_t, std::string> writer;
  ERLB_RETURN_NOT_OK(writer.Open(path, 64));
  ERLB_RETURN_NOT_OK(writer.BeginRun());
  for (uint64_t i = 0; i < 50; ++i) {
    ERLB_RETURN_NOT_OK(writer.Append(i, "value" + std::to_string(i)));
  }
  return writer.Finish(/*sync=*/true);
}

// Streams the whole run and returns the cursor's final status.
Status DrainRun(const SpillFile& file) {
  RunCursor<uint64_t, std::string> cursor;
  Status open = cursor.Open(file.path, file.runs[0], 64);
  if (!open.ok()) return open;
  while (!cursor.exhausted()) cursor.Pop();
  return cursor.status();
}

void FlipByteAt(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x20;
  f.seekp(offset);
  f.write(&byte, 1);
}

TEST(RunFooterTest, CursorDetectsPayloadBitFlip) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto file = WriteOneRunFile(dir->path() + "/flip.run");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(DrainRun(*file).ok());

  // Flip one byte inside the last record's string payload: framing and
  // per-record decode stay intact, so only the footer checksum can
  // catch it — and must, as a clean IOError after the drain.
  FlipByteAt(file->path,
             static_cast<std::streamoff>(fs::file_size(file->path)) -
                 static_cast<std::streamoff>(kRunFooterBytes) - 1);
  Status st = DrainRun(*file);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(RunFooterTest, CursorDetectsFooterTampering) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto file = WriteOneRunFile(dir->path() + "/tamper.run");
  ASSERT_TRUE(file.ok());

  // Corrupt the recorded record count inside the footer itself.
  FlipByteAt(file->path,
             static_cast<std::streamoff>(fs::file_size(file->path)) -
                 static_cast<std::streamoff>(kRunFooterBytes) + 4);
  Status st = DrainRun(*file);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(RunFooterTest, CursorDetectsTruncation) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto file = WriteOneRunFile(dir->path() + "/trunc.run");
  ASSERT_TRUE(file.ok());

  // Chop half the footer: the drain must end in "footer missing", not
  // a crash or a silent success.
  fs::resize_file(file->path, fs::file_size(file->path) - 10);
  Status st = DrainRun(*file);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("footer"), std::string::npos)
      << st.ToString();
}

// The file-backed merge must produce exactly what the in-memory oracle
// produces from the same runs: sorted by key, ties grouped by run index.
TEST(SpillMergeTest, FileCursorsMatchInMemoryOracle) {
  auto dir = ScopedTempDir::Make();
  ASSERT_TRUE(dir.ok());
  for (uint32_t num_runs : {1u, 2u, 7u, 16u}) {
    auto runs = MakeRuns(num_runs, 300, 100 + num_runs);
    auto oracle_input = runs;
    std::vector<Rec> expected = ConcatAndStableSort(
        std::span<const std::vector<Rec>>(oracle_input),
        [](const Rec& a, const Rec& b) { return a.first < b.first; });

    SpillFileWriter<uint64_t, std::string> writer;
    ASSERT_TRUE(
        writer.Open(SpillFilePath(dir->path(), num_runs), 128).ok());
    for (const auto& run : runs) {
      ASSERT_TRUE(writer.BeginRun().ok());
      for (const auto& [k, v] : run) {
        ASSERT_TRUE(writer.Append(k, v).ok());
      }
    }
    auto file = writer.Finish();
    ASSERT_TRUE(file.ok());

    std::vector<RunCursor<uint64_t, std::string>> cursors(num_runs);
    for (uint32_t i = 0; i < num_runs; ++i) {
      ASSERT_TRUE(cursors[i].Open(file->path, file->runs[i], 64).ok());
    }
    std::vector<Rec> got;
    LoserTreeMergeCursors(
        std::span<RunCursor<uint64_t, std::string>>(cursors),
        [](const Rec& a, const Rec& b) { return a.first < b.first; },
        [&got](Rec&& rec) { got.push_back(std::move(rec)); });
    for (const auto& c : cursors) {
      ASSERT_TRUE(c.status().ok()) << c.status().ToString();
    }
    EXPECT_EQ(got, expected) << num_runs << " runs";
  }
}

// ---- Engine-level: temp-dir lifetime and error propagation --------------

struct AggOut {
  int64_t sum = 0;
  friend bool operator==(const AggOut&, const AggOut&) = default;
};

class SumMapper : public Mapper<int, int64_t, uint32_t, int64_t> {
 public:
  void Map(const int& k, const int64_t& v,
           MapContext<uint32_t, int64_t>* ctx) override {
    ctx->Emit(static_cast<uint32_t>(k), v);
  }
};

class SumReducer : public Reducer<uint32_t, int64_t, uint32_t, AggOut> {
 public:
  void Reduce(std::span<const std::pair<uint32_t, int64_t>> group,
              ReduceContext<uint32_t, AggOut>* ctx) override {
    AggOut out;
    for (const auto& [k, v] : group) out.sum += v;
    ctx->Emit(group.front().first, out);
  }
};

struct ModPartitionFn {
  uint32_t operator()(uint32_t k, uint32_t r) const { return k % r; }
};

using SumSpecT =
    TypedJobSpec<int, int64_t, uint32_t, int64_t, uint32_t, AggOut,
                 std::less<>, std::equal_to<>, ModPartitionFn>;

SumSpecT SumSpec(uint32_t r) {
  SumSpecT spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<SumMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  return spec;
}

std::vector<std::vector<std::pair<int, int64_t>>> SumInput(uint32_t m) {
  Pcg32 rng(7);
  std::vector<std::vector<std::pair<int, int64_t>>> input(m);
  for (auto& part : input) {
    for (int i = 0; i < 500; ++i) {
      part.push_back({static_cast<int>(rng.NextBounded(23)),
                      rng.NextInRange(-50, 50)});
    }
  }
  return input;
}

size_t EntriesUnder(const std::string& dir) {
  size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++n;
  return n;
}

TEST(ExternalJobCleanupTest, SpillDirRemovedOnSuccess) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  ExecutionOptions options;
  options.mode = ExecutionMode::kExternal;
  options.temp_dir = base->path();
  JobRunner runner(4, options);
  auto result = runner.Run(SumSpec(5), SumInput(6));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.metrics.external);
  EXPECT_GT(result.metrics.spill_bytes_written, 0);
  // Every spill file and the per-run directory are gone.
  EXPECT_EQ(EntriesUnder(base->path()), 0u);
}

TEST(ExternalJobCleanupTest, SpillDirRemovedOnInjectedWriteFailure) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  ExecutionOptions options;
  options.mode = ExecutionMode::kExternal;
  options.temp_dir = base->path();
  // Each map task emits 500 records; failing after 1000 bytes hits
  // mid-spill (emulated ENOSPC) in every map task.
  options.fail_writer_after_bytes = 1000;
  JobRunner runner(4, options);
  auto result = runner.Run(SumSpec(5), SumInput(6));
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.ToString().find("injected write failure"),
            std::string::npos)
      << result.status.ToString();
  // The failed run's spill dir (and its partial files) were still removed.
  EXPECT_EQ(EntriesUnder(base->path()), 0u);
}

TEST(ExternalJobCleanupTest, FailureInOneTaskOfManyStillCleansUp) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  ExecutionOptions options;
  options.mode = ExecutionMode::kExternal;
  options.temp_dir = base->path();
  options.fail_writer_after_bytes = 3000;  // some tasks succeed first
  JobRunner runner(2, options);
  auto input = SumInput(4);
  input[2].resize(20);  // this task stays under the limit
  auto result = runner.Run(SumSpec(3), input);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(EntriesUnder(base->path()), 0u);
}

TEST(ExternalJobCleanupTest, UnwritableTempDirSurfacesAsStatus) {
  ExecutionOptions options;
  options.mode = ExecutionMode::kExternal;
  options.temp_dir = "/proc/definitely-not-writable";
  JobRunner runner(2, options);
  auto result = runner.Run(SumSpec(2), SumInput(2));
  EXPECT_FALSE(result.status.ok());
}

}  // namespace
}  // namespace mr
}  // namespace erlb
