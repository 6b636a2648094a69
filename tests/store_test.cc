// Unit tests of the durable-state store (src/store/): journal framing and
// crash-recovery invariants (kill/reopen mid-journal, torn-tail truncation,
// CRC corruption), snapshot atomicity and versioning, and the
// snapshot + journal-generation lifecycle of DurableStore. The serving-level
// warm-restart equivalence lives in tests/store_recovery_test.cc.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/store.h"

namespace slicetuner {
namespace store {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/store_test_" + name;
  // Tests re-run in place: clear any file left by a previous invocation.
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  if (files.ok()) {
    for (const std::string& file : *files) {
      (void)RemoveFile(dir + "/" + file);
    }
  }
  ST_CHECK_OK(MkDirRecursive(dir));
  return dir;
}

json::Value Record(int n) {
  json::Value record = json::Value::Object();
  record.Set("event", "test");
  record.Set("n", n);
  return record;
}

std::string ReadAll(const std::string& path) {
  const Result<std::string> content = ReadFileToString(path);
  ST_CHECK_OK(content.status());
  return *content;
}

// ---------------------------------------------------------------------------
// fs_util primitives
// ---------------------------------------------------------------------------

TEST(FsUtilTest, Crc32KnownVectorsAndChunking) {
  // The canonical CRC-32 ("123456789" -> 0xcbf43926) pins the polynomial
  // and bit order; the chunked form must agree with the one-shot form.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
  const uint32_t partial = Crc32(std::string("12345"));
  EXPECT_EQ(Crc32(std::string("6789"), partial), 0xcbf43926u);
}

// The CRC-32 definition, one byte at a time: the reference the sliced
// implementation must match value for value.
uint32_t BytewiseCrc32(const unsigned char* data, size_t size,
                       uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(FsUtilTest, Crc32MatchesBytewiseReferenceAtEveryAlignment) {
  Rng rng(0xC4C32);
  std::vector<unsigned char> buffer(4096 + 16);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.UniformInt(uint64_t{256}));
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 67; ++size) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, size), BytewiseCrc32(p, size, 0))
          << "offset " << offset << " size " << size;
    }
    const size_t big = 4096 - offset % 8;
    const unsigned char* p = buffer.data() + offset;
    ASSERT_EQ(Crc32(p, big), BytewiseCrc32(p, big, 0)) << offset;
    // Chunked at an odd split: the seed carries the running value.
    const uint32_t head = Crc32(p, 13 + offset);
    EXPECT_EQ(Crc32(p + 13 + offset, big - 13 - offset, head),
              BytewiseCrc32(p, big, 0));
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t offset = static_cast<size_t>(rng.UniformInt(uint64_t{16}));
    const size_t size = static_cast<size_t>(rng.UniformInt(uint64_t{4097}));
    const uint32_t seed = static_cast<uint32_t>(rng());
    const unsigned char* p = buffer.data() + offset;
    ASSERT_EQ(Crc32(p, size, seed), BytewiseCrc32(p, size, seed));
  }
}

TEST(FsUtilTest, WriteFileAtomicReplacesAndLeavesNoTemp) {
  const std::string dir = FreshDir("atomic");
  const std::string path = dir + "/target.txt";
  ST_CHECK_OK(WriteFileAtomic(path, "first"));
  EXPECT_EQ(ReadAll(path), "first");
  ST_CHECK_OK(WriteFileAtomic(path, "second"));
  EXPECT_EQ(ReadAll(path), "second");
  struct ::stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0)
      << "temp file must not survive a successful atomic write";
}

// ---------------------------------------------------------------------------
// Journal framing + recovery
// ---------------------------------------------------------------------------

TEST(JournalTest, AppendSyncReopenReplaysInOrder) {
  const std::string dir = FreshDir("journal_roundtrip");
  const std::string path = dir + "/journal.wal";
  {
    Result<JournalWriter> writer = JournalWriter::Open(path);
    ST_CHECK_OK(writer.status());
    for (int n = 0; n < 5; ++n) ST_CHECK_OK(writer->Append(Record(n)));
    ST_CHECK_OK(writer->Sync());
  }
  const Result<JournalReadResult> read = ReadJournal(path);
  ST_CHECK_OK(read.status());
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_FALSE(read->tail_truncated);
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(read->records[static_cast<size_t>(n)].GetInt("n"), n);
  }
}

TEST(JournalTest, MissingFileIsEmptyJournal) {
  const Result<JournalReadResult> read =
      ReadJournal(testing::TempDir() + "/store_test_does_not_exist.wal");
  ST_CHECK_OK(read.status());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->tail_truncated);
}

// Kill/reopen mid-journal: the final record is half-written (no newline).
TEST(JournalTest, TornTailWithoutNewlineIsTruncated) {
  const std::string dir = FreshDir("torn_tail");
  const std::string path = dir + "/journal.wal";
  std::string bytes = FrameRecord(Record(1));
  bytes += FrameRecord(Record(2));
  const std::string torn = FrameRecord(Record(3));
  bytes += torn.substr(0, torn.size() / 2);  // killed mid-write
  ST_CHECK_OK(WriteStringToFile(path, bytes));

  const Result<JournalReadResult> read = ReadJournal(path);
  ST_CHECK_OK(read.status());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_GT(read->bytes_discarded, 0u);

  // Reopening for append physically truncates the damage, and appended
  // records follow the valid prefix.
  {
    Result<JournalWriter> writer = JournalWriter::Open(path);
    ST_CHECK_OK(writer.status());
    ST_CHECK_OK(writer->Append(Record(4)));
    ST_CHECK_OK(writer->Sync());
  }
  const Result<JournalReadResult> reread = ReadJournal(path);
  ST_CHECK_OK(reread.status());
  ASSERT_EQ(reread->records.size(), 3u);
  EXPECT_EQ(reread->records[2].GetInt("n"), 4);
  EXPECT_FALSE(reread->tail_truncated);
}

// A complete final line whose CRC does not match its payload (e.g. the
// payload bytes landed but the checksum sector did not).
TEST(JournalTest, CorruptCrcOnTailRecordIsTruncated) {
  const std::string dir = FreshDir("bad_tail_crc");
  const std::string path = dir + "/journal.wal";
  std::string bytes = FrameRecord(Record(1));
  std::string bad = FrameRecord(Record(2));
  bad[0] = bad[0] == '0' ? '1' : '0';  // flip a checksum digit
  bytes += bad;
  ST_CHECK_OK(WriteStringToFile(path, bytes));

  const Result<JournalReadResult> read = ReadJournal(path);
  ST_CHECK_OK(read.status());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].GetInt("n"), 1);
  EXPECT_TRUE(read->tail_truncated);
}

// A payload flip mid-file with intact records after it cannot come from a
// crash; recovery must refuse instead of silently dropping history.
TEST(JournalTest, MidFileCorruptionRefusesRecovery) {
  const std::string dir = FreshDir("mid_corruption");
  const std::string path = dir + "/journal.wal";
  std::string middle = FrameRecord(Record(2));
  middle[middle.size() - 3] ^= 0x01;  // flip a payload byte
  const std::string bytes =
      FrameRecord(Record(1)) + middle + FrameRecord(Record(3));
  ST_CHECK_OK(WriteStringToFile(path, bytes));

  const Result<JournalReadResult> read = ReadJournal(path);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);

  // The writer inherits the refusal: a corrupted journal cannot be opened
  // for append either.
  EXPECT_FALSE(JournalWriter::Open(path).ok());
}

// Enough records that the decode fans out across the pool: damage at the
// first, a middle and the last record keeps the serial policy — a torn
// tail is dropped, damage followed by an intact record refuses recovery.
TEST(JournalTest, ParallelDecodeKeepsTheDamagePolicy) {
  const std::string dir = FreshDir("journal_parallel");
  const std::string path = dir + "/journal.wal";
  constexpr size_t kRecords = 200;
  std::vector<std::string> lines;
  for (size_t n = 0; n < kRecords; ++n) {
    lines.push_back(FrameRecord(Record(static_cast<int>(n))));
  }
  const auto write_damaged = [&](size_t damaged) {
    std::string bytes;
    for (size_t n = 0; n < kRecords; ++n) {
      std::string line = lines[n];
      if (n == damaged) line[line.size() - 3] ^= 0x01;  // a payload byte
      bytes += line;
    }
    ST_CHECK_OK(WriteStringToFile(path, bytes));
    return bytes.size();
  };

  const size_t total = write_damaged(kRecords);  // nothing damaged
  Result<JournalReadResult> read = ReadJournal(path);
  ST_CHECK_OK(read.status());
  ASSERT_EQ(read->records.size(), kRecords);
  for (size_t n = 0; n < kRecords; ++n) {
    EXPECT_EQ(read->records[n].GetInt("n"), static_cast<long long>(n));
  }
  EXPECT_EQ(read->valid_bytes, total);
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->bytes_discarded, 0u);

  for (const size_t damaged : {size_t{0}, kRecords / 2}) {
    write_damaged(damaged);
    read = ReadJournal(path);
    EXPECT_EQ(read.status().code(), StatusCode::kInternal)
        << "damage at record " << damaged;
    EXPECT_NE(read.status().message().find("corrupted mid-file"),
              std::string::npos)
        << read.status().ToString();
  }

  write_damaged(kRecords - 1);
  read = ReadJournal(path);
  ST_CHECK_OK(read.status());
  ASSERT_EQ(read->records.size(), kRecords - 1);
  EXPECT_EQ(read->records.back().GetInt("n"),
            static_cast<long long>(kRecords - 2));
  EXPECT_EQ(read->valid_bytes, total - lines.back().size());
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->bytes_discarded, lines.back().size());
}

// ---------------------------------------------------------------------------
// Snapshot framing
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripsDocument) {
  const std::string dir = FreshDir("snapshot_roundtrip");
  const std::string path = dir + "/snapshot.st";
  json::Value doc = json::Value::Object();
  doc.Set("hello", "world");
  doc.Set("pi", 3.14159265358979);
  ST_CHECK_OK(WriteSnapshotFile(path, doc));
  const Result<json::Value> read = ReadSnapshotFile(path);
  ST_CHECK_OK(read.status());
  EXPECT_EQ(*read, doc);
}

TEST(SnapshotTest, RejectsCorruptedPayloadAndBadVersion) {
  const std::string dir = FreshDir("snapshot_bad");
  const std::string path = dir + "/snapshot.st";
  json::Value doc = json::Value::Object();
  doc.Set("k", 1);
  ST_CHECK_OK(WriteSnapshotFile(path, doc));

  // Flip one payload byte: CRC check must fail.
  std::string bytes = ReadAll(path);
  bytes[bytes.size() - 3] ^= 0x01;
  ST_CHECK_OK(WriteStringToFile(path, bytes));
  EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kInternal);

  // A future format major is rejected up front.
  std::string future = EncodeSnapshot(doc);
  const size_t v = future.find(" v2 ");
  ASSERT_NE(v, std::string::npos);
  future.replace(v, 4, " v9 ");
  ST_CHECK_OK(WriteStringToFile(path, future));
  EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kInternal);

  EXPECT_EQ(ReadSnapshotFile(dir + "/missing.st").status().code(),
            StatusCode::kNotFound);
}

// A small document in the serving layer's shape, with "sessions" between
// other members, so a round trip must put the entries back in place.
json::Value MultiSessionDoc() {
  json::Value doc = json::Value::Object();
  doc.Set("format", "slicetuner-serve-state");
  doc.Set("version", 1);
  json::Value sessions = json::Value::Array();
  for (int i = 0; i < 3; ++i) {
    json::Value entry = json::Value::Object();
    entry.Set("name", "s" + std::to_string(i));
    entry.Set("id", i + 1);
    entry.Set("loss", 0.25 + i);
    json::Value acquires = json::Value::Array();
    for (int k = 0; k <= i; ++k) acquires.Append(k * 7);
    entry.Set("acquires", std::move(acquires));
    sessions.Append(std::move(entry));
  }
  doc.Set("sessions", std::move(sessions));
  doc.Set("next_id", 4);
  return doc;
}

TEST(SnapshotTest, V2FramesOneLinePerSessionAndKeepsMemberOrder) {
  const std::string dir = FreshDir("snapshot_v2");
  const std::string path = dir + "/snapshot.st";
  const json::Value doc = MultiSessionDoc();
  ST_CHECK_OK(WriteSnapshotFile(path, doc));
  const std::string bytes = ReadAll(path);
  // Header, head line, one line per session.
  EXPECT_EQ(bytes.rfind("SLICETUNER-SNAPSHOT v2 4 ", 0), 0u) << bytes;
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 5);
  const Result<json::Value> read = ReadSnapshotFile(path);
  ST_CHECK_OK(read.status());
  EXPECT_EQ(read->Dump(), doc.Dump());

  // No sessions member, an empty array and a non-array "sessions" all
  // round-trip as one head line.
  json::Value plain = json::Value::Object();
  plain.Set("k", 1);
  json::Value empty = plain;
  empty.Set("sessions", json::Value::Array());
  json::Value scalar = plain;
  scalar.Set("sessions", 3);
  for (const json::Value& other : {plain, empty, scalar}) {
    ST_CHECK_OK(WriteSnapshotFile(path, other));
    EXPECT_EQ(ReadAll(path).rfind("SLICETUNER-SNAPSHOT v2 1 ", 0), 0u);
    const Result<json::Value> back = ReadSnapshotFile(path);
    ST_CHECK_OK(back.status());
    EXPECT_EQ(back->Dump(), other.Dump());
  }
}

TEST(SnapshotTest, V2RejectsEverySingleByteFlip) {
  const std::string dir = FreshDir("snapshot_v2_flip");
  const std::string path = dir + "/snapshot.st";
  const std::string bytes = EncodeSnapshot(MultiSessionDoc());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] ^= 0x01;
    ST_CHECK_OK(WriteStringToFile(path, damaged));
    EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kInternal)
        << "flip at byte " << i << " of " << bytes.size();
  }
}

// Every prefix: the cuts at line boundaries and inside every line.
TEST(SnapshotTest, V2RejectsTruncation) {
  const std::string dir = FreshDir("snapshot_v2_cut");
  const std::string path = dir + "/snapshot.st";
  const std::string bytes = EncodeSnapshot(MultiSessionDoc());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ST_CHECK_OK(WriteStringToFile(path, bytes.substr(0, cut)));
    EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kInternal)
        << "cut at byte " << cut << " of " << bytes.size();
  }
}

// A header whose counts disagree with intact lines is damage too.
TEST(SnapshotTest, V2RejectsCountAndByteMismatch) {
  const std::string dir = FreshDir("snapshot_v2_counts");
  const std::string path = dir + "/snapshot.st";
  const std::string bytes = EncodeSnapshot(MultiSessionDoc());
  const size_t newline = bytes.find('\n');
  const std::string payload = bytes.substr(newline + 1);
  const auto with_header = [&](size_t records, size_t payload_bytes,
                               const std::string& body) {
    ST_CHECK_OK(WriteStringToFile(
        path, StrFormat("SLICETUNER-SNAPSHOT v2 %zu %zu\n", records,
                        payload_bytes) +
                  body));
    return ReadSnapshotFile(path).status().code();
  };
  EXPECT_EQ(with_header(4, payload.size(), payload), StatusCode::kOk);
  EXPECT_EQ(with_header(3, payload.size(), payload), StatusCode::kInternal);
  EXPECT_EQ(with_header(5, payload.size(), payload), StatusCode::kInternal);
  EXPECT_EQ(with_header(4, payload.size() - 1, payload),
            StatusCode::kInternal);
  // An intact extra line is still one line more than promised.
  const std::string extra = payload + FrameRecord(Record(9));
  EXPECT_EQ(with_header(4, extra.size(), extra), StatusCode::kInternal);
  // Entry lines need the head's empty "sessions" placeholder.
  json::Value head = json::Value::Object();
  head.Set("k", 1);
  const std::string orphan = FrameRecord(head) + FrameRecord(Record(1));
  EXPECT_EQ(with_header(2, orphan.size(), orphan), StatusCode::kInternal);
}

// Snapshots written before v2 are one pretty-printed payload under one CRC.
TEST(SnapshotTest, ReadsV1Files) {
  const std::string dir = FreshDir("snapshot_v1");
  const std::string path = dir + "/snapshot.st";
  const json::Value doc = MultiSessionDoc();
  const std::string payload = doc.Dump(/*indent=*/2) + "\n";
  std::string bytes = StrFormat("SLICETUNER-SNAPSHOT v1 %08x %zu\n",
                                Crc32(payload), payload.size()) +
                      payload;
  ST_CHECK_OK(WriteStringToFile(path, bytes));
  const Result<json::Value> read = ReadSnapshotFile(path);
  ST_CHECK_OK(read.status());
  EXPECT_EQ(read->Dump(), doc.Dump());

  bytes[bytes.size() - 4] ^= 0x01;
  ST_CHECK_OK(WriteStringToFile(path, bytes));
  EXPECT_EQ(ReadSnapshotFile(path).status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// DurableStore lifecycle
// ---------------------------------------------------------------------------

TEST(DurableStoreTest, RecoversAppendsAcrossReopen) {
  const std::string dir = FreshDir("store_reopen");
  {
    Result<std::unique_ptr<DurableStore>> opened = DurableStore::Open(dir);
    ST_CHECK_OK(opened.status());
    EXPECT_TRUE((*opened)->recovered().snapshot.is_null());
    EXPECT_TRUE((*opened)->recovered().tail.empty());
    ST_CHECK_OK((*opened)->Append(Record(1)));
    ST_CHECK_OK((*opened)->Append(Record(2)));
    ST_CHECK_OK((*opened)->Sync());
  }
  Result<std::unique_ptr<DurableStore>> reopened = DurableStore::Open(dir);
  ST_CHECK_OK(reopened.status());
  ASSERT_EQ((*reopened)->recovered().tail.size(), 2u);
  EXPECT_EQ((*reopened)->recovered().tail[1].GetInt("n"), 2);
}

TEST(DurableStoreTest, CheckpointDropsCoveredHistory) {
  const std::string dir = FreshDir("store_compact");
  Result<std::unique_ptr<DurableStore>> opened = DurableStore::Open(dir);
  ST_CHECK_OK(opened.status());
  DurableStore& store = **opened;
  ST_CHECK_OK(store.Append(Record(1)));
  json::Value doc = json::Value::Object();
  doc.Set("covers", 1);
  ST_CHECK_OK(store.CheckpointOnline([&doc] { return doc; }, 1).status());
  // Appends after the checkpoint land in the next generation.
  ST_CHECK_OK(store.Append(Record(2)));
  ST_CHECK_OK(store.Sync());

  const Result<RecoveredState> state = ReadStateDir(dir);
  ST_CHECK_OK(state.status());
  EXPECT_EQ(state->snapshot.GetInt("covers"), 1);
  ASSERT_EQ(state->tail.size(), 1u) << "covered records must be gone";
  EXPECT_EQ(state->tail[0].GetInt("n"), 2);
}

TEST(DurableStoreTest, TornTailInOlderGenerationIsCorruption) {
  const std::string dir = FreshDir("store_torn_old_gen");
  // Each Open starts a fresh generation: two opens leave two generations.
  for (int n = 1; n <= 2; ++n) {
    Result<std::unique_ptr<DurableStore>> opened = DurableStore::Open(dir);
    ST_CHECK_OK(opened.status());
    ST_CHECK_OK((*opened)->Append(Record(n)));
    ST_CHECK_OK((*opened)->Sync());
  }
  // Tear the tail of the OLDER generation: a newer generation follows it,
  // so damage there cannot be a crash artifact.
  const Result<std::vector<std::string>> files = ListDirFiles(dir);
  ST_CHECK_OK(files.status());
  std::string oldest;
  for (const std::string& file : *files) {
    if (file.rfind("journal-", 0) == 0) {
      oldest = file;
      break;  // sorted: first journal file is the oldest generation
    }
  }
  ASSERT_FALSE(oldest.empty());
  std::string bytes = ReadAll(dir + "/" + oldest);
  bytes.resize(bytes.size() - 2);  // chop the newline + a checksum byte
  ST_CHECK_OK(WriteStringToFile(dir + "/" + oldest, bytes));

  EXPECT_EQ(ReadStateDir(dir).status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace store
}  // namespace slicetuner
