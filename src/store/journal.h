// Write-ahead journal: the append-only half of the durable-state store.
//
// A journal file is a sequence of CRC-framed, line-delimited JSON records:
//
//   record   := crc8hex SP payload LF
//   crc8hex  := 8 lowercase hex digits — CRC32 (common/fs_util.h) of the
//               payload bytes
//   payload  := one JSON object, compact form (no interior newlines; the
//               deterministic writer of common/json.h guarantees this)
//
// The framing makes two failure modes detectable (docs/STATE.md spells out
// the full crash-recovery contract):
//
//   * torn tail — the process died mid-append, leaving a final record with
//     no LF, a short CRC prefix, or a CRC mismatch. Recovery keeps the valid
//     prefix and truncates the damage (`tail_truncated` reports it).
//   * mid-file corruption — a record fails its CRC but VALID records follow
//     it, which an append-only crash cannot produce (bit rot, manual edits).
//     Recovery refuses with DataLoss rather than silently dropping history.
//
// Durability is batched: Append buffers through stdio and only Sync()
// reaches fsync. Callers group-commit — the serving layer appends one record
// per acquisition and syncs once per finished job.

#ifndef SLICETUNER_STORE_JOURNAL_H_
#define SLICETUNER_STORE_JOURNAL_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace slicetuner {
namespace store {

/// Frames `payload` (compact JSON + CRC header) as one journal line,
/// including the trailing newline. Exposed for tests that build journal
/// bytes by hand.
std::string FrameRecord(const json::Value& payload);

/// Appends the framed line of `payload` to `out` (v2 snapshots frame every
/// entry this way).
void FrameRecord(const json::Value& payload, std::string* out);

/// One LF-terminated line of a framed file, decoded.
struct FramedLine {
  /// Byte offset just past the line's LF.
  size_t end = 0;
  /// The payload, or why the line's header, CRC or JSON is damaged.
  Result<json::Value> value = json::Value();
};

/// Every complete line of a framed file, in file order.
struct FramedLines {
  std::vector<FramedLine> lines;
  /// Bytes after the last LF (an unterminated final line), 0 if none.
  size_t unterminated_bytes = 0;
};

/// The decoder journals and v2 snapshots share: splits `bytes` into lines
/// serially, then checks each line's CRC and parses its payload across the
/// shared pool (common/parallel_for.h) into per-line slots. It judges
/// nothing: each caller applies its own damage policy to the slots.
FramedLines DecodeFramedLines(std::string_view bytes);

/// What reading a journal file yields.
struct JournalReadResult {
  /// Every intact record, in append order.
  std::vector<json::Value> records;
  /// True when a damaged tail (torn final record) was dropped.
  bool tail_truncated = false;
  /// Bytes of tail damage discarded (0 when tail_truncated is false).
  size_t bytes_discarded = 0;
  /// Byte offset of the end of the last valid record — the length a writer
  /// reopening this file must truncate it to before appending.
  size_t valid_bytes = 0;
};

/// Reads and validates a whole journal file. A missing file is an empty
/// journal (not an error). A damaged *tail* is tolerated and reported via
/// `tail_truncated`; a CRC/framing failure with intact records after it is
/// DataLoss-style corruption and fails with Internal (an append-only crash
/// cannot produce it, so recovery must not guess).
Result<JournalReadResult> ReadJournal(const std::string& path);

/// Appender. Open() validates any existing content first and physically
/// truncates a torn tail, so appended records always follow a valid prefix.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending (creating it if missing). Existing content
  /// is validated with ReadJournal semantics; a torn tail is truncated away
  /// before the first append, mid-file corruption fails the open.
  static Result<JournalWriter> Open(const std::string& path);

  /// Appends one framed record. Buffered: not durable until Sync().
  /// A failed write (real or injected short write) is healed in place: the
  /// file is truncated back to the last fully appended record, so one EIO
  /// never poisons the generation — later appends still recover cleanly.
  /// If even the heal fails the writer closes itself, so appends fail
  /// loudly instead of journaling after unhealed damage.
  Status Append(const json::Value& payload);

  /// Flushes buffered appends and fsyncs the file (the group-commit point).
  Status Sync();

  /// Sync, then close. Further Appends fail. Idempotent.
  Status Close();

  bool open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  /// Records appended through this writer (not counting pre-existing ones).
  size_t records_appended() const { return records_appended_; }
  /// Bytes of valid records in the file (pre-existing content at Open plus
  /// everything appended since) — the store's journal-tail accounting.
  size_t valid_length() const { return valid_length_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  size_t records_appended_ = 0;
  size_t valid_length_ = 0;
  bool dirty_ = false;  // appends since the last Sync
};

}  // namespace store
}  // namespace slicetuner

#endif  // SLICETUNER_STORE_JOURNAL_H_
