// Snapshot files: the checkpoint half of the durable-state store.
//
// A snapshot is one JSON document, written as format v2: a header line,
// then one framed line per entry, each with its own CRC (the journal's
// codec, store/journal.h):
//
//   snapshot := header LF head-line entry-line*
//   header   := "SLICETUNER-SNAPSHOT" SP "v2" SP records SP payload_bytes
//   records  := decimal count of the lines after the header (1 + entries)
//   payload_bytes := decimal count of the bytes after the header line
//   head-line  := crc8hex SP compact-json LF — the document, with its
//                 "sessions" array (if any) emptied in place
//   entry-line := crc8hex SP compact-json LF — one "sessions" element, in
//                 array order
//
// Framing each session on its own line lets a reader check and parse the
// entries in parallel (DecodeFramedLines) instead of running one serial
// Parse over the whole file; the emptied placeholder keeps the document's
// member order, so a read returns exactly the document written. A reader
// rejects any damage, a line count that differs from `records` or a byte
// count that differs from `payload_bytes`.
//
// v1 files (written before v2) still load:
//
//   snapshot := "SLICETUNER-SNAPSHOT v1" SP crc8hex SP payload_bytes LF
//               payload
//   payload  := the JSON document, pretty-printed, CRC32 over all of it
//
// A major this build does not speak is rejected. Snapshots are always
// written through WriteFileAtomic (tmp + fsync + rename), so a crash at any
// instant leaves either the previous complete snapshot or the new complete
// snapshot — never a torn one. Any header/CRC failure therefore means
// out-of-band corruption, and reads fail rather than guess (docs/STATE.md
// documents the recovery ladder).

#ifndef SLICETUNER_STORE_SNAPSHOT_H_
#define SLICETUNER_STORE_SNAPSHOT_H_

#include <string>

#include "common/json.h"
#include "common/result.h"

namespace slicetuner {
namespace store {

/// The snapshot format major this build writes. It reads this one and v1.
constexpr int kSnapshotVersion = 2;

/// Serializes `doc` with the integrity header. Exposed for tests.
std::string EncodeSnapshot(const json::Value& doc);

/// Atomically replaces `path` with a snapshot of `doc`. When
/// `bytes_written` is non-null it receives the encoded size (header +
/// payload) — the store_snapshot_bytes gauge in src/obs/.
Status WriteSnapshotFile(const std::string& path, const json::Value& doc,
                         size_t* bytes_written = nullptr);

/// Reads and verifies a snapshot. NotFound when the file does not exist;
/// Internal on a bad magic/version/count/CRC (corruption is never silently
/// tolerated — the journal may still allow recovery, see docs/STATE.md).
Result<json::Value> ReadSnapshotFile(const std::string& path);

}  // namespace store
}  // namespace slicetuner

#endif  // SLICETUNER_STORE_SNAPSHOT_H_
