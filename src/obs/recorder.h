// Flight recorder: always-on, bounded-memory ring of recent events
// (docs/OBSERVABILITY.md, "Flight recorder"). Every interesting hop in a
// request's life — request received, admission verdict, dispatch, job and
// round boundaries, engine estimate, store append/fsync, done frame —
// drops one fixed-size binary record into a per-thread ring buffer. The
// rings are never flushed and never block: old records are overwritten in
// place, so at any instant the recorder holds the last ~kRingCapacity
// events each active thread produced, and a post-mortem (crash dump or the
// `trace` protocol verb) can reconstruct what the process was doing in the
// moments before "now".
//
// Design constraints, in the same order as metrics.h:
//   1. The write path is lock-free and allocation-free: a thread-local
//      ring pointer, one monotonic cursor bump, and a handful of relaxed
//      atomic stores into the claimed slot. bench/micro_obs.cc gates the
//      per-record cost and the end-to-end serve overhead (<3%) with the
//      recorder enabled.
//   2. Snapshots may be slow. Every slot field is an atomic, and a
//      slot-local sequence word written last (release) and re-checked
//      after the field reads (acquire) detects records that were being
//      overwritten mid-read; such torn slots are skipped, never emitted.
//      The result is merged across rings and sorted by timestamp.
//   3. Ring registration is rare and lock-free (a fixed array of atomic
//      pointers), so DumpTo(fd) — the crash-handler path — can walk every
//      ring using only async-signal-safe operations: no locks, no
//      allocation, no stdio.
//
// Each thread that records gets its own ring (single writer; readers are
// wait-free observers). Rings live until process exit even if their thread
// exits first — a flight recorder wants exactly that: the last events of a
// dead thread are evidence, not garbage.

#ifndef SLICETUNER_OBS_RECORDER_H_
#define SLICETUNER_OBS_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace slicetuner {
namespace obs {

/// What happened. Names (EventKindName) are the stable external contract:
/// they appear in `trace` verb payloads and crash dumps.
enum class EventKind : uint32_t {
  kRequestRecv = 1,   // request line parsed; arg = request type
  kRequestDone = 2,   // response written; arg = 1 ok / 0 error
  kAdmit = 3,         // admission accepted; arg = queue depth after
  kShed = 4,          // admission shed; arg = retry_after_ms
  kDispatch = 5,      // dispatcher drained the job to a runner; arg = shard
  kJobStart = 6,      // RunJob entered; arg = queue wait ns
  kJobDone = 7,       // job reached a terminal phase; arg = run ns
  kRoundStart = 8,    // tuning round opened; arg = round index
  kEstimate = 9,      // engine estimate stage done; arg = ns
  kPlan = 10,         // budget plan stage done; arg = ns
  kAcquire = 11,      // slice acquire stage done; arg = ns
  kStoreAppend = 12,  // journal record appended; arg = records unsynced
  kStoreSync = 13,    // group-commit fsync done; arg = records synced
  kFrameDone = 14,    // done frame emitted to a stream; arg = 0
  kCancel = 15,       // cancel resolved against the session; arg = 0
};

const char* EventKindName(EventKind kind);

/// One merged, validated record (Recorder::Snapshot output).
struct RecordedEvent {
  uint64_t ts_ns = 0;
  uint64_t trace_id = 0;
  uint32_t thread = 0;
  EventKind kind = EventKind::kRequestRecv;
  int64_t arg = 0;
  std::string session;
};

class Recorder {
 public:
  /// Records kept per thread ring. Rings overwrite in place past this.
  static constexpr size_t kRingCapacity = 1024;
  /// Threads beyond this stop recording (never block, never corrupt).
  static constexpr size_t kMaxRings = 64;
  static constexpr size_t kMaxSessionLen = 23;

  Recorder() = default;
  /// Frees every ring. No thread may record into the recorder any more.
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Process-wide instance every instrumented path records into. Leaked,
  /// like MetricsRegistry::Global().
  static Recorder& Global();

  /// Record-path switch, independent of MetricsRegistry::SetEnabled: the
  /// recorder is meant to stay on even when metrics are off ("always-on"),
  /// so benches can measure each subsystem's cost separately.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one event to the calling thread's ring. `session` may be
  /// nullptr (recorded as ""); longer than kMaxSessionLen truncates.
  void Record(EventKind kind, uint64_t trace_id, const char* session,
              int64_t arg = 0);

  /// Same, taking trace id and session from the calling thread's
  /// trace::CurrentContext() — the common form inside a request scope.
  void RecordHere(EventKind kind, int64_t arg = 0);

  /// Merged view: every valid record across all rings, sorted by ts_ns
  /// (ties broken by thread). Filters: empty session / zero trace pass
  /// everything; `limit` keeps the most recent records (0 = no limit).
  std::vector<RecordedEvent> Snapshot(const std::string& session_filter = "",
                                      uint64_t trace_filter = 0,
                                      size_t limit = 0) const;

  /// {"events":[{"ts_ns":N,"thread":T,"kind":"job_start","trace_id":"hex",
  ///  "session":"s1","arg":N},...],"truncated":bool} — the `trace` verb
  /// payload (docs/PROTOCOL.md).
  json::Value SnapshotJson(const std::string& session_filter = "",
                           uint64_t trace_filter = 0,
                           size_t limit = 0) const;

  /// Async-signal-safe raw dump: writes one text line per record straight
  /// to `fd` using only write(2) and stack buffers — no locks, no
  /// allocation, no stdio, no sorting (rings are dumped in registration
  /// order; consumers sort on ts_ns). Line format:
  ///   ts_ns thread kind_name trace_id_hex session arg
  /// Returns the number of records written.
  size_t DumpTo(int fd) const;

  /// Zeroes every ring (registrations survive). Tests and benches only.
  void Reset();

  /// Rings registered so far (threads that have recorded at least once).
  size_t RingCount() const {
    const size_t n = ring_count_.load(std::memory_order_acquire);
    return n < kMaxRings ? n : kMaxRings;
  }

 private:
  // One slot = one event, every field individually atomic so snapshots
  // taken mid-write are data-race-free (TSan-clean). `seq` is the 1-based
  // per-ring record number, stored last with release order; a reader that
  // sees the same seq before and after reading the payload fields saw a
  // complete record. 8 x 8 bytes = one cache line.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> meta{0};  // kind << 32 | thread index
    std::atomic<int64_t> arg{0};
    std::atomic<uint64_t> sess[3];  // session chars, NUL-padded, packed LE
  };

  struct Ring {
    explicit Ring(uint32_t thread_index) : thread(thread_index) {}
    const uint32_t thread;
    std::atomic<uint64_t> cursor{0};  // records ever written
    Slot slots[kRingCapacity];
  };

  Ring* ThisThreadRing();
  static bool ReadSlot(const Ring& ring, const Slot& slot,
                       RecordedEvent* out);

  std::atomic<bool> enabled_{true};
  std::atomic<size_t> ring_count_{0};
  // Process-unique identity for the thread-local ring cache (assigned on
  // first use): a recorder constructed where a destroyed one lived must
  // not inherit its cached rings.
  std::atomic<uint64_t> owner_id_{0};
  std::atomic<Ring*> rings_[kMaxRings] = {};
};

}  // namespace obs
}  // namespace slicetuner

#endif  // SLICETUNER_OBS_RECORDER_H_
