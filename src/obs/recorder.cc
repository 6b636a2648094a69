#include "obs/recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/trace_context.h"
#include "obs/metrics.h"

namespace slicetuner {
namespace obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRequestRecv:
      return "request_recv";
    case EventKind::kRequestDone:
      return "request_done";
    case EventKind::kAdmit:
      return "admit";
    case EventKind::kShed:
      return "shed";
    case EventKind::kDispatch:
      return "dispatch";
    case EventKind::kJobStart:
      return "job_start";
    case EventKind::kJobDone:
      return "job_done";
    case EventKind::kRoundStart:
      return "round_start";
    case EventKind::kEstimate:
      return "estimate";
    case EventKind::kPlan:
      return "plan";
    case EventKind::kAcquire:
      return "acquire";
    case EventKind::kStoreAppend:
      return "store_append";
    case EventKind::kStoreSync:
      return "store_sync";
    case EventKind::kFrameDone:
      return "frame_done";
    case EventKind::kCancel:
      return "cancel";
  }
  return "unknown";
}

Recorder& Recorder::Global() {
  // Leaked, like MetricsRegistry::Global(): rings must stay readable up to
  // the last instant of the process — that is the whole point.
  static Recorder& recorder = *new Recorder();
  return recorder;
}

Recorder::~Recorder() {
  for (std::atomic<Ring*>& ring : rings_) delete ring.load();
}

Recorder::Ring* Recorder::ThisThreadRing() {
  // Cache keyed by recorder identity so test-local Recorder instances get
  // their own rings. Identity is a process-unique id, not the address:
  // a new recorder allocated where a destroyed one lived must not reuse
  // the stale cached ring.
  static std::atomic<uint64_t> next_owner_id{1};
  struct Cache {
    uint64_t owner_id = 0;
    Ring* ring = nullptr;
  };
  thread_local Cache cache;
  if (owner_id_ == 0) {
    uint64_t expected = 0;
    owner_id_.compare_exchange_strong(
        expected, next_owner_id.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  const uint64_t id = owner_id_.load(std::memory_order_relaxed);
  if (cache.owner_id == id) return cache.ring;
  const size_t index = ring_count_.fetch_add(1, std::memory_order_acq_rel);
  if (index >= kMaxRings) {
    // Over the thread budget: this thread silently stops recording.
    ring_count_.store(kMaxRings, std::memory_order_release);
    cache = {id, nullptr};
    return nullptr;
  }
  Ring* ring = new Ring(static_cast<uint32_t>(index));
  rings_[index].store(ring, std::memory_order_release);
  cache = {id, ring};
  return ring;
}

void Recorder::Record(EventKind kind, uint64_t trace_id, const char* session,
                      int64_t arg) {
  if (!Enabled()) return;
  Ring* ring = ThisThreadRing();
  if (ring == nullptr) return;
  const uint64_t n = ring->cursor.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[n % kRingCapacity];
  slot.ts_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.meta.store((static_cast<uint64_t>(kind) << 32) | ring->thread,
                  std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  uint64_t packed[3] = {0, 0, 0};
  if (session != nullptr) {
    size_t len = std::strlen(session);
    if (len > kMaxSessionLen) len = kMaxSessionLen;
    std::memcpy(packed, session, len);
  }
  for (size_t i = 0; i < 3; ++i) {
    slot.sess[i].store(packed[i], std::memory_order_relaxed);
  }
  // seq last, release: a reader that acquires this value sees the fields.
  slot.seq.store(n + 1, std::memory_order_release);
  ring->cursor.store(n + 1, std::memory_order_release);
}

void Recorder::RecordHere(EventKind kind, int64_t arg) {
  const trace::Context& ctx = trace::CurrentContext();
  Record(kind, ctx.trace_id, ctx.session, arg);
}

bool Recorder::ReadSlot(const Ring& ring, const Slot& slot,
                        RecordedEvent* out) {
  const uint64_t seq = slot.seq.load(std::memory_order_acquire);
  if (seq == 0) return false;
  out->ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
  out->trace_id = slot.trace_id.load(std::memory_order_relaxed);
  const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
  out->thread = static_cast<uint32_t>(meta & 0xffffffffu);
  out->kind = static_cast<EventKind>(meta >> 32);
  out->arg = slot.arg.load(std::memory_order_relaxed);
  uint64_t packed[3];
  for (size_t i = 0; i < 3; ++i) {
    packed[i] = slot.sess[i].load(std::memory_order_relaxed);
  }
  // Seqlock re-check: field loads above must not sink past these loads.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != seq) return false;
  // The slot holding record `seq` is rewritten by record `seq + capacity`;
  // if the writer may have started that record, drop this one (at most the
  // ring's oldest record, and only while its thread is actively writing).
  if (ring.cursor.load(std::memory_order_relaxed) + 1 >=
      seq + kRingCapacity) {
    return false;
  }
  char sess[kMaxSessionLen + 1];
  std::memcpy(sess, packed, kMaxSessionLen);
  sess[kMaxSessionLen] = '\0';
  out->session = sess;
  return true;
}

std::vector<RecordedEvent> Recorder::Snapshot(
    const std::string& session_filter, uint64_t trace_filter,
    size_t limit) const {
  std::vector<RecordedEvent> events;
  const size_t rings = RingCount();
  for (size_t r = 0; r < rings; ++r) {
    const Ring* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (size_t i = 0; i < kRingCapacity; ++i) {
      RecordedEvent event;
      if (!ReadSlot(*ring, ring->slots[i], &event)) continue;
      if (!session_filter.empty() && event.session != session_filter) {
        continue;
      }
      if (trace_filter != 0 && event.trace_id != trace_filter) continue;
      events.push_back(std::move(event));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const RecordedEvent& a, const RecordedEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.thread < b.thread;
            });
  if (limit != 0 && events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(limit));
  }
  return events;
}

json::Value Recorder::SnapshotJson(const std::string& session_filter,
                                   uint64_t trace_filter,
                                   size_t limit) const {
  // Over-fetch by one so "exactly limit survived" and "limit truncated the
  // result" are distinguishable.
  const size_t probe = limit == 0 ? 0 : limit + 1;
  std::vector<RecordedEvent> events =
      Snapshot(session_filter, trace_filter, probe);
  bool truncated = false;
  if (limit != 0 && events.size() > limit) {
    truncated = true;
    events.erase(events.begin());
  }
  json::Value list = json::Value::Array();
  for (const RecordedEvent& event : events) {
    json::Value e = json::Value::Object();
    e.Set("ts_ns", static_cast<long long>(event.ts_ns));
    e.Set("thread", static_cast<long long>(event.thread));
    e.Set("kind", std::string(EventKindName(event.kind)));
    e.Set("trace_id", trace::FormatTraceId(event.trace_id));
    e.Set("session", event.session);
    e.Set("arg", static_cast<long long>(event.arg));
    list.Append(std::move(e));
  }
  json::Value out = json::Value::Object();
  out.Set("events", std::move(list));
  out.Set("truncated", truncated);
  return out;
}

namespace {

// Async-signal-safe number rendering into a caller buffer. Returns the
// number of characters appended.
size_t AppendDec(char* buf, uint64_t value) {
  char tmp[24];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

size_t AppendHex16(char* buf, uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = kDigits[(value >> (4 * i)) & 0xf];
  }
  return 16;
}

size_t AppendStr(char* buf, const char* s) {
  size_t n = 0;
  while (s[n] != '\0') {
    buf[n] = s[n];
    ++n;
  }
  return n;
}

bool WriteAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

size_t Recorder::DumpTo(int fd) const {
  size_t written = 0;
  const size_t rings = RingCount();
  for (size_t r = 0; r < rings; ++r) {
    const Ring* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (size_t i = 0; i < kRingCapacity; ++i) {
      const Slot& slot = ring->slots[i];
      const uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 0) continue;
      const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      uint64_t packed[3];
      for (size_t w = 0; w < 3; ++w) {
        packed[w] = slot.sess[w].load(std::memory_order_relaxed);
      }
      char sess[kMaxSessionLen + 1];
      std::memcpy(sess, packed, kMaxSessionLen);
      sess[kMaxSessionLen] = '\0';
      const int64_t arg = slot.arg.load(std::memory_order_relaxed);
      char line[160];
      size_t n = 0;
      n += AppendDec(line + n, slot.ts_ns.load(std::memory_order_relaxed));
      line[n++] = ' ';
      n += AppendDec(line + n, meta & 0xffffffffu);
      line[n++] = ' ';
      n += AppendStr(line + n,
                     EventKindName(static_cast<EventKind>(meta >> 32)));
      line[n++] = ' ';
      n += AppendHex16(line + n,
                       slot.trace_id.load(std::memory_order_relaxed));
      line[n++] = ' ';
      n += AppendStr(line + n, sess[0] != '\0' ? sess : "-");
      line[n++] = ' ';
      if (arg < 0) {
        line[n++] = '-';
        n += AppendDec(line + n, static_cast<uint64_t>(-arg));
      } else {
        n += AppendDec(line + n, static_cast<uint64_t>(arg));
      }
      line[n++] = '\n';
      if (!WriteAll(fd, line, n)) return written;
      ++written;
    }
  }
  return written;
}

void Recorder::Reset() {
  const size_t rings = RingCount();
  for (size_t r = 0; r < rings; ++r) {
    Ring* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (size_t i = 0; i < kRingCapacity; ++i) {
      ring->slots[i].seq.store(0, std::memory_order_relaxed);
    }
    ring->cursor.store(0, std::memory_order_release);
  }
}

}  // namespace obs
}  // namespace slicetuner
