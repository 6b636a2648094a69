// The one timing primitive (docs/OBSERVABILITY.md, "Timing"): a ScopedTimer
// reads the clock once at start and once at stop, and hands that one elapsed
// value to every sink it was built with — a registry histogram, a recorder
// event (arg = elapsed ns), a Span stage — and to the caller, so no two
// reports of an interval disagree.
//
// A Span accumulates one operation's named stages (a tuning round's
// estimate/plan/acquire); its summary rides the round's progress frame and
// the job's span tree. One span belongs to the single thread running the
// operation, so it is deliberately not thread-safe.

#ifndef SLICETUNER_OBS_TIMER_H_
#define SLICETUNER_OBS_TIMER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace slicetuner {
namespace obs {

class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)) {}

  /// Adds `ns` to the named stage (a stage entered twice reports the sum).
  void RecordStage(std::string_view stage, uint64_t ns);

  /// {"name":...,"total_ms":X,"stages":{"estimate_ms":...,...}} — stage
  /// keys carry a _ms suffix; stages never recorded are absent. `total_ns`
  /// is the operation's own interval, so it bounds (not equals) the stage
  /// sum: un-attributed time is visible as the gap.
  json::Value ToJson(uint64_t total_ns) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, uint64_t>> stages_;
};

/// Times one interval. Every sink is optional; `stage` must be set when
/// `span` is. The destructor stops a timer that was not stopped explicitly,
/// so early returns still feed every sink.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram = nullptr,
                       std::optional<EventKind> event = std::nullopt,
                       Span* span = nullptr, const char* stage = nullptr)
      : histogram_(histogram),
        event_(event),
        span_(span),
        stage_(stage),
        start_ns_(MonotonicNanos()) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Ends the interval on the first call and feeds each sink once; every
  /// call returns the elapsed nanoseconds of that one interval.
  uint64_t Stop() {
    if (stopped_) return elapsed_ns_;
    stopped_ = true;
    elapsed_ns_ = MonotonicNanos() - start_ns_;
    if (histogram_ != nullptr) histogram_->Record(elapsed_ns_);
    if (event_) {
      Recorder::Global().RecordHere(*event_,
                                    static_cast<int64_t>(elapsed_ns_));
    }
    if (span_ != nullptr) span_->RecordStage(stage_, elapsed_ns_);
    return elapsed_ns_;
  }

 private:
  Histogram* const histogram_;
  const std::optional<EventKind> event_;
  Span* const span_;
  const char* const stage_;
  const uint64_t start_ns_;
  bool stopped_ = false;
  uint64_t elapsed_ns_ = 0;
};

/// Nanoseconds as the milliseconds every JSON sink reports.
inline double NanosToMillis(uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

}  // namespace obs
}  // namespace slicetuner

#endif  // SLICETUNER_OBS_TIMER_H_
