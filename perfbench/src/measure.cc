#include "measure.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t index = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size())
      continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<size_t>(span.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const int64_t duration = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    self[i] = std::max<int64_t>(0, duration - covered);
  }
  return self;
}

void LayerTotals::Add(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      root_ns += spans[i].end_ns - spans[i].start_ns;
      self_ns["unattributed"] += self[i];
    } else {
      self_ns[spans[i].layer] += self[i];
    }
  }
}

double LayerTotals::Share(const std::string& layer) const {
  const auto it = self_ns.find(layer);
  return it == self_ns.end()
             ? 0.0
             : Ratio(static_cast<double>(it->second),
                     static_cast<double>(root_ns));
}

}  // namespace perfbench
