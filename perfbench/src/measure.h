// Measurement primitives of the perfbench client: exact order statistics,
// guarded ratios, and the span tree the traced run writes out.
//
// Everything here is pure arithmetic on samples the client already holds,
// so perfbench_test can pin it on fixed inputs.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the sample at rank ceil(p * n) of the sorted
/// values, so it is always one of the measured values, never an
/// interpolation or a histogram bucket bound. `p` in (0, 1]. NaN when
/// `samples` is empty.
double Percentile(std::vector<double> samples, double p);

/// Arithmetic mean; NaN when empty.
double Mean(const std::vector<double>& samples);

/// num / den, or 0 when den is 0 (a counter that did not move).
double Ratio(double num, double den);

/// One timed interval of a request, on the client's steady clock. Spans
/// of one job share `trace_id`; `parent` indexes the job's span vector
/// (-1 for the root).
struct Span {
  std::string name;
  /// Module the span's self time is charged to: serve, engine, opt, sim;
  /// the root's self time is the unattributed remainder.
  std::string layer;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to it. Never negative and never more
/// than the span's own duration.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer over many span trees; the roots' self time
/// lands in "unattributed".
struct LayerTotals {
  std::map<std::string, int64_t> self_ns;
  /// Sum of root durations: the denominator of every share.
  int64_t root_ns = 0;

  void Add(const std::vector<Span>& spans);
  double Share(const std::string& layer) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
