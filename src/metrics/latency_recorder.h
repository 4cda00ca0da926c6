// Latency sample collection with percentile queries.
#ifndef SQUEEZY_METRICS_LATENCY_RECORDER_H_
#define SQUEEZY_METRICS_LATENCY_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace squeezy {

// Collects duration samples; percentiles use nearest-rank, selected
// (std::nth_element, O(n)) from a lazily made copy so recording stays O(1).
// samples() stays in record order whatever is queried: an agent's
// RequestLog keeps its latency column here and reads entry i as
// samples()[i], so no query may reorder samples_ in place.
class LatencyRecorder {
 public:
  void Record(DurationNs sample);
  // Pre-sizes the sample store (fleet merges know the total up front).
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  DurationNs Min() const;
  DurationNs Max() const;
  DurationNs Mean() const;
  // p in (0, 100]; nearest-rank percentile.  P(50), P(99), ...
  DurationNs Percentile(double p) const;
  DurationNs Sum() const { return sum_; }

  // Every sample, in the order recorded.
  const std::vector<DurationNs>& samples() const { return samples_; }
  void Clear();

 private:
  std::vector<DurationNs> samples_;
  mutable std::vector<DurationNs> selection_;  // samples_, reordered by selection.
  mutable bool selection_valid_ = false;
  DurationNs sum_ = 0;
};

// Geometric mean of a set of ratios/values (> 0).
double Geomean(const std::vector<double>& values);

}  // namespace squeezy

#endif  // SQUEEZY_METRICS_LATENCY_RECORDER_H_
