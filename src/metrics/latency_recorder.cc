#include "src/metrics/latency_recorder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace squeezy {

void LatencyRecorder::Record(DurationNs sample) {
  samples_.push_back(sample);
  sum_ += sample;
  selection_valid_ = false;
}

DurationNs LatencyRecorder::Min() const {
  assert(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

DurationNs LatencyRecorder::Max() const {
  assert(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

DurationNs LatencyRecorder::Mean() const {
  assert(!samples_.empty());
  return sum_ / static_cast<DurationNs>(samples_.size());
}

DurationNs LatencyRecorder::Percentile(double p) const {
  assert(!samples_.empty());
  assert(p > 0.0 && p <= 100.0);
  if (!selection_valid_) {
    selection_ = samples_;
    selection_valid_ = true;
  }
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(selection_.size())));
  const size_t index = std::min(selection_.size() - 1, rank == 0 ? 0 : rank - 1);
  const auto nth = selection_.begin() + static_cast<std::ptrdiff_t>(index);
  // Earlier selections leave the copy partly ordered; the selected value
  // does not depend on the order.
  std::nth_element(selection_.begin(), nth, selection_.end());
  return *nth;
}

void LatencyRecorder::Clear() {
  samples_.clear();
  selection_.clear();
  selection_valid_ = false;
  sum_ = 0;
}

double Geomean(const std::vector<double>& values) {
  assert(!values.empty());
  double log_sum = 0.0;
  for (const double v : values) {
    assert(v > 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace squeezy
