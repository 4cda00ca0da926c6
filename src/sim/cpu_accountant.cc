#include "src/sim/cpu_accountant.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

CpuAccountant::CpuAccountant(DurationNs window) : window_(window) { assert(window > 0); }

void CpuAccountant::AddBusy(const std::string& thread, TimeNs start, DurationNs busy,
                            int64_t count) {
  assert(busy >= 0 && start >= 0 && count >= 1);
  auto& windows = busy_[thread];
  TimeNs cursor = start;
  DurationNs remaining = busy;
  while (remaining > 0) {
    const int64_t w = cursor / window_;
    const TimeNs window_end = (w + 1) * window_;
    const DurationNs chunk = std::min<DurationNs>(remaining, window_end - cursor);
    windows[w] += chunk * count;
    max_window_ = std::max(max_window_, w);
    cursor += chunk;
    remaining -= chunk;
  }
  // Zero-length markers still extend the timeline.
  if (busy == 0) {
    max_window_ = std::max(max_window_, start / window_);
  }
}

double CpuAccountant::UtilizationAt(const std::string& thread, TimeNs t) const {
  const auto it = busy_.find(thread);
  if (it == busy_.end()) {
    return 0.0;
  }
  const auto wit = it->second.find(t / window_);
  if (wit == it->second.end()) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(wit->second) / static_cast<double>(window_);
}

std::vector<double> CpuAccountant::Series(const std::string& thread) const {
  std::vector<double> out(static_cast<size_t>(max_window_ + 1), 0.0);
  const auto it = busy_.find(thread);
  if (it != busy_.end()) {
    for (const auto& [w, ns] : it->second) {
      out[static_cast<size_t>(w)] = 100.0 * static_cast<double>(ns) / static_cast<double>(window_);
    }
  }
  return out;
}

DurationNs CpuAccountant::TotalBusy(const std::string& thread) const {
  const auto it = busy_.find(thread);
  if (it == busy_.end()) {
    return 0;
  }
  DurationNs total = 0;
  for (const auto& [w, ns] : it->second) {
    (void)w;
    total += ns;
  }
  return total;
}

std::vector<std::string> CpuAccountant::threads() const {
  std::vector<std::string> names;
  names.reserve(busy_.size());
  for (const auto& [name, windows] : busy_) {
    (void)windows;
    names.push_back(name);
  }
  return names;
}

}  // namespace squeezy
