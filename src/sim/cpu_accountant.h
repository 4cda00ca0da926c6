// Per-thread CPU busy-time accounting over fixed windows.
//
// Kernel threads (balloon, virtio-mem worker, Squeezy) and host-side VMM
// threads register busy intervals; the accountant buckets them into
// fixed-size windows so experiments can print utilization timelines
// (paper Fig 7) and compute interference factors (paper Fig 9).
#ifndef SQUEEZY_SIM_CPU_ACCOUNTANT_H_
#define SQUEEZY_SIM_CPU_ACCOUNTANT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace squeezy {

class CpuAccountant {
 public:
  explicit CpuAccountant(DurationNs window = Sec(1));

  // Records that `thread` was busy for [start, start + busy), `count` times
  // over: equal to `count` separate calls, so each window gains `count`
  // times its share of [start, start + busy) — never a single charge of
  // count * busy spilling into later windows.
  void AddBusy(const std::string& thread, TimeNs start, DurationNs busy,
               int64_t count = 1);

  // Utilization (0..100) of `thread` in the window containing `t`.
  double UtilizationAt(const std::string& thread, TimeNs t) const;

  // Full utilization series for `thread`: one value per window, from
  // window 0 to the last window with any activity across all threads.
  std::vector<double> Series(const std::string& thread) const;

  // Total busy time recorded for a thread.
  DurationNs TotalBusy(const std::string& thread) const;

  DurationNs window() const { return window_; }
  std::vector<std::string> threads() const;

 private:
  DurationNs window_;
  int64_t max_window_ = -1;
  std::map<std::string, std::map<int64_t, DurationNs>> busy_;  // thread -> window -> ns.
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_CPU_ACCOUNTANT_H_
