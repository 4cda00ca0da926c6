// Reference picks for the idle-order fuzz (tests/property_test.cc): the
// scans over every instance an agent ever created that Agent's ordered
// idle set replaced, kept only as a test oracle.  Each returns the
// instance (or VM) the scan would have picked, with the scan's
// tie-breaks: a strict comparison while walking ids upwards, so among
// equal idle_since values the lowest id wins, and among equal VMs the
// lowest VM index.
#ifndef SQUEEZY_TESTS_ORACLES_IDLE_SCAN_H_
#define SQUEEZY_TESTS_ORACLES_IDLE_SCAN_H_

#include <cstddef>
#include <cstdint>

#include "src/faas/agent.h"
#include "src/faas/runtime.h"
#include "src/sim/time.h"

namespace squeezy {

// Agent::EvictOldestIdle's victim: the longest-idle instance, -1 if none.
inline int32_t ScanOldestIdle(const Agent& agent) {
  int32_t best = -1;
  for (size_t i = 0; i < agent.instances_created(); ++i) {
    const auto id = static_cast<int32_t>(i);
    if (agent.instance_state(id) == InstanceState::kIdle &&
        (best < 0 || agent.instance_idle_since(id) < agent.instance_idle_since(best))) {
      best = id;
    }
  }
  return best;
}

// Agent::DispatchQueue's pick: the most recently idled instance, -1 if
// none.
inline int32_t ScanNewestIdle(const Agent& agent) {
  int32_t best = -1;
  for (size_t i = 0; i < agent.instances_created(); ++i) {
    const auto id = static_cast<int32_t>(i);
    if (agent.instance_state(id) == InstanceState::kIdle &&
        (best < 0 || agent.instance_idle_since(id) > agent.instance_idle_since(best))) {
      best = id;
    }
  }
  return best;
}

// FaasRuntime::MakeRoom's victim VM: the one whose oldest idle instance
// idled earliest, counting only instances idle for at least `min_age`
// by `now`; -1 if none qualifies.
inline int ScanMakeRoomVm(const FaasRuntime& rt, TimeNs now, DurationNs min_age) {
  int best = -1;
  TimeNs best_since = 0;
  for (size_t fn = 0; fn < rt.function_count(); ++fn) {
    const Agent& agent = rt.agent(static_cast<int>(fn));
    const int32_t oldest = ScanOldestIdle(agent);
    if (oldest < 0) {
      continue;
    }
    const TimeNs since = agent.instance_idle_since(oldest);
    if (since + min_age <= now && (best < 0 || since < best_since)) {
      best = static_cast<int>(fn);
      best_since = since;
    }
  }
  return best;
}

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_ORACLES_IDLE_SCAN_H_
