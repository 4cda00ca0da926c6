// Per-host lanes of one event heap.
//
// One EventQueue lane per host plus one mailbox lane for fleet-level
// events (trace dispatch, migration completions — everything scheduled
// from the coordinator context).  Every lane is a lane of one heap
// (EventQueue's lanes): they share its slots, clock and sequence
// counter, so events fire in the single queue's (when, seq) order by
// construction, a handler reads fleet time on any lane, and an id
// cancels its event through any lane.  What the lanes add is the count:
// each keeps the pending, peak, scheduled and processed counters of the
// events scheduled through it, which the bench reports per host.
#ifndef SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
#define SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace squeezy {

class ShardedEventQueue {
 public:
  // `nr_shards` per-host lanes + one mailbox lane.
  explicit ShardedEventQueue(size_t nr_shards);
  ShardedEventQueue(const ShardedEventQueue&) = delete;
  ShardedEventQueue& operator=(const ShardedEventQueue&) = delete;

  // The lane a host's FaasRuntime/Agent schedules on (shard-local
  // RepeatingTimer ticks, grant latencies, keep-alive churn).
  EventQueue& shard(size_t i) { return *lanes_[i]; }
  const EventQueue& shard(size_t i) const { return *lanes_[i]; }
  // The mailbox lane: dispatch, migration completions, anything posted
  // from the coordinator context.
  EventQueue& global() { return *lanes_.back(); }
  const EventQueue& global() const { return *lanes_.back(); }

  size_t nr_shards() const { return lanes_.size() - 1; }

  // The fleet clock every lane reads.
  TimeNs now() const { return global().now(); }

  // The heap's EventQueue::RunUntil / RunAll.
  void RunUntil(TimeNs deadline) { global().RunUntil(deadline); }
  void RunAll(uint64_t max_events = 50'000'000) { global().RunAll(max_events); }

  // Events executed across all lanes (bench throughput accounting).
  uint64_t processed_events() const {
    return Sum([](const EventQueue& q) { return q.processed_events(); });
  }
  // Sums over all lanes of EventQueue::scheduled_events() and of
  // EventQueue::peak_pending() (each lane's own high-water mark, so an
  // upper bound on the fleet's peak live set).
  uint64_t scheduled_events() const {
    return Sum([](const EventQueue& q) { return q.scheduled_events(); });
  }
  size_t peak_pending() const {
    return Sum([](const EventQueue& q) { return q.peak_pending(); });
  }
  // Per-shard executed-event counts (mailbox excluded) — the shard
  // balance the bench reports.
  std::vector<uint64_t> ShardProcessed() const;

 private:
  // Sums `count` over every lane.
  template <typename Count>
  uint64_t Sum(Count count) const {
    uint64_t total = 0;
    for (const auto& q : lanes_) {
      total += count(*q);
    }
    return total;
  }

  // Shards 0..nr_shards()-1, then the mailbox.
  std::vector<std::unique_ptr<EventQueue>> lanes_;
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
