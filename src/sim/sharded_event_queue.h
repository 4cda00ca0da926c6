// Per-host event-queue shards merged in global (when, seq) order.
//
// One EventQueue per host plus one cross-shard mailbox queue for
// fleet-level events (trace dispatch, migration completions — everything
// scheduled from the coordinator context).  All queues share one clock
// and one scheduling sequence counter (EventQueue::Fleet), so (when, seq)
// totally orders events fleet-wide exactly as the single global queue
// would have ordered them.
//
// The merge keeps an indexed binary min-heap of queue ids keyed by each
// queue's head (when, seq); a drained queue is not in it.  RunUntil
// repeatedly runs the head of the top queue (EventQueue::RunOne) until
// the top is past the deadline.  Every schedule, cancel and pop lists
// its queue in the fleet's deduplicated `changed` list; before reading
// the top the merge re-peeks only the listed queues and re-sifts a queue
// only when its head actually moved, so a merged event costs
// O(log queues) per queue it touched, never a walk of all of them.
//
// Why the result is bit-identical to the single queue: every event runs
// in global (when, seq) order, and seq comes from the one shared counter
// in the order the single queue would draw it.  The shared clock is
// therefore monotone, and a mailbox handler that schedules onto a shard
// idle for seconds reads fleet time, exactly as on one queue.
//
// Without NDEBUG every refresh checks the heap top against a linear scan
// of all queues.
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
  // `nr_shards` per-host queues + one mailbox queue.
  explicit ShardedEventQueue(size_t nr_shards);
  ShardedEventQueue(const ShardedEventQueue&) = delete;
  ShardedEventQueue& operator=(const ShardedEventQueue&) = delete;

  // The shard a host's FaasRuntime/Agent schedules on (shard-local
  // RepeatingTimer ticks, grant latencies, keep-alive churn).
  EventQueue& shard(size_t i) { return *queues_[i]; }
  const EventQueue& shard(size_t i) const { return *queues_[i]; }
  // The cross-shard mailbox: dispatch, migration completions, anything
  // posted from the coordinator context.
  EventQueue& global() { return *queues_.back(); }
  const EventQueue& global() const { return *queues_.back(); }

  size_t nr_shards() const { return queues_.size() - 1; }

  // The fleet clock every queue reads.
  TimeNs now() const { return fleet_.clock.now; }

  // Runs every event with when <= deadline across all queues, leaving
  // the clock at max(deadline, last event time).  RunUntil and RunAll
  // abort, in every build, if the top queue holds no event (RunTop).
  void RunUntil(TimeNs deadline);
  // Runs until every queue is drained.  Like EventQueue::RunAll, running
  // `max_events` events aborts the process, in every build.
  void RunAll(uint64_t max_events = 50'000'000);

  // Events executed across all queues (bench throughput accounting).
  uint64_t processed_events() const {
    return Sum([](const EventQueue& q) { return q.processed_events(); });
  }
  // Sums over all queues of EventQueue::scheduled_events() and of
  // EventQueue::peak_pending() (each queue's own high-water mark, so an
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
  // Re-sifts of the heap of queue heads: one per queue whose head moved,
  // appeared or drained between two merged events.
  uint64_t head_updates() const { return head_updates_; }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  // A queue's head as keyed in heap_.
  struct Head {
    TimeNs when = 0;
    uint64_t seq = 0;
  };

  static bool Before(const Head& a, const Head& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  bool Earlier(uint32_t a, uint32_t b) const { return Before(head_[a], head_[b]); }
  // Sums `count` over every queue.
  template <typename Count>
  uint64_t Sum(Count count) const {
    uint64_t total = 0;
    for (const auto& q : queues_) {
      total += count(*q);
    }
    return total;
  }
  // Writes queue `q` at heap position `pos` and records the position.
  void Place(size_t pos, uint32_t q) {
    heap_[pos] = q;
    pos_[q] = static_cast<uint32_t>(pos);
  }
  // Moves the entry at heap position `pos` up or down to its place.
  void Sift(size_t pos);
  // Re-keys every queue listed in fleet_.changed whose head moved, and
  // empties the list.
  void Refresh();
  // Runs the top queue's head event.  A top queue with no event means one
  // of its changes was never listed in fleet_.changed: that aborts the
  // process, in every build, instead of looping forever.
  void RunTop();
  // Whether heap_'s top is the queue a linear scan finds earliest (the
  // debug-build check after every Refresh).
  bool TopIsEarliest() const;

  EventQueue::Fleet fleet_;
  // Shards 0..nr_shards()-1, then the mailbox: the queue ids of fleet_.
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<Head> head_;      // Per queue; meaningful while in heap_.
  std::vector<uint32_t> heap_;  // Queue ids, min-heap by head_.
  std::vector<uint32_t> pos_;   // Per queue: heap_ position, or kAbsent.
  uint64_t head_updates_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
