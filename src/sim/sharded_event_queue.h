// Per-host event-queue shards driven in deterministic lockstep epochs.
//
// One EventQueue per host plus one cross-shard mailbox queue for
// fleet-level events (trace dispatch, migration completions — everything
// scheduled from the coordinator context).  All queues draw their
// scheduling sequence numbers from ONE shared counter, so (when, seq)
// totally orders events fleet-wide exactly as the single global queue
// would have ordered them.
//
// Epoch algorithm (every phase runs on the calling thread):
//   1. Pick the next barrier B = min(earliest mailbox event, deadline).
//   2. Every shard with work before B runs RunUntil(B - 1), one shard
//      after another — shard-local events only; hosts cannot touch each
//      other between barriers.
//   3. Sync every queue's clock to B, then run ALL events at exactly B
//      (mailbox + shards) one at a time in (when, seq) merge order — the
//      cross-shard events (route, migrate-off/adopt) all fire here, in
//      the same order as the single queue.
//   4. Repeat until the deadline.
//
// Why the result is bit-identical to the single queue: per-shard firing
// order is (when, seq) by construction, and an event scheduled during a
// shard phase stays inside its shard.  Two phase-scheduled events on
// different shards may take their seq values in a different order than
// the single queue would give them, but they never interact (different
// hosts, no shared registry), and the phase consumes exactly as many
// counter ticks as the single-queue run would, so every barrier event
// gets the exact single-queue value.
//
// That argument needs hosts that share nothing.  A fleet with a shared
// DepCache or SnapshotStore attached lets host handlers touch cross-host
// state, so the Cluster runs it on the single queue instead (see
// ClusterConfig::queue_impl); this kernel only ever drives registry-free
// fleets.
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
  EventQueue& shard(size_t i) { return *shards_[i]; }
  const EventQueue& shard(size_t i) const { return *shards_[i]; }
  // The cross-shard mailbox: dispatch, migration completions, anything
  // posted from the coordinator context.
  EventQueue& global() { return global_; }
  const EventQueue& global() const { return global_; }

  size_t nr_shards() const { return shards_.size(); }

  // The fleet clock (the mailbox queue's clock; all queues agree at
  // every quiescent point).
  TimeNs now() const { return global_.now(); }

  // Runs every event with when <= deadline across all queues, leaving
  // every clock at max(deadline, last event time).
  void RunUntil(TimeNs deadline);
  // Runs until every queue is drained.  Like EventQueue::RunAll, running
  // `max_events` events aborts the process, in every build.
  void RunAll(uint64_t max_events = 50'000'000);

  // Events executed across all queues (bench throughput accounting).
  uint64_t processed_events() const;
  // Sums over all queues of EventQueue::scheduled_events() and of
  // EventQueue::peak_pending() (each queue's own high-water mark, so an
  // upper bound on the fleet's peak live set).
  uint64_t scheduled_events() const;
  size_t peak_pending() const;
  // Per-shard executed-event counts (mailbox excluded) — the shard
  // balance the bench reports.
  std::vector<uint64_t> ShardProcessed() const;

 private:
  // Cached earliest-pending view of one queue, invalidated by the
  // queue's change_version.
  struct Next {
    bool known = false;   // Cache entry populated at least once.
    bool valid = false;   // Queue had a pending event at last peek.
    TimeNs when = 0;
    uint64_t seq = 0;
    uint64_t version = 0;
  };

  // Queue q: shards for q < nr_shards(), the mailbox at nr_shards().
  EventQueue& queue(size_t q) {
    return q < shards_.size() ? *shards_[q] : global_;
  }
  // Re-peeks every queue whose version moved since the cache was taken.
  void RefreshChanged();
  // Index of the queue holding the fleet-earliest (when, seq) live
  // event per the cache, or -1 when everything is drained.  Call
  // RefreshChanged() first.
  int EarliestQueue() const;

  // Fleet-wide scheduling sequence; shared by every queue via
  // EventQueue::SetSequenceSource.
  uint64_t seq_ = 0;
  std::vector<std::unique_ptr<EventQueue>> shards_;
  EventQueue global_;
  std::vector<Next> next_;  // One per shard + one for the mailbox.
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
