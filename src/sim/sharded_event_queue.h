// Per-host event-queue shards driven in deterministic lockstep epochs.
//
// One wheel (EventQueue) per host plus one cross-shard mailbox queue for
// fleet-level events (trace dispatch, migration completions — everything
// scheduled from a sequential coordinator context).  All queues draw
// their scheduling sequence numbers from ONE shared atomic counter, so
// (when, seq) totally orders events fleet-wide exactly as the single
// global queue would have ordered them.
//
// Epoch algorithm:
//   1. Pick the next barrier B = min(earliest mailbox event, deadline).
//   2. Every shard with work before B runs RunUntil(B - 1) on the thread
//      pool — shard-local events only; hosts cannot touch each other
//      between barriers, so the phases are embarrassingly parallel.
//   3. Sync every queue's clock to B, then run ALL events at exactly B
//      (mailbox + shards) one at a time in (when, seq) merge order — the
//      cross-shard events (route, migrate-off/adopt) all fire here, in
//      the same sequential context and the same order as the single
//      queue.
//   4. Repeat until the deadline.
//
// Why the result is bit-identical to the single queue at any thread
// count: per-shard firing order is (when, seq) by construction; events
// *scheduled* during a parallel phase take racing counter values, but
// (a) they stay inside their shard, (b) every sequentially-assigned seq
// lies outside the phase's counter window [pre, post), so ordering
// against any sequential event is unchanged, and (c) the phase consumes
// exactly as many counter ticks as the single-queue run would, so later
// sequential events get the exact single-queue values.  Two
// phase-scheduled events on different shards can swap seq values between
// runs — but they never interact (different hosts, no shared registry),
// so no observable state depends on that order.
//
// That argument needs hosts that share nothing.  A fleet with a shared
// DepCache or SnapshotStore attached lets host handlers touch cross-host
// state, so the Cluster runs it on the single wheel instead (see
// ClusterConfig::queue_impl); this kernel only ever drives registry-free
// fleets.
#ifndef SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
#define SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace squeezy {

class ShardedEventQueue {
 public:
  // `nr_shards` per-host wheels + one mailbox queue; `threads` is the
  // total parallelism including the coordinator thread (1 = no workers,
  // phases run inline).
  ShardedEventQueue(size_t nr_shards, size_t threads);
  ~ShardedEventQueue();
  ShardedEventQueue(const ShardedEventQueue&) = delete;
  ShardedEventQueue& operator=(const ShardedEventQueue&) = delete;

  // The shard a host's FaasRuntime/Agent schedules on (shard-local
  // RepeatingTimer ticks, grant latencies, keep-alive churn).
  EventQueue& shard(size_t i) { return *shards_[i]; }
  const EventQueue& shard(size_t i) const { return *shards_[i]; }
  // The cross-shard mailbox: dispatch, migration completions, anything
  // posted from the sequential coordinator context.
  EventQueue& global() { return global_; }
  const EventQueue& global() const { return global_; }

  size_t nr_shards() const { return shards_.size(); }
  size_t threads() const { return workers_.size() + 1; }

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

  // Parallel-epoch helpers.  Each phase statically stripes the listed
  // shards over {coordinator, workers}: slice t runs shards t, t+T,
  // t+2T, ...  Static striping (vs a shared work-stealing cursor) means
  // no cross-phase cursor reuse, and the coordinator waits for every
  // worker each phase, so phase state is never re-armed under a
  // straggler.  Shard->slice assignment only affects wall-clock, never
  // results (shards are independent within a phase).
  void ParallelPhase(TimeNs limit);  // Listed shards RunUntil(limit) on the pool.
  void RunPhaseSlice(size_t slice);
  void WorkerLoop(size_t slice);

  // Fleet-wide scheduling sequence; shared by every queue via
  // EventQueue::SetSequenceSource.
  std::atomic<uint64_t> seq_{0};
  std::vector<std::unique_ptr<EventQueue>> shards_;
  EventQueue global_;
  std::vector<Next> next_;  // One per shard + one for the mailbox.

  // Persistent worker pool.  The pool only ever runs shard-local
  // RunUntil phases; all cross-shard work happens on the coordinator
  // thread between phases (pool_mu_ hand-offs give the happens-before
  // edges for the coordinator's reads of shard state).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;  // Coordinator -> workers: new phase.
  std::condition_variable done_cv_;  // Workers -> coordinator: slice done.
  std::vector<size_t> phase_shards_;  // Shard ids of the current phase.
  TimeNs phase_limit_ = 0;            // RunUntil bound for the phase.
  size_t phase_done_ = 0;             // Finished slices (under pool_mu_).
  uint64_t phase_gen_ = 0;            // Bumped per phase (under pool_mu_).
  bool stop_ = false;                 // Pool shutdown (under pool_mu_).
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_SHARDED_EVENT_QUEUE_H_
