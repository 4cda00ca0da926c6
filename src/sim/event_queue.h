// Discrete-event simulation kernel.
//
// A single-threaded event queue with a virtual clock.  Events scheduled
// for the same instant fire in scheduling order (stable), which keeps
// every experiment bit-deterministic for a given seed.
//
// Storage is one 4-ary min-heap ordered by (when, seq) whose entries
// point into a slot table; a slot holds the event's closure, its heap
// position, a generation counter and the lane that scheduled it.  An
// EventId names (slot, generation), so Cancel finds its entry without
// hashing, removes it in O(log n) and destroys the closure at once:
// nothing cancelled lingers.  Firing order is a pure function of
// (timestamp, global scheduling sequence); tests/oracles/heap_event_queue.h
// is the independent reference the oracle fuzz replays against.
//
// Lanes: a queue built as a lane of another shares that queue's heap,
// slots, clock and sequence counter, and keeps only its own counters
// (pending, peak, scheduled, processed) for the events scheduled through
// it.  Run* on any lane runs the whole heap, and an id cancels its event
// through any lane.  The sharded kernel (src/sim/sharded_event_queue.h)
// is a set of lanes of one heap.
//
// A trace is not stored whole: ScheduleEach keeps one live event per
// submitted series (its next call that is due), so the live set stays
// O(hosts + agents) however long the trace is.
#ifndef SQUEEZY_SIM_EVENT_QUEUE_H_
#define SQUEEZY_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/time.h"

namespace squeezy {

// An opaque handle: (slot, generation) of the event it names.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// A handler may freely call ScheduleAt/ScheduleAfter/Cancel back into
// the queue (the simulator does this constantly): its closure is moved
// out of storage before it runs.
class EventQueue {
 public:
  // The fleet kernel a Cluster builds (ClusterConfig::queue_impl); either
  // way the fleet runs on one heap.
  enum class Impl {
    kSingleQueue,  // One queue for the whole fleet (default).
    // One lane per host plus a mailbox lane (sharded_event_queue.h).
    kSharded,
  };

  // A queue with a heap of its own.
  EventQueue() : heap_(std::make_shared<Heap>()) {}
  // A lane of `queue`'s heap.  The lane must outlive the events it
  // schedules.
  explicit EventQueue(EventQueue* queue) : heap_(queue->heap_) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  TimeNs now() const { return heap_->now; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now).
  EventId ScheduleAt(TimeNs when, std::function<void()> fn);

  // Schedules `fn` to run `delay` after the current virtual time.
  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn);

  // Runs `fn(i)` at `whens[i]` for every i: fires exactly as calling
  // ScheduleAt(whens[i], [fn, i] { fn(i); }) for i = 0..n-1 in order
  // would, but stores only the next call that is due.  At submission
  // every time is clamped to now() and the n sequence numbers those
  // calls would draw are reserved, so a tie with any event scheduled
  // later still goes to the series.  Calls fire in stable (when, i)
  // order; each re-arms the next before `fn` runs.  They cannot be
  // cancelled.
  void ScheduleEach(std::vector<TimeNs> whens, std::function<void(size_t)> fn);

  // Cancels a pending event of the heap, whichever lane scheduled it:
  // removes it, debits that lane and destroys the closure before
  // returning.  Returns false if it already ran (or is running), was
  // cancelled, or was never issued; kInvalidEventId is never issued.  A
  // slot is reused only under a new generation, so a stale id never
  // cancels a later event.
  bool Cancel(EventId id);

  // Advances the clock without running events (used by synchronous cost
  // accounting: an operation that "takes" 5 ms simply advances time).
  // Events that become due are NOT run; call Run* to drain them.
  void AdvanceBy(DurationNs d);

  // Runs the heap's events until it is empty or the clock passes
  // `deadline`.  The clock ends at max(deadline, last event time <=
  // deadline).
  void RunUntil(TimeNs deadline);

  // Runs every pending event of the heap (including ones scheduled while
  // draining).  `max_events` guards against runaway self-rescheduling
  // loops: running that many aborts the process, in every build.
  void RunAll(uint64_t max_events = 50'000'000);

  // The time of the heap's earliest pending event; false when drained.
  bool PeekNext(TimeNs* when) const;

  // Live events scheduled through this lane: neither run nor cancelled.
  // A series from ScheduleEach counts as one until its last call runs.
  bool empty() const { return pending_ == 0; }
  size_t pending() const { return pending_; }
  // High-water mark of pending().
  size_t peak_pending() const { return peak_pending_; }
  // Events this lane put into storage so far: one per ScheduleAt, one per
  // call of a ScheduleEach series (each is stored when the previous one
  // runs).
  uint64_t scheduled_events() const { return scheduled_; }
  // Events of this lane executed so far (bench throughput accounting).
  uint64_t processed_events() const { return processed_; }

 private:
  // A heap entry; `slot` indexes Heap::slots.
  struct Node {
    TimeNs when;
    uint64_t seq;
    uint32_t slot;
  };
  // A pending event's closure, lane and heap position (kFree when the
  // slot holds none); `gen` is the generation its current id carries.
  struct Slot {
    std::function<void()> fn;
    EventQueue* lane = nullptr;
    uint32_t pos = kFree;
    uint32_t gen = 1;
  };
  static constexpr uint32_t kFree = UINT32_MAX;
  static constexpr size_t kArity = 4;

  // What the lanes of one heap share.
  struct Heap {
    TimeNs now = 0;
    uint64_t seq = 0;  // The last sequence number drawn.
    // 4-ary min-heap by (when, seq): exactly the pending events.
    std::vector<Node> nodes;
    std::vector<Slot> slots;
    // Slots holding no event, reused last-in first-out.
    std::vector<uint32_t> free;

    // Writes `node` at heap position `pos` and records it in its slot.
    void Place(size_t pos, const Node& node) {
      nodes[pos] = node;
      slots[node.slot].pos = static_cast<uint32_t>(pos);
    }
    // Moves the entry at heap position `pos` up or down to its place.
    void Sift(size_t pos);
    // Removes the entry at heap position `pos`, debits its lane and frees
    // its slot under the next generation; the slot's closure must
    // already be moved out.
    void Remove(size_t pos);
  };

  // A ScheduleEach series: its calls in firing order and the next one.
  struct Series {
    EventQueue* queue = nullptr;
    std::vector<TimeNs> whens;    // Clamped at submission.
    std::vector<uint32_t> order;  // Call indices, stable-sorted by when.
    size_t next = 0;              // Position in `order` of the next call.
    uint64_t first_seq = 0;       // Call i carries first_seq + i.
    std::function<void(size_t)> fn;
  };

  // Stores one event in a free slot and returns its id.
  EventId Schedule(TimeNs when, uint64_t seq, std::function<void()> fn);
  // Stores the series' next call, which re-arms the one after it.
  void ArmNext(std::shared_ptr<Series> series);
  static bool Earlier(const Node& a, const Node& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  // Pops and runs the heap's earliest event; the heap must hold one.
  void RunTop();

  std::shared_ptr<Heap> heap_;
  uint64_t processed_ = 0;
  uint64_t scheduled_ = 0;
  size_t pending_ = 0;
  size_t peak_pending_ = 0;
};

// One persistent closure re-armed in place.  Per-host periodic work
// (pressure ticks, drain ticks) fires thousands of times per run; a
// repeating timer keeps ONE stored callback and schedules only a
// pointer-sized trampoline per period instead of rebuilding the closure
// every time.  The callback returns whether to re-arm for another
// period; Start() during the callback (or any time while disarmed)
// schedules the next firing immediately, exactly like the ad-hoc
// armed-flag pattern it replaces.
class RepeatingTimer {
 public:
  RepeatingTimer(EventQueue* events, DurationNs period, std::function<bool()> fn)
      : events_(events), period_(period), fn_(std::move(fn)) {}
  ~RepeatingTimer() { Stop(); }
  RepeatingTimer(const RepeatingTimer&) = delete;
  RepeatingTimer& operator=(const RepeatingTimer&) = delete;

  // Arms the next firing one period from now; no-op while already armed.
  void Start() {
    if (pending_ == kInvalidEventId) {
      pending_ = events_->ScheduleAfter(period_, [this] { Fire(); });
    }
  }
  // Cancels the pending firing (no-op while disarmed).
  void Stop() {
    if (pending_ != kInvalidEventId) {
      events_->Cancel(pending_);
      pending_ = kInvalidEventId;
    }
  }
  bool armed() const { return pending_ != kInvalidEventId; }

 private:
  void Fire() {
    pending_ = kInvalidEventId;  // The callback may Start() mid-body.
    if (fn_()) {
      Start();
    }
  }

  EventQueue* events_;
  DurationNs period_;
  std::function<bool()> fn_;
  EventId pending_ = kInvalidEventId;
};

}  // namespace squeezy

#endif  // SQUEEZY_SIM_EVENT_QUEUE_H_
