// Discrete-event simulation kernel.
//
// A single-threaded event queue with a virtual clock.  Events scheduled
// for the same instant fire in scheduling order (stable), which keeps
// every experiment bit-deterministic for a given seed.
//
// Storage is a hierarchical timer wheel:
//   * fine wheel  — ~2.1 ms ticks over the current ~2.1 s region; the
//     hot path (grant latencies, unplug completions, pressure ticks)
//     inserts and pops here in O(log slot) with tiny slots;
//   * coarse wheel — ~2.1 s slots over the next ~36 min; far-future work
//     (keep-alive timers, the next arrival of a sparse trace) lands here
//     O(1) and cascades into the fine wheel one region at a time, lazily,
//     as the clock reaches it;
//   * super wheel — ~36.6 min slots over the next ~26 days; anything
//     scheduled hours ahead lands here O(1) and each slot is dumped into
//     the coarse window when the clock enters its block, so it never
//     piles onto the overflow heap;
//   * overflow heap — anything beyond the super horizon, plus entries
//     scheduled behind an already-advanced region; rare, and always
//     consulted by the peek so order can never be lost.
// Firing order is a pure function of (timestamp, global scheduling
// sequence), so the wheel is bit-identical to the single binary heap it
// replaced; that heap lives on only as the test oracle the wheel fuzz
// replays against (tests/oracles/heap_event_queue.h).
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

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Open-addressed set of live event ids (linear probing, backward-shift
// deletion, power-of-two capacity).  Every event pays one insert, one
// liveness check and one erase here, so this is the queue's shared
// constant factor; a flat uint64 table with one multiply-mix hash beats
// std::unordered_set's node allocations by a wide margin.  EventIds are
// never 0 (kInvalidEventId), so 0 marks an empty slot and no tombstones
// are needed.
class EventIdSet {
 public:
  EventIdSet() : table_(kMinCapacity, 0) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(EventId id) const {
    size_t i = Hash(id) & Mask();
    while (table_[i] != 0) {
      if (table_[i] == id) {
        return true;
      }
      i = (i + 1) & Mask();
    }
    return false;
  }

  void insert(EventId id) {
    if ((size_ + 1) * 2 > table_.size()) {
      Grow();
    }
    size_t i = Hash(id) & Mask();
    while (table_[i] != 0) {
      if (table_[i] == id) {
        return;
      }
      i = (i + 1) & Mask();
    }
    table_[i] = id;
    ++size_;
  }

  bool erase(EventId id) {
    if (id == kInvalidEventId) {
      return false;  // 0 is the empty sentinel, never a stored id.
    }
    size_t i = Hash(id) & Mask();
    while (table_[i] != id) {
      if (table_[i] == 0) {
        return false;
      }
      i = (i + 1) & Mask();
    }
    // Backward-shift deletion: pull displaced probe-chain members back
    // over the hole so lookups never need tombstone markers (this set is
    // erase-heavy — one erase per event ever scheduled).
    size_t hole = i;
    for (size_t j = (i + 1) & Mask(); table_[j] != 0; j = (j + 1) & Mask()) {
      const size_t home = Hash(table_[j]) & Mask();
      if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = 0;
    --size_;
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 64;
  static uint64_t Hash(uint64_t x) {
    // splitmix64 finalizer: sequential ids spread over the whole table.
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }
  size_t Mask() const { return table_.size() - 1; }
  void Grow() {
    std::vector<uint64_t> old = std::move(table_);
    table_.assign(old.size() * 2, 0);
    for (const uint64_t id : old) {
      if (id != 0) {
        size_t i = Hash(id) & Mask();
        while (table_[i] != 0) {
          i = (i + 1) & Mask();
        }
        table_[i] = id;
      }
    }
  }

  std::vector<uint64_t> table_;
  size_t size_ = 0;
};

// A handler may freely call ScheduleAt/ScheduleAfter/Cancel back into
// the queue (the simulator does this constantly): its closure is moved
// out of storage before it runs.
class EventQueue {
 public:
  // The fleet kernel a Cluster builds (ClusterConfig::queue_impl); an
  // EventQueue itself is always the wheel.
  enum class Impl {
    kTimerWheel,  // One wheel for the whole fleet (default).
    // Per-host wheel shards driven in deterministic lockstep epochs
    // (src/sim/sharded_event_queue.h); each shard is one EventQueue.
    kSharded,
  };

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  TimeNs now() const { return now_; }

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

  // Cancels a pending event.  Returns false if it already ran, was
  // cancelled, or was never issued.  Cancelling kInvalidEventId is a
  // no-op.  Cancellation is lazy (the stored entry becomes a tombstone),
  // but storage stays bounded: once live entries fall below half of the
  // stored ones, the tombstones — and the closures they own — are
  // compacted away instead of lingering until naturally popped.
  bool Cancel(EventId id);

  // Advances the clock without running events (used by synchronous cost
  // accounting: an operation that "takes" 5 ms simply advances time).
  // Events that become due are NOT run; call Run* to drain them.
  void AdvanceBy(DurationNs d);

  // Runs events until the queue is empty or the clock passes `deadline`.
  // The clock ends at max(deadline, last event time <= deadline).
  void RunUntil(TimeNs deadline);

  // Runs every pending event (including ones scheduled while draining).
  // `max_events` guards against runaway self-rescheduling loops: running
  // that many aborts the process, in every build.
  void RunAll(uint64_t max_events = 50'000'000);

  // --- Sharded-coordinator primitives (src/sim/sharded_event_queue.h) ------
  // The earliest live event's (when, seq) without running it; false when
  // drained.  Prunes tombstones and positions the scan cursor, so
  // repeated peeks on an unchanged queue are cheap (pair with
  // change_version() to skip re-peeking unchanged shards entirely).
  bool PeekNext(TimeNs* when, uint64_t* seq);
  // Pops and runs the earliest live event; false when drained.  The
  // coordinator's (when, seq) merge primitive.
  bool RunOne();
  // Advances the clock to `t` when behind, without running events — the
  // epoch-barrier clock sync.  Unlike AdvanceBy it is idempotent and
  // never moves the clock backwards.  Contract: the caller has already
  // drained every event earlier than `t` (the coordinator's RunUntil(t-1)
  // phase); events pending at exactly `t` still fire normally.
  void SyncNow(TimeNs t);
  // Draws scheduling sequence numbers from `source` instead of the
  // internal counter.  Every shard of a ShardedEventQueue shares one
  // source, so (when, seq) totally orders events fleet-wide and the
  // barrier merge is deterministic.  Set before any event is scheduled.
  void SetSequenceSource(uint64_t* source);
  // Monotone counter bumped by every mutation that can change the
  // earliest pending event (schedule, cancel, pop).  The coordinator
  // caches PeekNext() per shard and re-peeks only on a version change.
  uint64_t change_version() const { return change_version_; }

  // Live events: scheduled and neither run nor cancelled.  A series from
  // ScheduleEach counts as one until its last call runs.
  bool empty() const { return live_.empty(); }
  size_t pending() const { return live_.size(); }
  // High-water mark of pending().
  size_t peak_pending() const { return peak_pending_; }
  // Events put into storage so far: one per ScheduleAt, one per call of
  // a ScheduleEach series (each is stored when the previous one runs).
  uint64_t scheduled_events() const { return scheduled_; }
  // Entries physically stored (live + not-yet-compacted tombstones);
  // the cancel-heavy-workload bound locked by tests/sim_test.cc.
  size_t stored_entries() const {
    return fine_count_ + coarse_count_ + super_count_ + overflow_.size();
  }
  // Events actually executed so far (bench throughput accounting).
  uint64_t processed_events() const { return processed_; }

 private:
  struct Entry {
    TimeNs when;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Wheel geometry.  Fine: 2^21 ns (~2.1 ms) ticks, 1024 slots — one
  // region spans 2^31 ns (~2.15 s).  Coarse: one slot per region, 1024
  // slots (~36.6 min horizon).  Super: one slot per 1024-region block
  // (2^41 ns ≈ 36.6 min each), 1024 slots — ~26 day horizon.  The fine
  // region always covers exactly the coarse tick `region_`, and the
  // coarse window always starts inside the super block `super_pos_`.
  static constexpr int kFineShift = 21;
  static constexpr int kCoarseShift = 31;
  static constexpr int kSuperShift = 41;
  static constexpr uint64_t kFineSlots = 1024;
  static constexpr uint64_t kFineMask = kFineSlots - 1;
  static constexpr uint64_t kCoarseSlots = 1024;
  static constexpr uint64_t kCoarseMask = kCoarseSlots - 1;
  static constexpr uint64_t kSuperSlots = 1024;
  static constexpr uint64_t kSuperMask = kSuperSlots - 1;
  // Regions per super block: super index = region >> kSuperRegionShift.
  static constexpr int kSuperRegionShift = kSuperShift - kCoarseShift;
  static uint64_t FineTickOf(TimeNs when) {
    return static_cast<uint64_t>(when) >> kFineShift;
  }
  static uint64_t RegionOf(TimeNs when) {
    return static_cast<uint64_t>(when) >> kCoarseShift;
  }

  // A ScheduleEach series: its calls in firing order and the next one.
  struct Series {
    EventQueue* queue = nullptr;
    std::vector<TimeNs> whens;    // Clamped at submission.
    std::vector<uint32_t> order;  // Call indices, stable-sorted by when.
    size_t next = 0;              // Position in `order` of the next call.
    uint64_t first_seq = 0;       // Call i carries first_seq + i.
    std::function<void(size_t)> fn;
  };

  // Stores one event under a fresh id and returns the id.
  EventId Schedule(TimeNs when, uint64_t seq, std::function<void()> fn);
  // Stores the series' next call, which re-arms the one after it.
  void ArmNext(std::shared_ptr<Series> series);
  void Insert(Entry e);
  // Slot-heap push into the fine wheel (rewinds the scan cursor).
  void PushFine(Entry e);
  // Moves overflow entries that entered the coarse window into their
  // slots (current-region entries go straight to the fine wheel).
  // Entries *before* the window stay put — the peek comparison finds
  // them there.
  void CascadeOverflow();
  // Refills the empty fine wheel: cascades overflow, then advances (or
  // jumps) the region to the next non-empty coarse slot and dumps it;
  // when the coarse window drains too, jumps to the next non-empty super
  // slot and dumps that block into the coarse window first.  Returns
  // whether the fine wheel is non-empty afterwards; false means the only
  // remaining entries (if any) sit in the overflow heap.
  bool RefillFine();
  // Dumps super slot `super_pos_` into the fine/coarse window.  Caller
  // has just positioned region_ at the block's first region, so every
  // entry in the slot fits the coarse window (or the fine region).
  void DumpSuperSlot();
  // After region_ advanced: if it crossed into a new super block, move
  // super_pos_ with it and dump the block's slot into the window.
  void MaybeEnterSuperBlock();
  // Prunes cancelled tombstones, positions the fine cursor at the
  // wheel's earliest entry, and returns the earliest live entry (wheel
  // vs overflow decided by (when, seq)) — or nullptr when drained.
  // Sets peek_overflow_ for PopPeeked.
  const Entry* PeekEarliestLive();
  Entry PopPeeked();
  // Pops the entry PeekEarliestLive just positioned, retires its id,
  // advances the clock and returns its closure for the caller to run
  // (handlers re-enter the queue, so the closure must leave its storage).
  std::function<void()> TakePeeked();
  // Drops every tombstone from the wheels and overflow (storage bound).
  void Compact();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  // Shared fleet-wide sequence source (sharded mode); null = next_seq_.
  uint64_t* seq_source_ = nullptr;
  EventId next_id_ = 1;
  uint64_t processed_ = 0;
  uint64_t scheduled_ = 0;
  size_t peak_pending_ = 0;
  // Bumped on schedule/cancel/pop.
  uint64_t change_version_ = 0;
  bool peek_overflow_ = false;
  // Coarse tick covered by the fine wheel.
  uint64_t region_ = 0;
  // Super block containing region_ (invariant: region_ >> kSuperRegionShift).
  uint64_t super_pos_ = 0;
  // Fine-tick scan position within region_.
  uint64_t fine_cursor_ = 0;
  size_t fine_count_ = 0;    // Entries across fine slots.
  size_t coarse_count_ = 0;  // Entries across coarse slots.
  size_t super_count_ = 0;   // Entries across super slots.
  // Min-heaps by (when, seq).
  std::vector<std::vector<Entry>> fine_slots_;
  // Unsorted buckets.
  std::vector<std::vector<Entry>> coarse_slots_;
  // Unsorted buckets, one per 1024-region block.
  std::vector<std::vector<Entry>> super_slots_;
  // Min-heap by (when, seq).
  std::vector<Entry> overflow_;
  // Ids issued and neither run nor cancelled yet.  Ids are unique and
  // never reused, so a stored entry whose id is absent here is a
  // cancellation tombstone — no separate cancelled set that could leak
  // entries for already-run or never-issued ids.
  EventIdSet live_;
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
