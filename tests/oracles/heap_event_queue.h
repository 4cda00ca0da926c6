// Reference model for the event-queue fuzz (tests/property_test.cc): a
// plain binary heap kept only as a test oracle.  Same contract as
// EventQueue — events fire in (when, scheduling sequence) order,
// ScheduleAt clamps to now, the clock never moves backwards, and a dead
// id cancels nothing — built differently: cancellation is lazy (a dead
// entry is skipped when it reaches the top) and liveness is a std::set,
// with none of EventQueue's slot table, generations or in-place removal.
// Ids double as the sequence: both are issued once per ScheduleAt, in
// order.
#ifndef SQUEEZY_TESTS_ORACLES_HEAP_EVENT_QUEUE_H_
#define SQUEEZY_TESTS_ORACLES_HEAP_EVENT_QUEUE_H_

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace squeezy {

class HeapEventQueue {
 public:
  TimeNs now() const { return now_; }
  size_t pending() const { return live_.size(); }

  EventId ScheduleAt(TimeNs when, std::function<void()> fn) {
    const EventId id = next_id_++;
    heap_.push_back(Entry{std::max(when, now_), id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    live_.insert(id);
    return id;
  }
  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  bool Cancel(EventId id) { return live_.erase(id) > 0; }
  void AdvanceBy(DurationNs d) { now_ += d; }

  void RunUntil(TimeNs deadline) {
    while (PruneTop() && heap_.front().when <= deadline) {
      RunTop();
    }
    now_ = std::max(now_, deadline);
  }
  void RunAll() {
    while (PruneTop()) {
      RunTop();
    }
  }

 private:
  struct Entry {
    TimeNs when;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.id > b.id;
    }
  };

  // Drops cancelled entries off the top; false when drained.
  bool PruneTop() {
    while (!heap_.empty() && live_.count(heap_.front().id) == 0) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return !heap_.empty();
  }
  // Pops the (live) top and runs it; the handler may re-enter the queue.
  void RunTop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    live_.erase(e.id);
    now_ = std::max(now_, e.when);
    e.fn();
  }

  TimeNs now_ = 0;
  EventId next_id_ = 1;
  std::vector<Entry> heap_;  // Min-heap by (when, id).
  std::set<EventId> live_;   // Issued, neither run nor cancelled.
};

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_ORACLES_HEAP_EVENT_QUEUE_H_
