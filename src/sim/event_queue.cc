#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace squeezy {

EventId EventQueue::ScheduleAt(TimeNs when, std::function<void()> fn) {
  return Schedule(std::max(when, clock_->now), ++clock_->seq, std::move(fn));
}

EventId EventQueue::Schedule(TimeNs when, uint64_t seq, std::function<void()> fn) {
  if (free_.empty()) {
    assert(slots_.size() < kFree);
    free_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_.back();
  free_.pop_back();
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Node{when, seq, slot});
  Sift(heap_.size() - 1);
  peak_pending_ = std::max(peak_pending_, heap_.size());
  ++scheduled_;
  NoteChange();
  return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
}

void EventQueue::ScheduleEach(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
  if (whens.empty()) {
    return;
  }
  assert(whens.size() <= UINT32_MAX);
  auto series = std::make_shared<Series>();
  series->queue = this;
  for (TimeNs& when : whens) {
    when = std::max(when, clock_->now);
  }
  series->order.resize(whens.size());
  std::iota(series->order.begin(), series->order.end(), 0u);
  std::stable_sort(series->order.begin(), series->order.end(),
                   [&whens](uint32_t a, uint32_t b) { return whens[a] < whens[b]; });
  // Reserve the n sequence numbers n ScheduleAt calls would draw now.
  series->first_seq = clock_->seq + 1;
  clock_->seq += whens.size();
  series->whens = std::move(whens);
  series->fn = std::move(fn);
  ArmNext(std::move(series));
}

void EventQueue::ArmNext(std::shared_ptr<Series> series) {
  const uint32_t i = series->order[series->next++];
  const TimeNs when = series->whens[i];
  const uint64_t seq = series->first_seq + i;
  // Capturing only the shared_ptr keeps the closure in std::function's
  // inline buffer: no allocation per call.
  Schedule(when, seq, [series = std::move(series)] {
    const uint32_t call = series->order[series->next - 1];
    // Re-arm first: the next call is pending while this one's handler
    // runs, as it would be had every call been scheduled up front.
    if (series->next < series->order.size()) {
      series->queue->ArmNext(series);
    }
    series->fn(call);
  });
}

EventId EventQueue::ScheduleAfter(DurationNs delay, std::function<void()> fn) {
  assert(delay >= 0);
  return ScheduleAt(clock_->now + delay, std::move(fn));
}

void EventQueue::JoinFleet(Fleet* fleet, uint32_t id) {
  assert(own_clock_.seq == 0 && "a queue joins its fleet before any scheduling");
  assert(id < fleet->listed.size());
  clock_ = &fleet->clock;
  fleet_ = fleet;
  fleet_id_ = id;
}

void EventQueue::Sift(size_t pos) {
  const Node node = heap_[pos];
  while (pos > 0 && Earlier(node, heap_[(pos - 1) / kArity])) {
    Place(pos, heap_[(pos - 1) / kArity]);
    pos = (pos - 1) / kArity;
  }
  for (size_t first = pos * kArity + 1; first < heap_.size(); first = pos * kArity + 1) {
    const size_t end = std::min(first + kArity, heap_.size());
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], node)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, node);
}

void EventQueue::Remove(size_t pos) {
  Slot& slot = slots_[heap_[pos].slot];
  slot.pos = kFree;
  // A generation that wraps to 0 would reissue an old id: retire the slot.
  if (++slot.gen != 0) {
    free_.push_back(heap_[pos].slot);
  }
  heap_[pos] = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Sift(pos);
  }
}

bool EventQueue::Cancel(EventId id) {
  const uint64_t index = id & UINT32_MAX;
  if (index >= slots_.size() || slots_[index].pos == kFree ||
      slots_[index].gen != id >> 32) {
    return false;  // Already ran, cancelled, never issued, or kInvalidEventId.
  }
  // Destroyed on return, once the books are consistent: a closure's
  // destructor may re-enter the queue.
  const std::function<void()> dead = std::move(slots_[index].fn);
  Remove(slots_[index].pos);
  NoteChange();
  return true;
}

void EventQueue::AdvanceBy(DurationNs d) {
  assert(d >= 0);
  clock_->now += d;
}

bool EventQueue::PeekNext(TimeNs* when, uint64_t* seq) const {
  if (heap_.empty()) {
    return false;
  }
  *when = heap_.front().when;
  *seq = heap_.front().seq;
  return true;
}

bool EventQueue::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  // The closure leaves its slot, and its id dies, before it runs:
  // handlers re-enter the queue.
  const Node top = heap_.front();
  const std::function<void()> fn = std::move(slots_[top.slot].fn);
  Remove(0);
  clock_->now = std::max(clock_->now, top.when);
  ++processed_;
  NoteChange();
  fn();
  return true;
}

void EventQueue::RunUntil(TimeNs deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    RunOne();
  }
  clock_->now = std::max(clock_->now, deadline);
}

void EventQueue::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (RunOne()) {
    if (++ran >= max_events) {
      // Returning would hand the caller a truncated run with work still
      // pending, so the guard stops the process in every build.
      std::fprintf(stderr, "EventQueue::RunAll: ran max_events (%llu) events\n",
                   static_cast<unsigned long long>(max_events));
      std::abort();
    }
  }
}

}  // namespace squeezy
