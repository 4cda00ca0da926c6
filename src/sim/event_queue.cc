#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>

namespace squeezy {

EventId EventQueue::ScheduleAt(TimeNs when, std::function<void()> fn) {
  return Schedule(std::max(when, heap_->now), ++heap_->seq, std::move(fn));
}

EventId EventQueue::Schedule(TimeNs when, uint64_t seq, std::function<void()> fn) {
  Heap& h = *heap_;
  if (h.free.empty()) {
    assert(h.slots.size() < kFree);
    h.free.push_back(static_cast<uint32_t>(h.slots.size()));
    h.slots.emplace_back();
  }
  const uint32_t slot = h.free.back();
  h.free.pop_back();
  h.slots[slot].fn = std::move(fn);
  h.slots[slot].lane = this;
  h.nodes.push_back(Node{when, seq, slot});
  h.Sift(h.nodes.size() - 1);
  peak_pending_ = std::max(peak_pending_, ++pending_);
  ++scheduled_;
  return (static_cast<EventId>(h.slots[slot].gen) << 32) | slot;
}

void EventQueue::ScheduleEach(std::vector<TimeNs> whens, std::function<void(size_t)> fn) {
  if (whens.empty()) {
    return;
  }
  assert(whens.size() <= UINT32_MAX);
  auto series = std::make_shared<Series>();
  series->queue = this;
  for (TimeNs& when : whens) {
    when = std::max(when, heap_->now);
  }
  series->order.resize(whens.size());
  std::iota(series->order.begin(), series->order.end(), 0u);
  std::stable_sort(series->order.begin(), series->order.end(),
                   [&whens](uint32_t a, uint32_t b) { return whens[a] < whens[b]; });
  // Reserve the n sequence numbers n ScheduleAt calls would draw now.
  series->first_seq = heap_->seq + 1;
  heap_->seq += whens.size();
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
  return ScheduleAt(heap_->now + delay, std::move(fn));
}

void EventQueue::Heap::Sift(size_t pos) {
  const Node node = nodes[pos];
  while (pos > 0 && Earlier(node, nodes[(pos - 1) / kArity])) {
    Place(pos, nodes[(pos - 1) / kArity]);
    pos = (pos - 1) / kArity;
  }
  for (size_t first = pos * kArity + 1; first < nodes.size(); first = pos * kArity + 1) {
    const size_t end = std::min(first + kArity, nodes.size());
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(nodes[c], nodes[best])) {
        best = c;
      }
    }
    if (!Earlier(nodes[best], node)) {
      break;
    }
    Place(pos, nodes[best]);
    pos = best;
  }
  Place(pos, node);
}

void EventQueue::Heap::Remove(size_t pos) {
  Slot& slot = slots[nodes[pos].slot];
  slot.pos = kFree;
  --slot.lane->pending_;
  // A generation that wraps to 0 would reissue an old id: retire the slot.
  if (++slot.gen != 0) {
    free.push_back(nodes[pos].slot);
  }
  nodes[pos] = nodes.back();
  nodes.pop_back();
  if (pos < nodes.size()) {
    Sift(pos);
  }
}

bool EventQueue::Cancel(EventId id) {
  Heap& h = *heap_;
  const uint64_t index = id & UINT32_MAX;
  if (index >= h.slots.size() || h.slots[index].pos == kFree ||
      h.slots[index].gen != id >> 32) {
    return false;  // Already ran, cancelled, never issued, or kInvalidEventId.
  }
  // Destroyed on return, once the books are consistent: a closure's
  // destructor may re-enter the queue.
  const std::function<void()> dead = std::move(h.slots[index].fn);
  h.Remove(h.slots[index].pos);
  return true;
}

void EventQueue::AdvanceBy(DurationNs d) {
  assert(d >= 0);
  heap_->now += d;
}

bool EventQueue::PeekNext(TimeNs* when) const {
  if (heap_->nodes.empty()) {
    return false;
  }
  *when = heap_->nodes.front().when;
  return true;
}

void EventQueue::RunTop() {
  Heap& h = *heap_;
  // The closure leaves its slot, and its id dies, before it runs:
  // handlers re-enter the queue.
  const Node top = h.nodes.front();
  const std::function<void()> fn = std::move(h.slots[top.slot].fn);
  ++h.slots[top.slot].lane->processed_;
  h.Remove(0);
  h.now = std::max(h.now, top.when);
  fn();
}

void EventQueue::RunUntil(TimeNs deadline) {
  while (!heap_->nodes.empty() && heap_->nodes.front().when <= deadline) {
    RunTop();
  }
  heap_->now = std::max(heap_->now, deadline);
}

void EventQueue::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (!heap_->nodes.empty()) {
    RunTop();
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
