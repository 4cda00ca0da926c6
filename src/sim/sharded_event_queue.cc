#include "src/sim/sharded_event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace squeezy {

ShardedEventQueue::ShardedEventQueue(size_t nr_shards) {
  assert(nr_shards > 0 && nr_shards < kAbsent);
  const size_t n = nr_shards + 1;
  fleet_.listed.assign(n, 0);
  head_.resize(n);
  pos_.assign(n, kAbsent);
  queues_.reserve(n);
  for (size_t q = 0; q < n; ++q) {
    queues_.push_back(std::make_unique<EventQueue>());
    queues_.back()->JoinFleet(&fleet_, static_cast<uint32_t>(q));
  }
}

void ShardedEventQueue::Sift(size_t pos) {
  const uint32_t q = heap_[pos];
  while (pos > 0 && Earlier(q, heap_[(pos - 1) / 2])) {
    Place(pos, heap_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  for (size_t child = 2 * pos + 1; child < heap_.size(); child = 2 * pos + 1) {
    if (child + 1 < heap_.size() && Earlier(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Earlier(heap_[child], q)) {
      break;
    }
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, q);
}

void ShardedEventQueue::Refresh() {
  for (const uint32_t q : fleet_.changed) {
    fleet_.listed[q] = 0;
    Head head;
    const bool live = queues_[q]->PeekNext(&head.when, &head.seq);
    if (pos_[q] == kAbsent) {
      if (!live) {
        continue;
      }
      head_[q] = head;
      heap_.push_back(q);
      Sift(heap_.size() - 1);
    } else if (!live) {
      const size_t pos = pos_[q];
      pos_[q] = kAbsent;
      const uint32_t last = heap_.back();
      heap_.pop_back();
      if (pos < heap_.size()) {
        Place(pos, last);
        Sift(pos);
      }
    } else if (head.seq != head_[q].seq) {  // Sequence numbers are unique.
      head_[q] = head;
      Sift(pos_[q]);
    } else {
      continue;  // Its head did not move.
    }
    ++head_updates_;
  }
  fleet_.changed.clear();
  assert(TopIsEarliest());
}

bool ShardedEventQueue::TopIsEarliest() const {
  uint32_t best = kAbsent;
  Head best_head;
  for (uint32_t q = 0; q < queues_.size(); ++q) {
    Head head;
    if (queues_[q]->PeekNext(&head.when, &head.seq) &&
        (best == kAbsent || Before(head, best_head))) {
      best = q;
      best_head = head;
    }
  }
  return best == kAbsent ? heap_.empty() : !heap_.empty() && heap_.front() == best;
}

void ShardedEventQueue::RunTop() {
  const uint32_t q = heap_.front();
  if (!queues_[q]->RunOne()) {
    // The heap lists only queues that hold events, so some change to this
    // queue went unreported; running on would spin on its stale head.
    std::fprintf(stderr, "ShardedEventQueue: %s %u is on top but empty\n",
                 q == nr_shards() ? "mailbox queue" : "shard", q);
    std::abort();
  }
}

void ShardedEventQueue::RunUntil(TimeNs deadline) {
  for (Refresh(); !heap_.empty() && head_[heap_.front()].when <= deadline; Refresh()) {
    RunTop();
  }
  fleet_.clock.now = std::max(fleet_.clock.now, deadline);
}

void ShardedEventQueue::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  for (Refresh(); !heap_.empty(); Refresh()) {
    RunTop();
    if (++ran >= max_events) {
      std::fprintf(stderr, "ShardedEventQueue::RunAll: ran max_events (%llu) events\n",
                   static_cast<unsigned long long>(max_events));
      std::abort();
    }
  }
}

std::vector<uint64_t> ShardedEventQueue::ShardProcessed() const {
  std::vector<uint64_t> counts;
  counts.reserve(nr_shards());
  for (size_t s = 0; s < nr_shards(); ++s) {
    counts.push_back(queues_[s]->processed_events());
  }
  return counts;
}

}  // namespace squeezy
