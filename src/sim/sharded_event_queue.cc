#include "src/sim/sharded_event_queue.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace squeezy {

ShardedEventQueue::ShardedEventQueue(size_t nr_shards) {
  assert(nr_shards > 0);
  shards_.reserve(nr_shards);
  for (size_t i = 0; i < nr_shards; ++i) {
    shards_.push_back(std::make_unique<EventQueue>());
    shards_.back()->SetSequenceSource(&seq_);
  }
  global_.SetSequenceSource(&seq_);
  next_.resize(nr_shards + 1);
}

void ShardedEventQueue::RefreshChanged() {
  for (size_t q = 0; q < next_.size(); ++q) {
    Next& n = next_[q];
    const uint64_t v = queue(q).change_version();
    if (n.known && n.version == v) {
      continue;  // Unchanged since the last peek: cache still exact.
    }
    n.known = true;
    n.version = v;
    n.valid = queue(q).PeekNext(&n.when, &n.seq);
  }
}

int ShardedEventQueue::EarliestQueue() const {
  int best = -1;
  for (size_t q = 0; q < next_.size(); ++q) {
    const Next& n = next_[q];
    if (!n.valid) {
      continue;
    }
    if (best < 0 || n.when < next_[static_cast<size_t>(best)].when ||
        (n.when == next_[static_cast<size_t>(best)].when &&
         n.seq < next_[static_cast<size_t>(best)].seq)) {
      best = static_cast<int>(q);
    }
  }
  return best;
}

void ShardedEventQueue::RunUntil(TimeNs deadline) {
  for (;;) {
    RefreshChanged();
    // The next cross-shard event is the epoch barrier; the deadline caps
    // the last epoch.
    TimeNs b = deadline;
    const Next& g = next_[shards_.size()];
    if (g.valid && g.when < b) {
      b = g.when;
    }
    // Shard phase: each shard with work strictly before the barrier
    // burns it down — shard-local by construction.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (next_[s].valid && next_[s].when < b) {
        shards_[s]->RunUntil(b - 1);
      }
    }
    // Align every clock before the merge: barrier handlers route and
    // adopt into arbitrary shards relative to those shards' clocks.
    for (size_t q = 0; q < next_.size(); ++q) {
      queue(q).SyncNow(b);
    }
    // Barrier merge: run everything pending at exactly `b` — mailbox and
    // shards — one at a time in (when, seq) order.  Handlers may chain
    // zero-delay events at `b` (onto any queue); the loop re-peeks via
    // the version cache until the instant is fully drained.
    for (;;) {
      RefreshChanged();
      const int q = EarliestQueue();
      if (q < 0 || next_[static_cast<size_t>(q)].when > b) {
        break;
      }
      assert(next_[static_cast<size_t>(q)].when == b);
      queue(static_cast<size_t>(q)).RunOne();
    }
    if (b >= deadline) {
      return;
    }
  }
}

void ShardedEventQueue::RunAll(uint64_t max_events) {
  const uint64_t start = processed_events();
  for (;;) {
    RefreshChanged();
    const int q = EarliestQueue();
    if (q < 0) {
      return;
    }
    RunUntil(next_[static_cast<size_t>(q)].when);
    const uint64_t ran = processed_events() - start;
    if (ran >= max_events) {
      std::fprintf(stderr, "ShardedEventQueue::RunAll: ran %llu events (max_events %llu)\n",
                   static_cast<unsigned long long>(ran),
                   static_cast<unsigned long long>(max_events));
      std::abort();
    }
  }
}

uint64_t ShardedEventQueue::processed_events() const {
  uint64_t total = global_.processed_events();
  for (const auto& s : shards_) {
    total += s->processed_events();
  }
  return total;
}

uint64_t ShardedEventQueue::scheduled_events() const {
  uint64_t total = global_.scheduled_events();
  for (const auto& s : shards_) {
    total += s->scheduled_events();
  }
  return total;
}

size_t ShardedEventQueue::peak_pending() const {
  size_t total = global_.peak_pending();
  for (const auto& s : shards_) {
    total += s->peak_pending();
  }
  return total;
}

std::vector<uint64_t> ShardedEventQueue::ShardProcessed() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& s : shards_) {
    counts.push_back(s->processed_events());
  }
  return counts;
}

}  // namespace squeezy
