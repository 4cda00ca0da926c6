#include "src/sim/sharded_event_queue.h"

#include <cassert>

namespace squeezy {

ShardedEventQueue::ShardedEventQueue(size_t nr_shards) {
  assert(nr_shards > 0);
  lanes_.reserve(nr_shards + 1);
  lanes_.push_back(std::make_unique<EventQueue>());
  while (lanes_.size() < nr_shards + 1) {
    lanes_.push_back(std::make_unique<EventQueue>(lanes_.front().get()));
  }
}

std::vector<uint64_t> ShardedEventQueue::ShardProcessed() const {
  std::vector<uint64_t> counts;
  counts.reserve(nr_shards());
  for (size_t s = 0; s < nr_shards(); ++s) {
    counts.push_back(lanes_[s]->processed_events());
  }
  return counts;
}

}  // namespace squeezy
