#include "src/snapshot/snapshot_store.h"

#include <cassert>

namespace squeezy {

SnapshotId SnapshotStore::Intern(const std::string& key) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    return it->second;
  }
  const SnapshotId snap = static_cast<SnapshotId>(slots_.size());
  slots_.emplace_back();
  by_key_.emplace(key, snap);
  ++stats_.functions;
  return snap;
}

bool SnapshotStore::Recorded(SnapshotId snap) const {
  return slot(snap).recorded;
}

SnapshotImage SnapshotStore::Image(SnapshotId snap) const {
  assert(slot(snap).recorded);
  return slot(snap).image;
}

uint64_t SnapshotStore::RecordedHeapBytes(SnapshotId snap) const {
  const Slot& s = slot(snap);
  return s.recorded ? s.image.heap_bytes : 0;
}

void SnapshotStore::RecordMigrationHit(uint64_t wire_saved_bytes, uint64_t restores) {
  ++stats_.migration_hits;
  stats_.migration_restores += restores;
  stats_.migration_wire_saved_bytes += wire_saved_bytes;
}

bool SnapshotStore::Record(SnapshotId snap, const SnapshotImage& image) {
  Slot& s = slots_[static_cast<size_t>(snap)];
  if (s.recorded) {
    return false;  // Record-once: a valid recording is never overwritten.
  }
  s.image = image;
  s.recorded = true;
  if (s.ever_recorded) {
    ++stats_.re_recordings;
  } else {
    s.ever_recorded = true;
    ++stats_.recordings;
  }
  if (change_observer_) {
    change_observer_(snap);
  }
  return true;
}

void SnapshotStore::Invalidate(SnapshotId snap) {
  Slot& s = slots_[static_cast<size_t>(snap)];
  if (!s.recorded) {
    return;
  }
  s.recorded = false;
  ++stats_.invalidations;
  if (change_observer_) {
    change_observer_(snap);
  }
}

void SnapshotStore::NoteRestore(SnapshotId snap, uint64_t prefetch_bytes,
                                uint64_t deps_bytes_zeroed) {
  ++stats_.restores;
  stats_.prefetch_bytes += prefetch_bytes;
  stats_.deps_bytes_zeroed += deps_bytes_zeroed;
  stats_.restored_heap_bytes += slot(snap).image.heap_bytes;
}

bool SnapshotStore::NoteTail(SnapshotId snap, uint64_t tail_bytes) {
  stats_.tail_bytes += tail_bytes;
  const Slot& s = slot(snap);
  if (!s.recorded) {
    return false;  // Already invalidated by a sibling's tail.
  }
  const double threshold =
      config_.stale_tail_fraction * static_cast<double>(s.image.heap_bytes);
  if (static_cast<double>(tail_bytes) <= threshold) {
    return false;
  }
  // The workload shifted past the recording: drop it; the next fully
  // warmed idle re-records the grown working set.
  Invalidate(snap);
  return true;
}

std::vector<std::string> SnapshotStore::RecordedKeys() const {
  std::vector<std::string> out;
  // by_key_ is ordered: key-sorted regardless of Intern() order.
  for (const auto& [key, snap] : by_key_) {
    if (slots_[static_cast<size_t>(snap)].recorded) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace squeezy
