// Cluster-wide snapshot store: the concrete SnapshotRegistry.
//
// One slot per function image, keyed by spec name + sizes; the first host
// whose VM reaches a fully warmed idle records the touched-page set, every
// later cold start anywhere in the fleet restores from it (REAP snapshots
// are content-addressed files on shared storage — residency is global, not
// per host, unlike the dependency cache's per-host charging).
//
// Staleness policy lives here: a restored instance whose post-restore
// demand-fault tail exceeds `stale_tail_fraction` of the recorded heap
// invalidates the recording (the workload shifted — e.g. a memhog phase
// grew the resident set) and the next fully warmed idle re-records.
#ifndef SQUEEZY_SNAPSHOT_SNAPSHOT_STORE_H_
#define SQUEEZY_SNAPSHOT_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/faas/snapshot_registry.h"

namespace squeezy {

struct SnapshotStoreConfig {
  // Post-restore demand-fault tail (fraction of the recorded heap) above
  // which the recording is declared stale and re-recorded.
  double stale_tail_fraction = 0.25;
};

// Fleet-level observability (bench JSON: fig11/fig12 snapshot metrics).
struct SnapshotStats {
  uint64_t functions = 0;          // Interned snapshot slots.
  uint64_t recordings = 0;         // First-time recordings taken.
  uint64_t re_recordings = 0;      // Recordings taken after an invalidation.
  uint64_t invalidations = 0;      // Stale recordings dropped.
  uint64_t restores = 0;           // Cold starts served from a snapshot.
  uint64_t prefetch_bytes = 0;     // Bytes bulk-prefetched across restores.
  uint64_t deps_bytes_zeroed = 0;  // Deps prefetch skipped via dep-cache residency.
  uint64_t tail_bytes = 0;         // Post-restore demand-fault bytes.
  uint64_t restored_heap_bytes = 0;  // Recorded heap summed over restores.
  // Snapshot-hit migration transfers (fig12 drain metrics): a migration
  // to a restore-capable destination ships only the delta beyond the
  // recording; the recorded portion is bulk-restored from the store.
  uint64_t migration_hits = 0;              // Transfers that hit a recording.
  uint64_t migration_restores = 0;          // Instances bulk-restored on arrival.
  uint64_t migration_wire_saved_bytes = 0;  // Recorded bytes that skipped the wire.

  // Demand-fault tail as a percentage of the restored heap (0 when no
  // restore happened): the staleness signal fig12 reports.
  double tail_fault_rate_pct() const {
    return restored_heap_bytes == 0
               ? 0.0
               : 100.0 * static_cast<double>(tail_bytes) /
                     static_cast<double>(restored_heap_bytes);
  }
};

// Recordings live on shared storage, so every host's runtime reaches
// into this one object.
class SnapshotStore : public SnapshotRegistry {
 public:
  SnapshotStore() = default;
  explicit SnapshotStore(const SnapshotStoreConfig& config) : config_(config) {}

  SnapshotId Intern(const std::string& key) override;
  bool Recorded(SnapshotId snap) const override;
  SnapshotImage Image(SnapshotId snap) const override;
  uint64_t RecordedHeapBytes(SnapshotId snap) const override;
  bool Record(SnapshotId snap, const SnapshotImage& image) override;
  void Invalidate(SnapshotId snap) override;
  void NoteRestore(SnapshotId snap, uint64_t prefetch_bytes,
                   uint64_t deps_bytes_zeroed) override;
  bool NoteTail(SnapshotId snap, uint64_t tail_bytes) override;

  // Fleet-side bookkeeping for one snapshot-hit migration transfer
  // (mirrors DepCache::RecordWireHit): `wire_saved_bytes` of recorded
  // state skipped the wire and `restores` adopted instances bulk-restored
  // it from the store at the destination.  Cluster-only — the per-host
  // runtime never prices migrations.
  void RecordMigrationHit(uint64_t wire_saved_bytes, uint64_t restores);

  // Called with the slot whenever its valid/invalid state flips (a
  // recording taken, or one invalidated) — what a cached view of
  // Recorded()/Image() (the cluster's admission index) must re-read.
  void set_change_observer(std::function<void(SnapshotId)> observer) {
    change_observer_ = std::move(observer);
  }

  SnapshotStats stats() const { return stats_; }
  const SnapshotStoreConfig& config() const { return config_; }
  // Keys of every currently-valid recording, in key order.  Sim-visible
  // dump path: iteration runs over the ordered key index, never a hash
  // table, so the listing is a pure function of the recorded set
  // (insertion-order invariance locked by tests/determinism_order_test.cc).
  std::vector<std::string> RecordedKeys() const;

 private:
  struct Slot {
    SnapshotImage image;
    bool recorded = false;       // A valid recording exists right now.
    bool ever_recorded = false;  // Distinguishes re-recordings for stats.
  };

  const Slot& slot(SnapshotId snap) const {
    return slots_[static_cast<size_t>(snap)];
  }

  const SnapshotStoreConfig config_;  // Set at construction, immutable after.
  // Ordered key index — same rationale as DepCache::by_key_: key
  // iteration is deterministic by construction, not by audit.
  std::map<std::string, SnapshotId> by_key_;
  std::vector<Slot> slots_;
  SnapshotStats stats_;
  std::function<void(SnapshotId)> change_observer_;  // Empty: nobody caches.
};

}  // namespace squeezy

#endif  // SQUEEZY_SNAPSHOT_SNAPSHOT_STORE_H_
