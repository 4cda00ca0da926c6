#include "src/cluster/migration_planner.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

MigrationPlanner::MigrationPlanner(std::vector<HostControl*> hosts, const CostModel& cost,
                                   const HostIndex& index)
    : hosts_(std::move(hosts)), cost_(cost), index_(index) {
  assert(!hosts_.empty());
}

HostSnapshot MigrationPlanner::Destination(const Replica& r) const {
  const HostIndex::HostRow row = index_.row(r.host);
  const HostControl* hc = hosts_[r.host];
  HostSnapshot s;
  s.committed = row.committed;
  s.available = row.available();
  s.draining = row.draining;
  s.dep_image_populated = hc->DepImagePopulated(r.local_fn);
  s.snapshot_restorable = hc->SnapshotRestorableFor(r.local_fn);
  s.restores_in_flight = hc->RestoresInFlight();
  return s;
}

std::vector<size_t> MigrationPlanner::RankDestinations(
    size_t src_host, const std::vector<Replica>& replicas, uint64_t unit_bytes,
    size_t wanted) const {
  ++plans_considered_;
  struct Candidate {
    size_t idx;
    bool fits_all;
    bool dep_populated;
    bool snap_restorable;
    size_t restores_in_flight;
    uint64_t committed;
  };
  std::vector<Candidate> cands;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i].host == src_host) {
      continue;
    }
    const HostSnapshot s = Destination(replicas[i]);
    if (s.draining || s.available < unit_bytes) {
      continue;  // Cannot take even one instance's commitment.
    }
    cands.push_back(Candidate{i, s.available >= wanted * unit_bytes, s.dep_image_populated,
                              s.snapshot_restorable, s.restores_in_flight, s.committed});
  }
  // Bin-pack flavor, same as placement: pack the incoming state onto the
  // most committed host that still fits the whole move, partial fits
  // after, keeping the fleet tail free for spikes.  Within each class,
  // destinations holding the dependency image warm come first (the move
  // skips deps_bytes on the wire there), then destinations able to
  // restore the function's snapshot recording (only the delta beyond the
  // recording crosses the wire there) — both dimensions are always false
  // without the respective registry, so the pre-cache/pre-snapshot
  // orderings are preserved bit-identically.  Destinations already
  // serving bulk restores rank behind idle-channel peers of the same
  // class: each host serializes RestoreWorkingSet prefetches, so landing
  // on a busy channel queues behind the in-flight transfers (always 0
  // without a registry — ordering unchanged then).  stable_sort keeps
  // exact ties at the lowest host index (deterministic).
  std::stable_sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    if (a.fits_all != b.fits_all) {
      return a.fits_all;
    }
    if (a.dep_populated != b.dep_populated) {
      return a.dep_populated;
    }
    if (a.snap_restorable != b.snap_restorable) {
      return a.snap_restorable;
    }
    if (a.restores_in_flight != b.restores_in_flight) {
      return a.restores_in_flight < b.restores_in_flight;
    }
    return a.committed > b.committed;
  });
  std::vector<size_t> ranked;
  ranked.reserve(cands.size());
  for (const Candidate& c : cands) {
    ranked.push_back(c.idx);
  }
  return ranked;
}

int MigrationPlanner::MostPressuredHost(size_t min_pending) const {
  // The by-pressure tree's first non-draining entry: max pending, ties to
  // the lowest host index, -1 below the threshold.
  return index_.MostPressured(min_pending);
}

StateTransferCost MigrationPlanner::TransferCost(const ReplicaMigrationState& state,
                                                 bool dep_cache_hit,
                                                 bool snapshot_hit) const {
  StateTransferCost c = cost_.StateTransfer(state.transfer_bytes(),
                                            cost_.migrate_dirty_frac * state.busy_fraction);
  if (dep_cache_hit) {
    // Attach the destination-resident image instead of shipping it.
    c.precopy += cost_.dep_cache_hit_fixed;
  }
  if (snapshot_hit) {
    // The caller moved the recorded portion out of state_bytes: the wire
    // carries only the delta, and the destination re-creates the recorded
    // bytes from the cluster snapshot store (fixed restore setup plus a
    // bulk prefetch at snapshot speed, overlapping the pre-copy phase).
    c.precopy += cost_.SnapshotAttach(state.recorded_bytes);
  }
  return c;
}

}  // namespace squeezy
