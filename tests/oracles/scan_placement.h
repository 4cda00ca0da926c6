// Full-scan reference for the cluster's placement and migration deciders:
// the implementation that judged every candidate from one HostSnapshot per
// decision before HostIndex replaced it, kept only as a test oracle.
// IndexedVsScanPlacementFuzzTest (tests/property_test.cc) and
// fig12_regression_test build a Cluster with ScanDeciders and require the
// same decision stream as the production deciders.  Every decision here
// walks all replicas (or all hosts) and takes the first strict winner in
// ascending index order, so ties go to the lowest index.
#ifndef SQUEEZY_TESTS_ORACLES_SCAN_PLACEMENT_H_
#define SQUEEZY_TESTS_ORACLES_SCAN_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/migration_planner.h"
#include "src/cluster/scheduler.h"
#include "src/faas/host_control.h"

namespace squeezy {

class ScanScheduler : public ClusterScheduler {
 public:
  using ClusterScheduler::ClusterScheduler;

 protected:
  std::vector<HostIndex::Candidate> Candidates(uint64_t boot_commit) const override {
    std::vector<HostIndex::Candidate> cands;
    for (size_t h = 0; h < hosts_.size(); ++h) {
      const HostSnapshot s = hosts_[h]->Snapshot();
      if (!s.draining && s.available >= boot_commit) {
        cands.push_back(HostIndex::Candidate{h, s.committed, s.available});
      }
    }
    return cands;
  }

  const Replica& Pick(int cluster_fn, const std::vector<Replica>& replicas) override {
    // One consistent snapshot per replica for the whole decision; only the
    // bin-packers read can_admit.
    const bool bin_pack = policy() == PlacementPolicy::kMemoryAwareBinPack ||
                          policy() == PlacementPolicy::kHintedBinPack;
    std::vector<HostSnapshot> snaps;
    for (const Replica& r : replicas) {
      snaps.push_back(hosts_[r.host]->Snapshot(bin_pack ? r.local_fn : -1));
    }
    switch (policy()) {
      case PlacementPolicy::kRoundRobin: {
        std::vector<size_t> eligible;
        for (size_t i = 0; i < replicas.size(); ++i) {
          if (!snaps[i].draining) {
            eligible.push_back(i);
          }
        }
        if (eligible.empty()) {
          return replicas[RouteCursor(cluster_fn)++ % replicas.size()];
        }
        return replicas[eligible[RouteCursor(cluster_fn)++ % eligible.size()]];
      }
      case PlacementPolicy::kLeastCommitted:
        return replicas[LeastCommittedOf(snaps, cluster_fn)];
      case PlacementPolicy::kMemoryAwareBinPack:
      case PlacementPolicy::kHintedBinPack: {
        int best = -1;
        for (size_t i = 0; i < replicas.size(); ++i) {
          if (snaps[i].can_admit &&
              (best < 0 || snaps[i].committed > snaps[static_cast<size_t>(best)].committed)) {
            best = static_cast<int>(i);
          }
        }
        if (best < 0) {
          return Overflow(cluster_fn, replicas, LeastCommittedOf(snaps, cluster_fn));
        }
        return replicas[static_cast<size_t>(best)];
      }
    }
    return replicas[0];
  }

 private:
  // The least committed non-draining replica (any replica when all
  // drain); ties rotate through the route cursor.
  size_t LeastCommittedOf(const std::vector<HostSnapshot>& snaps, int cluster_fn) {
    bool any_live = false;
    for (const HostSnapshot& s : snaps) {
      any_live = any_live || !s.draining;
    }
    const auto eligible = [&](size_t i) { return !any_live || !snaps[i].draining; };
    bool seeded = false;
    uint64_t min_committed = 0;
    for (size_t i = 0; i < snaps.size(); ++i) {
      if (eligible(i) && (!seeded || snaps[i].committed < min_committed)) {
        min_committed = snaps[i].committed;
        seeded = true;
      }
    }
    std::vector<size_t> tied;
    for (size_t i = 0; i < snaps.size(); ++i) {
      if (eligible(i) && snaps[i].committed == min_committed) {
        tied.push_back(i);
      }
    }
    return tied[RouteCursor(cluster_fn)++ % tied.size()];
  }
};

class ScanPlanner : public MigrationPlanner {
 public:
  using MigrationPlanner::MigrationPlanner;

  int MostPressuredHost(size_t min_pending) const override {
    int victim = -1;
    size_t worst = 0;
    for (size_t h = 0; h < hosts_.size(); ++h) {
      const HostSnapshot s = hosts_[h]->Snapshot();
      if (s.draining || s.pending_scaleups < min_pending) {
        continue;
      }
      if (victim < 0 || s.pending_scaleups > worst) {
        worst = s.pending_scaleups;
        victim = static_cast<int>(h);
      }
    }
    return victim;
  }

 protected:
  HostSnapshot Destination(const Replica& r) const override {
    return hosts_[r.host]->Snapshot(r.local_fn);
  }
};

// Cluster::MakeDeciders for the oracle: pass as Cluster's second argument.
inline Cluster::Deciders ScanDeciders(const ClusterConfig& config,
                                      const std::vector<HostControl*>& hosts,
                                      HostIndex& index) {
  return {std::make_unique<ScanScheduler>(config.placement, hosts, index),
          std::make_unique<ScanPlanner>(hosts, config.host.cost, index)};
}

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_ORACLES_SCAN_PLACEMENT_H_
