#include "src/cluster/scheduler.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

const char* PlacementPolicyName(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kRoundRobin:
      return "RoundRobin";
    case PlacementPolicy::kLeastCommitted:
      return "LeastCommitted";
    case PlacementPolicy::kMemoryAwareBinPack:
      return "MemBinPack";
    case PlacementPolicy::kHintedBinPack:
      return "HintedBinPack";
  }
  return "?";
}

const char* MigrationModeName(MigrationMode m) {
  switch (m) {
    case MigrationMode::kReapOnDrain:
      return "ReapOnDrain";
    case MigrationMode::kMigrateOnDrain:
      return "MigrateOnDrain";
  }
  return "?";
}

ClusterScheduler::ClusterScheduler(PlacementPolicy policy, std::vector<HostControl*> hosts,
                                   HostIndex& index)
    : hosts_(std::move(hosts)), policy_(policy), index_(index) {
  assert(!hosts_.empty());
}

std::vector<HostIndex::Candidate> ClusterScheduler::Candidates(uint64_t boot_commit) const {
  return index_.CandidatesByAvailable(boot_commit);
}

std::vector<size_t> ClusterScheduler::PlaceFunction(uint64_t boot_commit,
                                                    uint64_t plug_unit,
                                                    size_t replicas) {
  fn_plug_unit_.push_back(plug_unit);
  replicas = std::min(std::max<size_t>(replicas, 1), hosts_.size());
  // Hard admission: only non-draining hosts that can commit the VM's boot
  // footprint are candidates.  Fewer candidates than requested replicas
  // degrades the replica count; zero candidates means the function is
  // unplaceable (the cluster then rejects its invocations instead of
  // crashing a host).
  std::vector<HostIndex::Candidate> cands = Candidates(boot_commit);
  if (cands.empty()) {
    return {};
  }

  using Candidate = HostIndex::Candidate;
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // Next `replicas` candidates cyclically from the registration
      // cursor, which lives in stable host-index space: start from the
      // first candidate host >= cursor (wrapping), and continue after the
      // last host actually chosen.  Rotating by cursor % cands.size()
      // over the FILTERED list made the cursor land on different hosts
      // across calls whenever any host was full or draining, skewing
      // placement toward low-index hosts.
      const size_t start = place_cursor_ % hosts_.size();
      auto first = std::lower_bound(
          cands.begin(), cands.end(), start,
          [](const Candidate& c, size_t host) { return c.host < host; });
      if (first == cands.end()) {
        first = cands.begin();  // Every candidate is below the cursor: wrap.
      }
      std::rotate(cands.begin(), first, cands.end());
      const size_t chosen = std::min(replicas, cands.size());
      place_cursor_ = (cands[chosen - 1].host + 1) % hosts_.size();
      break;
    }
    case PlacementPolicy::kLeastCommitted:
      std::stable_sort(cands.begin(), cands.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.committed < b.committed;
                       });
      break;
    case PlacementPolicy::kMemoryAwareBinPack:
    case PlacementPolicy::kHintedBinPack: {
      // Most committed host that still fits boot + one instance, so VM
      // bases pack tightly and whole hosts stay free; boot-only hosts sort
      // last (most available first, to degrade gracefully).
      const uint64_t need = boot_commit + plug_unit;
      std::stable_sort(cands.begin(), cands.end(),
                       [need](const Candidate& a, const Candidate& b) {
                         const bool fa = a.available >= need;
                         const bool fb = b.available >= need;
                         if (fa != fb) {
                           return fa;
                         }
                         if (fa) {
                           return a.committed > b.committed;
                         }
                         return a.committed < b.committed;
                       });
      break;
    }
  }
  std::vector<size_t> order;
  for (size_t i = 0; i < std::min(replicas, cands.size()); ++i) {
    order.push_back(cands[i].host);
  }
  return order;
}

size_t& ClusterScheduler::RouteCursor(int cluster_fn) {
  if (route_cursor_.size() <= static_cast<size_t>(cluster_fn)) {
    route_cursor_.resize(static_cast<size_t>(cluster_fn) + 1, 0);
  }
  return route_cursor_[static_cast<size_t>(cluster_fn)];
}

size_t ClusterScheduler::LeastCommitted(int cluster_fn) {
  // Exact ties are common (hosts idle at their boot commitment); breaking
  // them toward a fixed host would make the policy de facto sticky, so
  // tied hosts are rotated per function instead (still deterministic).
  const size_t tied = index_.LeastCommittedCount(cluster_fn);
  return index_.LeastCommittedAt(cluster_fn, RouteCursor(cluster_fn)++ % tied);
}

const Replica& ClusterScheduler::Overflow(int cluster_fn,
                                          const std::vector<Replica>& replicas,
                                          size_t donor) {
  if (policy_ == PlacementPolicy::kHintedBinPack) {
    // Co-design: the burst outran reclamation everywhere.  Tell the donor
    // host to start reclaiming one plug unit NOW (evict + unplug) instead
    // of waiting for its next pressure tick, so the scale-up this route
    // triggers is served sooner.
    hosts_[replicas[donor].host]->ProactiveReclaim(
        fn_plug_unit_[static_cast<size_t>(cluster_fn)]);
    ++hints_fired_;
  }
  return replicas[donor];
}

const Replica& ClusterScheduler::Route(int cluster_fn,
                                       const std::vector<Replica>& replicas) {
  assert(!replicas.empty());
  ++decisions_;
  return Pick(cluster_fn, replicas);
}

const Replica& ClusterScheduler::Pick(int cluster_fn, const std::vector<Replica>& replicas) {
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // Spread over the non-draining replicas (all of them when every
      // host drains — routing must return something).
      const size_t eligible = index_.EligibleCount(cluster_fn);
      if (eligible == 0) {
        return replicas[RouteCursor(cluster_fn)++ % replicas.size()];
      }
      const size_t k = RouteCursor(cluster_fn)++ % eligible;
      return replicas[index_.EligibleAt(cluster_fn, k)];
    }
    case PlacementPolicy::kLeastCommitted:
      return replicas[LeastCommitted(cluster_fn)];
    case PlacementPolicy::kMemoryAwareBinPack:
    case PlacementPolicy::kHintedBinPack: {
      // Most committed replica that can admit without waiting on
      // reclamation, read off the index's admission set once the replicas
      // marked since this function's last decision are re-probed.
      const auto can_admit = [&](size_t i) {
        return hosts_[replicas[i].host]->CanAdmitNow(replicas[i].local_fn);
      };
      admit_probes_ += index_.RefreshAdmission(cluster_fn, can_admit);
      const int best = index_.FirstAdmitting(cluster_fn);
      assert(best == index_.FirstAdmittingByCommittedDesc(cluster_fn, can_admit) &&
             "admission set diverged from the probe walk: an input went unmarked");
      if (best < 0) {
        // No replica admits: overflow onto the least committed one (its
        // reclamation backlog is the smallest, so it unblocks first).
        return Overflow(cluster_fn, replicas, LeastCommitted(cluster_fn));
      }
      return replicas[static_cast<size_t>(best)];
    }
  }
  return replicas[0];
}

}  // namespace squeezy
