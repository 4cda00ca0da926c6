#include "src/cluster/scheduler.h"

#include <algorithm>
#include <cassert>
#include <numeric>

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
                                   HostIndex* index)
    : policy_(policy), hosts_(std::move(hosts)), index_(index) {
  assert(!hosts_.empty());
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
  // crashing a host).  The indexed path pulls the candidate set from one
  // by-available lower_bound; the scan reference judges every host from
  // one snapshot each.  Both yield the same hosts in ascending index
  // order with the same committed/available values.
  std::vector<size_t> order;
  std::vector<uint64_t> committed(hosts_.size(), 0);
  std::vector<uint64_t> available(hosts_.size(), 0);
  if (index_ != nullptr) {
    for (const HostIndex::Candidate& c : index_->CandidatesByAvailable(boot_commit)) {
      order.push_back(c.host);
      committed[c.host] = c.committed;
      available[c.host] = c.available;
    }
  } else {
    for (size_t h = 0; h < hosts_.size(); ++h) {
      const HostSnapshot s = hosts_[h]->Snapshot();
      if (!s.draining && s.available >= boot_commit) {
        order.push_back(h);
        committed[h] = s.committed;
        available[h] = s.available;
      }
    }
  }
  if (order.empty()) {
    return order;
  }

  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // Next `replicas` candidates cyclically from the registration
      // cursor, which lives in stable host-index space: start from the
      // first candidate host >= cursor (wrapping), and continue after the
      // last host actually chosen.  Rotating by cursor % order.size()
      // over the FILTERED list made the cursor land on different hosts
      // across calls whenever any host was full or draining, skewing
      // placement toward low-index hosts.
      const size_t start = place_cursor_ % hosts_.size();
      auto first = std::lower_bound(order.begin(), order.end(), start);
      if (first == order.end()) {
        first = order.begin();  // Every candidate is below the cursor: wrap.
      }
      std::rotate(order.begin(), first, order.end());
      const size_t chosen = std::min(replicas, order.size());
      place_cursor_ = (order[chosen - 1] + 1) % hosts_.size();
      break;
    }
    case PlacementPolicy::kLeastCommitted:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return committed[a] < committed[b];
      });
      break;
    case PlacementPolicy::kMemoryAwareBinPack:
    case PlacementPolicy::kHintedBinPack: {
      // Most committed host that still fits boot + one instance, so VM
      // bases pack tightly and whole hosts stay free; boot-only hosts sort
      // last (most available first, to degrade gracefully).
      const uint64_t need = boot_commit + plug_unit;
      auto fits = [&](size_t h) { return available[h] >= need; };
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const bool fa = fits(a);
        const bool fb = fits(b);
        if (fa != fb) {
          return fa;
        }
        if (fa) {
          return committed[a] > committed[b];
        }
        return committed[a] < committed[b];
      });
      break;
    }
  }
  if (order.size() > replicas) {
    order.resize(replicas);
  }
  return order;
}

size_t& ClusterScheduler::RouteCursor(int cluster_fn) {
  if (route_cursor_.size() <= static_cast<size_t>(cluster_fn)) {
    route_cursor_.resize(static_cast<size_t>(cluster_fn) + 1, 0);
  }
  return route_cursor_[static_cast<size_t>(cluster_fn)];
}

size_t ClusterScheduler::LeastCommittedOf(const std::vector<Replica>& replicas,
                                          const std::vector<HostSnapshot>& snaps,
                                          int cluster_fn) {
  // Draining hosts take no new work while any alternative exists.
  bool any_live = false;
  for (const HostSnapshot& s : snaps) {
    any_live = any_live || !s.draining;
  }
  auto eligible = [&](size_t i) { return any_live ? !snaps[i].draining : true; };

  uint64_t min_committed = 0;
  bool seeded = false;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (!eligible(i)) {
      continue;
    }
    if (!seeded || snaps[i].committed < min_committed) {
      min_committed = snaps[i].committed;
      seeded = true;
    }
  }
  // Exact ties are common (hosts idle at their boot commitment); breaking
  // them toward a fixed host would make the policy de facto sticky, so
  // tied hosts are rotated per function instead (still deterministic).
  std::vector<size_t> tied;
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (eligible(i) && snaps[i].committed == min_committed) {
      tied.push_back(i);
    }
  }
  return tied[RouteCursor(cluster_fn)++ % tied.size()];
}

size_t ClusterScheduler::LeastCommittedIndexed(int cluster_fn) {
  const size_t tied = index_->LeastCommittedCount(cluster_fn);
  return index_->LeastCommittedAt(cluster_fn, RouteCursor(cluster_fn)++ % tied);
}

const Replica& ClusterScheduler::RouteIndexed(int cluster_fn,
                                              const std::vector<Replica>& replicas) {
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // Spread over the non-draining replicas (all of them when every
      // host drains — routing must return something).  The index knows
      // the eligible count and k-th member without touching a host.
      const size_t eligible = index_->EligibleCount(cluster_fn);
      if (eligible == 0) {
        return replicas[RouteCursor(cluster_fn)++ % replicas.size()];
      }
      const size_t k = RouteCursor(cluster_fn)++ % eligible;
      return replicas[index_->EligibleAt(cluster_fn, k)];
    }
    case PlacementPolicy::kLeastCommitted:
      return replicas[LeastCommittedIndexed(cluster_fn)];
    case PlacementPolicy::kMemoryAwareBinPack:
    case PlacementPolicy::kHintedBinPack: {
      // Most committed replica that can admit — the scan's max-committed
      // first-match — read off the index's admission set once the
      // replicas marked since this function's last decision are
      // re-probed.
      const auto can_admit = [&](size_t i) {
        return hosts_[replicas[i].host]->CanAdmitNow(replicas[i].local_fn);
      };
      admit_probes_ += index_->RefreshAdmission(cluster_fn, can_admit);
      const int best = index_->FirstAdmitting(cluster_fn);
      assert(best == index_->FirstAdmittingByCommittedDesc(cluster_fn, can_admit) &&
             "admission set diverged from the probe walk: an input went unmarked");
      if (best < 0) {
        // No replica admits: overflow onto the least committed one (its
        // reclamation backlog is the smallest, so it unblocks first).
        const size_t donor = LeastCommittedIndexed(cluster_fn);
        if (policy_ == PlacementPolicy::kHintedBinPack) {
          const uint64_t unit = fn_plug_unit_[static_cast<size_t>(cluster_fn)];
          hosts_[replicas[donor].host]->ProactiveReclaim(unit);
          ++hints_fired_;
        }
        return replicas[donor];
      }
      return replicas[static_cast<size_t>(best)];
    }
  }
  return replicas[0];
}

const Replica& ClusterScheduler::Route(int cluster_fn,
                                       const std::vector<Replica>& replicas) {
  assert(!replicas.empty());
  ++decisions_;

  if (index_ != nullptr) {
    return RouteIndexed(cluster_fn, replicas);
  }

  // One consistent snapshot per replica for this whole decision: committed,
  // pressure and admissibility are read together, never torn.  The
  // admission check walks instance state, so only the bin-packing
  // policies (the ones that read can_admit) pay for it.
  const bool wants_admit = policy_ == PlacementPolicy::kMemoryAwareBinPack ||
                           policy_ == PlacementPolicy::kHintedBinPack;
  std::vector<HostSnapshot> snaps;
  snaps.reserve(replicas.size());
  for (const Replica& r : replicas) {
    snaps.push_back(hosts_[r.host]->Snapshot(wants_admit ? r.local_fn : -1));
  }
  if (wants_admit) {
    admit_probes_ += replicas.size();
  }

  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // Spread over the non-draining replicas (all of them when every
      // host drains — routing must return something).
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
      return replicas[LeastCommittedOf(replicas, snaps, cluster_fn)];
    case PlacementPolicy::kMemoryAwareBinPack:
    case PlacementPolicy::kHintedBinPack: {
      // Most committed replica that can admit without waiting on
      // reclamation; when none can, fall back to the least committed one
      // (its reclamation backlog is the smallest, so it unblocks first).
      int best = -1;
      for (size_t i = 0; i < replicas.size(); ++i) {
        if (!snaps[i].can_admit) {
          continue;
        }
        if (best < 0 || snaps[i].committed > snaps[static_cast<size_t>(best)].committed) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) {
        const size_t donor = LeastCommittedOf(replicas, snaps, cluster_fn);
        if (policy_ == PlacementPolicy::kHintedBinPack) {
          // Co-design: the burst outran reclamation everywhere.  Tell the
          // donor host to start reclaiming one plug unit NOW (evict +
          // unplug) instead of waiting for its next pressure tick, so the
          // scale-up this route triggers is served sooner.
          const uint64_t unit = fn_plug_unit_[static_cast<size_t>(cluster_fn)];
          hosts_[replicas[donor].host]->ProactiveReclaim(unit);
          ++hints_fired_;
        }
        return replicas[donor];
      }
      return replicas[static_cast<size_t>(best)];
    }
  }
  return replicas[0];
}

}  // namespace squeezy
