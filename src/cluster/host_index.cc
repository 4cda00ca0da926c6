#include "src/cluster/host_index.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace squeezy {

HostIndex::HostIndex(size_t nr_hosts) : nr_hosts_(nr_hosts) {
  assert(nr_hosts_ > 0);
  rows_.resize(nr_hosts_);
  host_fns_.resize(nr_hosts_);
}

void HostIndex::InitHost(size_t host, uint64_t committed, uint64_t capacity,
                         size_t pending, bool draining) {
  assert(host < nr_hosts_);
  HostRow& row = rows_[host];
  // Idempotent re-seed: drop any prior keys before inserting the new ones.
  by_available_.erase({row.available(), host});
  by_pressure_.erase({row.pending, host});
  row.capacity = capacity;
  ApplyRow(host, committed, pending, draining);
}

void HostIndex::Update(size_t host, uint64_t committed, size_t pending,
                       bool draining) {
  assert(host < nr_hosts_);
  HostRow& row = rows_[host];
  ++stats_.updates;
  if (row.committed == committed && row.pending == pending &&
      row.draining == draining) {
    return;  // Spurious notification; every tree is already exact.
  }
  by_available_.erase({row.available(), host});
  by_pressure_.erase({row.pending, host});
  if (row.committed != committed) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      FnIndex& idx = fns_[fn];
      auto group = idx.by_committed.find(row.committed);
      std::vector<size_t>& old_members = group->second;
      old_members.erase(
          std::lower_bound(old_members.begin(), old_members.end(), replica));
      if (old_members.empty()) {
        idx.by_committed.erase(group);
      }
      std::vector<size_t>& new_members = idx.by_committed[committed];
      new_members.insert(
          std::lower_bound(new_members.begin(), new_members.end(), replica), replica);
      if (idx.admits[replica]) {
        idx.admitting.erase({row.committed, replica});
        idx.admitting.insert({committed, replica});
      }
    }
  }
  if (row.draining != draining) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].draining_replicas += draining ? 1 : -1;
    }
  }
  if (row.committed != committed || row.draining != draining) {
    // Free commitment and the drain flag both gate admission.
    MarkAdmitDirty(host, -1);
  }
  ApplyRow(host, committed, pending, draining);
}

void HostIndex::ApplyRow(size_t host, uint64_t committed, size_t pending,
                         bool draining) {
  HostRow& row = rows_[host];
  row.committed = committed;
  row.pending = pending;
  row.draining = draining;
  by_available_.insert({row.available(), host});
  by_pressure_.insert({pending, host});
}

void HostIndex::RegisterFunction(int fn, const std::vector<size_t>& replica_hosts) {
  assert(fn >= 0);
  assert(static_cast<size_t>(fn) == fns_.size());  // Cluster-fn order.
  fns_.emplace_back();
  FnIndex& idx = fns_.back();
  idx.hosts = replica_hosts;
  idx.admits.assign(replica_hosts.size(), false);
  idx.dirty.assign(replica_hosts.size(), false);
  for (size_t replica = 0; replica < replica_hosts.size(); ++replica) {
    const size_t host = replica_hosts[replica];
    assert(host < nr_hosts_);
    idx.by_committed[rows_[host].committed].push_back(replica);  // Ascending.
    if (rows_[host].draining) {
      ++idx.draining_replicas;
    }
    host_fns_[host].push_back({static_cast<size_t>(fn), replica});
    MarkReplica(idx, replica);
  }
  ++stats_.functions;
  stats_.max_fn_replicas = std::max(stats_.max_fn_replicas, replica_hosts.size());
}

void HostIndex::MarkAdmitDirty(size_t host, int local_fn) {
  assert(host < nr_hosts_);
  const auto& memberships = host_fns_[host];
  if (local_fn < 0) {
    for (const auto& [fn, replica] : memberships) {
      MarkReplica(fns_[fn], replica);
    }
  } else if (static_cast<size_t>(local_fn) < memberships.size()) {
    const auto& [fn, replica] = memberships[static_cast<size_t>(local_fn)];
    MarkReplica(fns_[fn], replica);
  }
}

void HostIndex::MarkFunctionAdmitDirty(int fn) {
  assert(static_cast<size_t>(fn) < fns_.size());
  FnIndex& idx = fns_[static_cast<size_t>(fn)];
  for (size_t replica = 0; replica < idx.hosts.size(); ++replica) {
    MarkReplica(idx, replica);
  }
}

void HostIndex::MarkReplica(FnIndex& idx, size_t replica) {
  if (!idx.dirty[replica]) {
    idx.dirty[replica] = true;
    idx.dirty_list.push_back(replica);
  }
}

void HostIndex::SetAdmits(FnIndex& idx, size_t replica, bool admits) {
  if (idx.admits[replica] == admits) {
    return;
  }
  idx.admits[replica] = admits;
  const std::pair<uint64_t, size_t> key{rows_[idx.hosts[replica]].committed, replica};
  if (admits) {
    idx.admitting.insert(key);
  } else {
    idx.admitting.erase(key);
  }
}

bool HostIndex::Eligible(const FnIndex& idx, size_t replica) const {
  // The scan treats every replica as eligible when ALL of them drain.
  return idx.draining_replicas == idx.hosts.size() ||
         !rows_[idx.hosts[replica]].draining;
}

HostIndex::HostRow HostIndex::row(size_t host) const {
  assert(host < nr_hosts_);
  return rows_[host];
}

std::vector<HostIndex::Candidate> HostIndex::CandidatesByAvailable(
    uint64_t need) const {
  std::vector<Candidate> out;
  for (auto it = by_available_.lower_bound({need, 0}); it != by_available_.end();
       ++it) {
    const size_t host = it->second;
    if (rows_[host].draining) {
      continue;
    }
    out.push_back({host, rows_[host].committed, it->first});
  }
  // The scan visits hosts in ascending index; restore that order so every
  // downstream stable_sort and cursor computation sees the same sequence.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) { return a.host < b.host; });
  return out;
}

int HostIndex::FirstAdmitting(int fn) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[static_cast<size_t>(fn)];
  assert(idx.dirty_list.empty() && "RefreshAdmission must precede the read");
  if (idx.admitting.empty()) {
    return -1;
  }
  // The highest committed value's group, lowest replica inside it.
  const uint64_t top = std::prev(idx.admitting.end())->first;
  return static_cast<int>(idx.admitting.lower_bound({top, 0})->second);
}

int HostIndex::FirstAdmittingByCommittedDesc(
    int fn, const std::function<bool(size_t)>& can_admit) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const auto& groups = fns_[static_cast<size_t>(fn)].by_committed;
  // Committed groups from the top down; replicas ascending inside each.
  for (auto group = groups.rbegin(); group != groups.rend(); ++group) {
    for (const size_t replica : group->second) {
      if (can_admit(replica)) {
        return static_cast<int>(replica);
      }
    }
  }
  return -1;
}

const std::vector<size_t>& HostIndex::LeastEligibleGroup(const FnIndex& idx) const {
  assert(!idx.by_committed.empty());
  if (idx.draining_replicas == 0 || idx.draining_replicas == idx.hosts.size()) {
    return idx.by_committed.begin()->second;  // Every replica eligible.
  }
  // First group with an eligible member == the scan's min.
  for (const auto& [committed, members] : idx.by_committed) {
    (void)committed;
    if (std::any_of(members.begin(), members.end(),
                    [&](size_t r) { return Eligible(idx, r); })) {
      return members;
    }
  }
  assert(false && "LeastEligibleGroup: no eligible replica");
  return idx.by_committed.begin()->second;
}

size_t HostIndex::LeastCommittedCount(int fn) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[static_cast<size_t>(fn)];
  const std::vector<size_t>& group = LeastEligibleGroup(idx);
  if (idx.draining_replicas == 0) {
    return group.size();
  }
  return static_cast<size_t>(std::count_if(
      group.begin(), group.end(), [&](size_t r) { return Eligible(idx, r); }));
}

size_t HostIndex::LeastCommittedAt(int fn, size_t k) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[static_cast<size_t>(fn)];
  const std::vector<size_t>& group = LeastEligibleGroup(idx);
  if (idx.draining_replicas == 0) {
    return group[k];
  }
  for (const size_t replica : group) {
    if (Eligible(idx, replica) && k-- == 0) {
      return replica;
    }
  }
  assert(false && "LeastCommittedAt: k out of range");
  return 0;
}

size_t HostIndex::EligibleCount(int fn) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  return fns_[fn].hosts.size() - fns_[fn].draining_replicas;
}

size_t HostIndex::EligibleAt(int fn, size_t k) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[fn];
  if (idx.draining_replicas == 0) {
    return k;  // Every replica eligible: identity mapping, O(1).
  }
  for (size_t replica = 0; replica < idx.hosts.size(); ++replica) {
    if (rows_[idx.hosts[replica]].draining) {
      continue;
    }
    if (k == 0) {
      return replica;
    }
    --k;
  }
  assert(false && "EligibleAt: k out of range");
  return 0;
}

int HostIndex::MostPressured(size_t min_pending) const {
  for (const auto& [pending, host] : by_pressure_) {
    if (rows_[host].draining) {
      continue;
    }
    // First non-draining entry has the max pending (ties lowest host);
    // the scan returns -1 when even the max misses min_pending.
    return pending >= min_pending ? static_cast<int>(host) : -1;
  }
  return -1;
}

}  // namespace squeezy
