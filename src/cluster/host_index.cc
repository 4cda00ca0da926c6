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
      fns_[fn].by_committed.erase({row.committed, replica});
    }
  }
  if (row.draining != draining) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].draining_replicas += draining ? 1 : -1;
    }
  }
  const uint64_t old_committed = row.committed;
  ApplyRow(host, committed, pending, draining);
  if (old_committed != committed) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].by_committed.insert({committed, replica});
    }
  }
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
  for (size_t replica = 0; replica < replica_hosts.size(); ++replica) {
    const size_t host = replica_hosts[replica];
    assert(host < nr_hosts_);
    idx.by_committed.insert({rows_[host].committed, replica});
    if (rows_[host].draining) {
      ++idx.draining_replicas;
    }
    host_fns_[host].push_back({static_cast<size_t>(fn), replica});
  }
  ++stats_.functions;
  stats_.max_fn_replicas = std::max(stats_.max_fn_replicas, replica_hosts.size());
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

int HostIndex::FirstAdmittingByCommittedDesc(
    int fn, const std::function<bool(size_t)>& can_admit) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const auto& tree = fns_[fn].by_committed;
  // Committed groups from the top down; replicas ascending inside each.
  auto group_end = tree.end();
  while (group_end != tree.begin()) {
    const auto group = tree.lower_bound({std::prev(group_end)->first, 0});
    for (auto it = group; it != group_end; ++it) {
      if (can_admit(it->second)) {
        return static_cast<int>(it->second);
      }
    }
    group_end = group;
  }
  return -1;
}

std::vector<size_t> HostIndex::LeastCommittedTied(int fn) const {
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[fn];
  // The scan treats every replica as eligible when ALL of them drain.
  const bool all_draining = idx.draining_replicas == idx.hosts.size();
  std::vector<size_t> tied;
  auto it = idx.by_committed.begin();
  while (it != idx.by_committed.end()) {
    const uint64_t committed = it->first;
    tied.clear();
    for (; it != idx.by_committed.end() && it->first == committed; ++it) {
      const size_t replica = it->second;
      if (all_draining || !rows_[idx.hosts[replica]].draining) {
        tied.push_back(replica);  // Ascending replica index (pair order).
      }
    }
    if (!tied.empty()) {
      return tied;  // First group with an eligible member == the scan's min.
    }
  }
  return tied;
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
