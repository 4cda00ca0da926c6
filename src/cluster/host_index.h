// Incrementally-maintained placement candidate indexes (the scale-out
// decision plane).
//
// Before this subsystem every routing decision re-scanned a HostSnapshot
// of every candidate host — O(invocations x hosts) total, measured as the
// dominant wall cost of the fig12 sharded sweep beyond 256 hosts.  The
// HostIndex keeps the quantities those scans ranked on in ordered
// structures that hosts update as their state changes, so the deciders
// (`ClusterScheduler::PlaceFunction`/`Route`, `MigrationPlanner::
// RankDestinations`/`MostPressuredHost`) pick from a tree instead of
// materializing snapshots:
//   * per-host rows      — cached (committed, capacity, pending, draining),
//     refreshed through HostStateListener deltas (host_control.h) fired at
//     the books' choke points (HostMemory commit observer, pending queue,
//     drain flag);
//   * by_available_      — (available, host) ascending: PlaceFunction
//     gathers every host that fits a boot footprint from one lower_bound;
//   * by_pressure_       — (pending desc, host asc): MostPressuredHost is
//     the first non-draining entry;
//   * per-function committed groups — committed value -> the function's
//     replicas at that value, ascending: least-committed routing reads the
//     lowest group in place (count plus k-th member);
//   * per-function admission sets — (committed, replica) of the replicas
//     whose host admits one more instance right now: bin-pack routing
//     takes the first replica of the highest committed group, O(log
//     replicas).  Admission is not a host-row quantity, so the set is kept
//     exact lazily: hosts mark (host, local fn) pairs whose admission
//     inputs changed (HostStateListener::OnAdmitInputs; a committed or
//     draining delta marks the whole host), and the scheduler re-probes
//     only the marked replicas of the function it is about to route
//     (RefreshAdmission) before reading the set.
//
// Exactness contract: every query reproduces the full snapshot scan it
// replaced BIT-IDENTICALLY — same candidate sets, same tie-breaks (lowest
// host / replica index), same all-draining fallbacks.  That scan is now a
// test oracle (tests/oracles/scan_placement.h).  The cached values are
// maintained, never recomputed, so the contract holds only if every
// mutation of committed/pending/draining notifies and every change to an
// admission input marks; IndexedVsScanPlacementFuzzTest and
// fig12_regression_test replay churn through production and the oracle
// and assert identical decision streams, and builds with asserts re-run
// the probe walk (FirstAdmittingByCommittedDesc) on every bin-pack
// decision.
//
// Determinism: every ordered structure is keyed by absolute values
// (bytes, counts, stable indices) — never pointers or hashes — so the
// index contents are a pure function of the host states regardless of
// update arrival order (tools/determinism_lint.py rejects unordered or
// pointer-keyed containers in index-named state).
#ifndef SQUEEZY_CLUSTER_HOST_INDEX_H_
#define SQUEEZY_CLUSTER_HOST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>


namespace squeezy {

// Bench-visible counters.  Deterministic: update counts are a pure
// function of the simulated event stream, so they belong in
// BENCH_*.json.
struct HostIndexStats {
  uint64_t updates = 0;        // Delta notifications absorbed.
  uint64_t functions = 0;      // Per-function trees registered.
  size_t max_fn_replicas = 0;  // Widest per-function tree (its depth is
                               // ceil(log2) of this).
};

class HostIndex {
 public:
  explicit HostIndex(size_t nr_hosts);

  HostIndex(const HostIndex&) = delete;
  HostIndex& operator=(const HostIndex&) = delete;

  // Cached mirror of one host's decision-relevant state.
  struct HostRow {
    uint64_t committed = 0;
    uint64_t capacity = 0;
    size_t pending = 0;
    bool draining = false;

    uint64_t available() const { return capacity - committed; }
  };

  // One PlaceFunction candidate: host plus the cached quantities the
  // placement comparators rank on.
  struct Candidate {
    size_t host = 0;
    uint64_t committed = 0;
    uint64_t available = 0;
  };

  // --- Maintenance ---------------------------------------------------------------
  // Seeds host's row before any delta can arrive (cluster construction).
  void InitHost(size_t host, uint64_t committed, uint64_t capacity, size_t pending,
                bool draining);
  // Absorbs one delta notification (HostStateListener).  Any subset of
  // the fields may have changed; capacity is fixed at InitHost.
  void Update(size_t host, uint64_t committed, size_t pending, bool draining);
  // Registers cluster function `fn`'s replica hosts (replica order).
  // Calls must happen in cluster-function-index order, right after
  // placement — before any routing decision for `fn`.  A host's local
  // function indices are its registrations in this order (local fn i is
  // the i-th registered function with a replica there).  Every new
  // replica starts marked, so its first decision probes it.
  void RegisterFunction(int fn, const std::vector<size_t>& replica_hosts);
  // Admission marks: local function `local_fn` of `host` (-1: every
  // function there) may have changed whether it admits.  Marks for a
  // local function not registered yet are dropped (registration marks).
  void MarkAdmitDirty(size_t host, int local_fn);
  // Marks every replica of cluster function `fn` (a cluster-wide input of
  // its admission changed: its snapshot recording).
  void MarkFunctionAdmitDirty(int fn);
  // Re-evaluates `can_admit(replica)` for fn's marked replicas only and
  // clears their marks; returns the number of probes made.  After it,
  // FirstAdmitting(fn) is exact.
  template <typename Probe>
  size_t RefreshAdmission(int fn, const Probe& can_admit) {
    FnIndex& idx = fns_[static_cast<size_t>(fn)];
    const size_t probes = idx.dirty_list.size();
    for (const size_t replica : idx.dirty_list) {
      idx.dirty[replica] = false;
      SetAdmits(idx, replica, can_admit(replica));
    }
    idx.dirty_list.clear();
    return probes;
  }

  // --- Queries (each reproduces its oracle counterpart bit-identically) -----------
  HostRow row(size_t host) const;

  // Non-draining hosts with available >= need, ascending host index, each
  // carrying the cached values the placement comparators sort on
  // (PlaceFunction's candidate filter).
  std::vector<Candidate> CandidatesByAvailable(uint64_t need) const;

  // Bin-pack routing: the first admitting replica of `fn` in (committed
  // descending, replica index ascending) order — the scan's max-committed
  // first-match — or -1 when none admits.  O(log replicas); requires a
  // RefreshAdmission(fn, ...) since the last mark.
  int FirstAdmitting(int fn) const;
  // The same pick by the probe walk the admission set replaced: calls
  // `can_admit` on fn's replicas in that order until the first hit.
  // Builds with asserts cross-check every FirstAdmitting against it.
  int FirstAdmittingByCommittedDesc(int fn,
                                    const std::function<bool(size_t)>& can_admit) const;

  // Least-committed routing: the scan's tied set is the least committed
  // eligible group (non-draining, unless every replica drains), ascending
  // replica index.  LeastCommittedCount is its size (> 0 for a registered
  // non-empty fn) and LeastCommittedAt(fn, k) its k-th member.  O(log
  // replicas) when no replica of fn drains or all do; a filtered walk
  // otherwise.
  size_t LeastCommittedCount(int fn) const;
  size_t LeastCommittedAt(int fn, size_t k) const;

  // Round-robin routing: non-draining replica count of `fn`, and the
  // k-th non-draining replica (k < EligibleCount(fn)).
  size_t EligibleCount(int fn) const;
  size_t EligibleAt(int fn, size_t k) const;

  // The non-draining host with the most pending scale-ups (at least
  // `min_pending`), ties to the lowest host index; -1 when none
  // qualifies (MostPressuredHost's max-scan).
  int MostPressured(size_t min_pending) const;

  size_t host_count() const { return nr_hosts_; }
  HostIndexStats stats() const { return stats_; }

 private:
  // One function's replica indexes.
  struct FnIndex {
    std::vector<size_t> hosts;  // replica index -> host.
    // committed -> the replicas at that value, ascending index: groups
    // ascending for least-committed, descending for the bin-pack walk.
    std::map<uint64_t, std::vector<size_t>> by_committed;
    // (committed, replica) of every replica whose host admits right now
    // (as of the last probe; marked replicas may be stale).
    std::set<std::pair<uint64_t, size_t>> admitting;
    std::vector<bool> admits;  // replica -> member of `admitting`.
    std::vector<bool> dirty;   // replica -> member of `dirty_list`.
    std::vector<size_t> dirty_list;
    size_t draining_replicas = 0;
  };

  void MarkReplica(FnIndex& idx, size_t replica);
  void SetAdmits(FnIndex& idx, size_t replica, bool admits);
  bool Eligible(const FnIndex& idx, size_t replica) const;
  // The least committed group of fn with an eligible member (the scan's
  // tied set before its eligibility filter).
  const std::vector<size_t>& LeastEligibleGroup(const FnIndex& idx) const;
  void ApplyRow(size_t host, uint64_t committed, size_t pending, bool draining);

  const size_t nr_hosts_;  // Set at construction, immutable after.
  std::vector<HostRow> rows_;
  // (available, host) ascending.
  std::set<std::pair<uint64_t, size_t>> by_available_;
  // (pending desc, host asc): begin() is the pressure-scan winner.
  struct PressureOrder {
    bool operator()(const std::pair<size_t, size_t>& a,
                    const std::pair<size_t, size_t>& b) const {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;
    }
  };
  std::set<std::pair<size_t, size_t>, PressureOrder> by_pressure_;
  std::vector<FnIndex> fns_;
  // host -> (fn, replica index) memberships, so one host delta updates
  // every tree it appears in.  Position = the host's local fn index.
  std::vector<std::vector<std::pair<size_t, size_t>>> host_fns_;
  HostIndexStats stats_;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_HOST_INDEX_H_
