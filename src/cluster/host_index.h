// Incrementally-maintained placement candidate indexes (the scale-out
// decision plane).
//
// Before this subsystem every routing decision re-scanned a HostSnapshot
// of every candidate host — O(invocations x hosts) total, measured as the
// dominant wall cost of the fig12 sharded sweep beyond 256 hosts.  The
// HostIndex keeps the quantities those scans ranked on in ordered
// structures that hosts update as their state changes, so the deciders
// (`ClusterScheduler::PlaceFunction`/`Route`, `MigrationPlanner::
// RankDestinations`/`MostPressuredHost`) pick from a tree in O(log hosts)
// instead of materializing snapshots:
//   * per-host rows      — cached (committed, capacity, pending, draining),
//     refreshed through HostStateListener deltas (host_control.h) fired at
//     the books' choke points (HostMemory commit observer, pending queue,
//     drain flag);
//   * by_available_      — (available, host) ascending: PlaceFunction
//     gathers every host that fits a boot footprint from one lower_bound;
//   * by_pressure_       — (pending desc, host asc): MostPressuredHost is
//     the first non-draining entry;
//   * per-function trees — (committed, replica) ascending over the
//     function's replica hosts: bin-pack routing walks committed groups
//     descending (ties ascending replica index — the scan's first-match
//     semantics), least-committed routing takes the first eligible group.
//
// Exactness contract: every query reproduces the retained full-scan
// reference BIT-IDENTICALLY — same candidate sets, same tie-breaks
// (lowest host / replica index), same all-draining fallbacks.  The cached
// values are maintained, never recomputed, so the contract holds only if
// every mutation of committed/pending/draining notifies; the
// IndexedVsScanPlacementFuzzTest replays churn through both paths and
// asserts identical decision streams, and the fig12 gate compares whole
// sweeps.
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
#include <set>
#include <utility>
#include <vector>


namespace squeezy {

// Bench-visible counters.  Deterministic: update counts are a pure
// function of the simulated event stream (identical at any thread count
// and under either placement_impl, since the index is maintained in both
// modes), so they belong in BENCH_*.json.
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
  // placement — before any routing decision for `fn`.
  void RegisterFunction(int fn, const std::vector<size_t>& replica_hosts);

  // --- Queries (each reproduces its scan counterpart bit-identically) -------------
  HostRow row(size_t host) const;

  // Non-draining hosts with available >= need, ascending host index, each
  // carrying the cached values the placement comparators sort on
  // (PlaceFunction's candidate filter).
  std::vector<Candidate> CandidatesByAvailable(uint64_t need) const;

  // Bin-pack routing: first replica of `fn` in (committed descending,
  // replica index ascending) order for which `can_admit(replica)` holds;
  // -1 when none admits.  Admission checks are const (they leave the
  // index untouched), so the probe order alone determines the pick,
  // exactly like the scan's max-committed first-match loop.
  int FirstAdmittingByCommittedDesc(int fn,
                                    const std::function<bool(size_t)>& can_admit) const;

  // Least-committed routing: the scan's tied set — replicas of the least
  // committed eligible group (non-draining, unless every replica drains),
  // ascending replica index.  Never empty for a registered non-empty fn.
  std::vector<size_t> LeastCommittedTied(int fn) const;

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
  // One function's replica tree: (committed, replica index) ascending —
  // natural pair order gives committed groups ascending with replica
  // order inside each group, walked forward for least-committed and
  // backward (group-reversed) for bin-pack.
  struct FnIndex {
    std::vector<size_t> hosts;  // replica index -> host.
    std::set<std::pair<uint64_t, size_t>> by_committed;
    size_t draining_replicas = 0;
  };

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
  // every tree it appears in.
  std::vector<std::vector<std::pair<size_t, size_t>>> host_fns_;
  HostIndexStats stats_;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_HOST_INDEX_H_
