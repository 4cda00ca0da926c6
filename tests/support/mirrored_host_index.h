// A HostIndex kept current from a set of HostControls, for tests that
// build a ClusterScheduler or MigrationPlanner directly rather than
// through a Cluster (which owns and feeds its own index).  It seeds one
// row per host from Snapshot(), then subscribes to each host's state
// deltas and admission marks, exactly as Cluster does.
#ifndef SQUEEZY_TESTS_SUPPORT_MIRRORED_HOST_INDEX_H_
#define SQUEEZY_TESTS_SUPPORT_MIRRORED_HOST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cluster/host_index.h"
#include "src/faas/host_control.h"

namespace squeezy {

class MirroredHostIndex : private HostStateListener {
 public:
  explicit MirroredHostIndex(const std::vector<HostControl*>& hosts) : index_(hosts.size()) {
    for (size_t h = 0; h < hosts.size(); ++h) {
      const HostSnapshot s = hosts[h]->Snapshot();
      index_.InitHost(h, s.committed, s.capacity, s.pending_scaleups, s.draining);
      hosts[h]->AttachStateListener(this, h);
    }
  }

  HostIndex& index() { return index_; }

 private:
  void OnHostState(size_t host, uint64_t committed, size_t pending_scaleups,
                   bool draining) override {
    index_.Update(host, committed, pending_scaleups, draining);
  }
  void OnAdmitInputs(size_t host, int local_fn) override {
    index_.MarkAdmitDirty(host, local_fn);
  }

  HostIndex index_;
};

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_SUPPORT_MIRRORED_HOST_INDEX_H_
