// Hypervisor (VMM) model: VM registry, VM-exit cost charging, EPT
// population via nested page faults, and madvise-based release.
//
// The real system uses Cloud Hypervisor v38 on KVM; here the hypervisor is
// a cost- and accounting-model.  Guest components call in on the events a
// real VMM would see (first-touch faults, virtio kicks, unplug acks).
#ifndef SQUEEZY_HOST_HYPERVISOR_H_
#define SQUEEZY_HOST_HYPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/host/host_memory.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/time.h"

namespace squeezy {

using VmId = int32_t;

struct VmStats {
  std::string name;
  std::string vmm_thread;  // CPU-accountant thread name, "vmm/<name>".
  uint32_t vcpus = 0;
  uint64_t nested_faults = 0;
  uint64_t populated_bytes = 0;
};

class Hypervisor {
 public:
  // `cpu` (optional, not owned) records host-side thread busy time under
  // the thread name "vmm/<vm-name>".
  Hypervisor(HostMemory* host, const CostModel* cost, CpuAccountant* cpu = nullptr);

  VmId RegisterVm(const std::string& name, uint32_t vcpus);

  // First guest touch of host-unpopulated memory: `extents` exits back
  // `bytes` of guest memory (the guest fault path coalesces touches into
  // host-THP granules).  Returns the fault-side latency charged to the
  // guest vCPU.
  DurationNs NestedFaultPopulate(VmId vm, uint64_t extents, uint64_t bytes, TimeNs now);

  // `faults` single-extent nested faults taken back to back at `now` (one
  // pass of the guest fault handler), backing `bytes` in total.  Charges
  // exactly what `faults` NestedFaultPopulate(vm, 1, ..., now) calls would
  // — each exit its own CPU charge starting at `now`, so none spills into
  // a later window — and returns their summed latency.
  DurationNs NestedFaultPopulateBatch(VmId vm, uint64_t faults, uint64_t bytes,
                                      TimeNs now);

  // Host acknowledgement of one unplugged 128 MiB block: VM exit +
  // madvise(MADV_DONTNEED) of the populated span.
  DurationNs AckUnplugBlock(VmId vm, uint64_t populated_bytes, TimeNs now);

  // Host release of one balloon inflation's page reports, counted:
  // reports[k] is how many reports found k of their pages host-populated.
  // Books exactly what one release per report would: the released bytes
  // (one Unpopulate for the total; none when there was no report), a
  // balloon_exit_page * k charge per report with k > 0 (one counted charge
  // per distinct k), and one zero-length marker if any report released
  // nothing.  Returns the summed latency, balloon_exit_page per released
  // page; the exits of unpopulated pages are the balloon device's to add.
  DurationNs BalloonRelease(VmId vm, const std::vector<uint64_t>& reports, TimeNs now);

  // Host release of an arbitrary populated span in one madvise call
  // (dropping an evicted shared dependency image): VM exit + MADV_DONTNEED.
  DurationNs MadviseRelease(VmId vm, uint64_t populated_bytes, TimeNs now);

  // VM teardown: releases all populated memory (1:1 model scale-down).
  void ReleaseAllPopulated(VmId vm, TimeNs now);

  const VmStats& stats(VmId vm) const { return vms_[static_cast<size_t>(vm)]; }
  HostMemory* host() { return host_; }
  const CostModel& cost() const { return *cost_; }

 private:
  // Books the exits and host population of `extents` nested faults;
  // returns their latency.
  DurationNs RecordNestedFaults(VmId vm, uint64_t extents, uint64_t bytes, TimeNs now);
  // `count` back-to-back charges of `busy` on the VM's VMM thread.
  void ChargeHostThread(VmId vm, TimeNs now, DurationNs busy, int64_t count = 1);

  HostMemory* host_;
  const CostModel* cost_;
  CpuAccountant* cpu_;
  std::vector<VmStats> vms_;
};

}  // namespace squeezy

#endif  // SQUEEZY_HOST_HYPERVISOR_H_
