#include "src/host/hypervisor.h"

#include <cassert>

namespace squeezy {

Hypervisor::Hypervisor(HostMemory* host, const CostModel* cost, CpuAccountant* cpu)
    : host_(host), cost_(cost), cpu_(cpu) {
  assert(host_ != nullptr && cost_ != nullptr);
}

VmId Hypervisor::RegisterVm(const std::string& name, uint32_t vcpus) {
  VmStats s;
  s.name = name;
  s.vcpus = vcpus;
  s.vmm_thread = "vmm/" + name;
  vms_.push_back(std::move(s));
  return static_cast<VmId>(vms_.size()) - 1;
}

void Hypervisor::ChargeHostThread(VmId vm, TimeNs now, DurationNs busy, int64_t count) {
  if (cpu_ != nullptr) {
    cpu_->AddBusy(vms_[static_cast<size_t>(vm)].vmm_thread, now, busy, count);
  }
}

DurationNs Hypervisor::RecordNestedFaults(VmId vm, uint64_t extents, uint64_t bytes,
                                          TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const DurationNs latency = cost_->nested_fault_exit * static_cast<int64_t>(extents);
  s.nested_faults += extents;
  s.populated_bytes += bytes;
  host_->Populate(bytes, now);
  return latency;
}

DurationNs Hypervisor::NestedFaultPopulate(VmId vm, uint64_t extents, uint64_t bytes,
                                           TimeNs now) {
  const DurationNs latency = RecordNestedFaults(vm, extents, bytes, now);
  ChargeHostThread(vm, now, latency);
  return latency;
}

DurationNs Hypervisor::NestedFaultPopulateBatch(VmId vm, uint64_t faults, uint64_t bytes,
                                                TimeNs now) {
  const DurationNs latency = RecordNestedFaults(vm, faults, bytes, now);
  ChargeHostThread(vm, now, cost_->nested_fault_exit, static_cast<int64_t>(faults));
  return latency;
}

DurationNs Hypervisor::AckUnplugBlock(VmId vm, uint64_t populated_bytes, TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const DurationNs latency = cost_->block_unplug_exit;
  assert(s.populated_bytes >= populated_bytes);
  s.populated_bytes -= populated_bytes;
  host_->Unpopulate(populated_bytes, now);
  ChargeHostThread(vm, now, latency);
  return latency;
}

DurationNs Hypervisor::BalloonRelease(VmId vm, const std::vector<uint64_t>& reports,
                                      TimeNs now) {
  uint64_t count = 0;
  uint64_t pages = 0;
  for (size_t k = 0; k < reports.size(); ++k) {
    count += reports[k];
    pages += k * reports[k];
  }
  if (count == 0) {
    return 0;
  }
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const uint64_t bytes = PagesToBytes(pages);
  assert(s.populated_bytes >= bytes);
  s.populated_bytes -= bytes;
  host_->Unpopulate(bytes, now);
  if (reports[0] > 0) {
    ChargeHostThread(vm, now, 0);
  }
  for (size_t k = 1; k < reports.size(); ++k) {
    if (reports[k] > 0) {
      ChargeHostThread(vm, now, cost_->balloon_exit_page * static_cast<int64_t>(k),
                       static_cast<int64_t>(reports[k]));
    }
  }
  return cost_->balloon_exit_page * static_cast<int64_t>(pages);
}

DurationNs Hypervisor::MadviseRelease(VmId vm, uint64_t populated_bytes, TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const DurationNs latency = cost_->vm_exit;
  assert(s.populated_bytes >= populated_bytes);
  s.populated_bytes -= populated_bytes;
  host_->Unpopulate(populated_bytes, now);
  ChargeHostThread(vm, now, latency);
  return latency;
}

void Hypervisor::ReleaseAllPopulated(VmId vm, TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  host_->Unpopulate(s.populated_bytes, now);
  s.populated_bytes = 0;
}

}  // namespace squeezy
