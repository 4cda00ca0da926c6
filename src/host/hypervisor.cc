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
  s.exits += extents;
  s.exit_time += latency;
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
  s.exits += 1;
  s.exit_time += latency;
  assert(s.populated_bytes >= populated_bytes);
  s.populated_bytes -= populated_bytes;
  host_->Unpopulate(populated_bytes, now);
  ChargeHostThread(vm, now, latency);
  return latency;
}

DurationNs Hypervisor::BalloonRelease(VmId vm, uint64_t pages, TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const uint64_t bytes = PagesToBytes(pages);
  const DurationNs latency = cost_->balloon_exit_page * static_cast<int64_t>(pages);
  s.exits += pages / std::max<uint64_t>(1, cost_->balloon_batch_pages);
  s.exit_time += latency;
  assert(s.populated_bytes >= bytes);
  s.populated_bytes -= bytes;
  host_->Unpopulate(bytes, now);
  ChargeHostThread(vm, now, latency);
  return latency;
}

DurationNs Hypervisor::MadviseRelease(VmId vm, uint64_t populated_bytes, TimeNs now) {
  VmStats& s = vms_[static_cast<size_t>(vm)];
  const DurationNs latency = cost_->vm_exit;
  s.exits += 1;
  s.exit_time += latency;
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
