#include "src/policy/harvest_driver.h"

#include "src/host/host_memory.h"
#include "src/sim/cost_model.h"

namespace squeezy {

uint64_t HarvestDriver::HotplugRegionBytes(const DriverSizing& s) const {
  // Flat region plus room for the pre-plugged slack buffers.
  return VirtioMemDriver::HotplugRegionBytes(s) +
         config_.harvest_buffer_units * s.plug_unit;
}

void HarvestDriver::OnVmBoot(int fn, uint64_t hotplug_region, uint64_t deps_region) {
  buffer_units_.resize(static_cast<size_t>(fn) + 1, 0);
  VirtioMemDriver::OnVmBoot(fn, hotplug_region, deps_region);
}

void HarvestDriver::Acquire(int fn, std::function<void(DurationNs)> ready) {
  uint32_t& buffered = buffer_units_[static_cast<size_t>(fn)];
  if (buffered > 0) {
    // Serve from the pre-plugged slack buffer: near-instant, the whole
    // point of the HarvestVM buffering optimization.
    --buffered;
    host_->NoteReusableChanged(fn);
    GrantFast(std::move(ready));
    return;
  }
  AcquireDynamic(fn, std::move(ready), 2);
}

void HarvestDriver::Release(int fn) {
  uint32_t& buffered = buffer_units_[static_cast<size_t>(fn)];
  if (!host_->draining() && host_->PendingEmpty() &&
      buffered < config_.harvest_buffer_units) {
    // Keep the memory plugged as slack for the next spike (drained by
    // the pressure tick when the host runs low).
    ++buffered;
    host_->NoteReusableChanged(fn);
    return;
  }
  host_->StartUnplug(fn);
}

uint64_t HarvestDriver::ReusablePlugged(int fn) const {
  return VirtioMemDriver::ReusablePlugged(fn) +
         static_cast<uint64_t>(buffer_units_[static_cast<size_t>(fn)]) *
             host_->plug_unit(fn);
}

void HarvestDriver::PressureTick() {
  host_->TryServePending();
  if (!host_->PendingEmpty()) {
    // Proactive over-reclamation (HarvestVM): make room for 2x the
    // starved demand.
    host_->MakeRoom(host_->PendingPlugBytes() * 2);
  }
  const HostMemory& mem = host_->memory();
  const double free_frac =
      static_cast<double>(mem.available()) / static_cast<double>(mem.capacity());
  if (free_frac < config_.harvest_low_memory_frac) {
    // Background proactive reclaim: drop the slack buffers first, then
    // idle instances.
    DrainBuffers();
    host_->MakeRoom(kMemoryBlockBytes * 8);
  }
}

uint64_t HarvestDriver::DrainBuffers() {
  uint64_t expected = 0;
  for (size_t fn = 0; fn < buffer_units_.size(); ++fn) {
    while (buffer_units_[fn] > 0) {
      --buffer_units_[fn];
      host_->NoteReusableChanged(static_cast<int>(fn));
      expected += host_->plug_unit(static_cast<int>(fn));
      host_->StartUnplug(static_cast<int>(fn));
    }
  }
  return expected;
}

uint64_t HarvestDriver::ProactiveReclaim(uint64_t bytes) {
  // Slack buffers are the cheapest memory to give back: no instance dies.
  const uint64_t from_buffers = DrainBuffers();
  if (from_buffers >= bytes) {
    return from_buffers;
  }
  return from_buffers + host_->MakeRoom(bytes - from_buffers);
}

void HarvestDriver::OnDrain() {
  DrainBuffers();
  host_->ReapAllIdle();
}

}  // namespace squeezy
