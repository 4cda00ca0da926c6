#include "src/guest/guest_kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace squeezy {

GuestKernel::GuestKernel(const GuestConfig& config, Hypervisor* hv, CpuAccountant* cpu)
    : config_(config), hv_(hv), cpu_(cpu), rng_(config.seed) {
  assert(hv_ != nullptr);
  assert(config_.base_memory % kMemoryBlockBytes == 0 && "base memory must be block-aligned");
  assert(config_.hotplug_region % kMemoryBlockBytes == 0 && "hotplug region must be block-aligned");

  vm_ = hv_->RegisterVm(config_.name, config_.vcpus);
  memmap_ = std::make_unique<MemMap>(config_.base_memory + config_.hotplug_region);

  Rng* shuffle = config_.shuffle_allocator ? &rng_ : nullptr;
  zones_.push_back(std::make_unique<Zone>(0, ZoneType::kNormal, "Normal", memmap_.get(), shuffle));
  normal_zone_ = zones_.back().get();
  zones_.push_back(
      std::make_unique<Zone>(1, ZoneType::kMovable, "Movable", memmap_.get(), shuffle));
  movable_zone_ = zones_.back().get();
  file_zone_ = movable_zone_;

  // Boot RAM comes online into ZONE_NORMAL without the hotplug pipeline.
  const uint32_t base_blocks = static_cast<uint32_t>(config_.base_memory / kMemoryBlockBytes);
  for (BlockIndex b = 0; b < base_blocks; ++b) {
    memmap_->InitBlock(b);
    normal_zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    memmap_->set_block_state(b, BlockState::kOnline);
  }
  hotplug_first_block_ = base_blocks;
  hotplug_nr_blocks_ = static_cast<uint32_t>(config_.hotplug_region / kMemoryBlockBytes);

  hotplug_ = std::make_unique<HotplugManager>(memmap_.get(), &hv_->cost(), hv_, vm_, this);

  VirtioMemConfig vcfg;
  vcfg.first_block = hotplug_first_block_;
  vcfg.nr_blocks = hotplug_nr_blocks_;
  vcfg.unplug_timeout = config_.unplug_timeout;
  vcfg.guest_thread = config_.name + "/virtio_mem-guest";
  vcfg.host_thread = config_.name + "/virtio_mem-host";
  virtio_ = std::make_unique<VirtioMemDevice>(vcfg, hotplug_.get(), this, cpu_);

  balloon_ = std::make_unique<BalloonDevice>(memmap_.get(), &hv_->cost(), hv_, vm_, cpu_,
                                             config_.name + "/balloon-guest",
                                             config_.name + "/balloon-host");

  // The kernel's own footprint: pinned, unmovable, host-backed at boot.
  const uint64_t kernel_bytes = std::min<uint64_t>(MiB(96), config_.base_memory / 4);
  uint64_t kernel_pages = BytesToPages(kernel_bytes);
  while (kernel_pages > 0) {
    const uint8_t order = static_cast<uint8_t>(
        std::min<uint64_t>(kMaxPageOrder, 63 - __builtin_clzll(kernel_pages)));
    const Pfn pfn = normal_zone_->Alloc(order, PageKind::kKernel, kNoOwner, 0);
    assert(pfn != kInvalidPfn);
    PopulateHostBacking(pfn, 1u << order, config_.boot_time);
    kernel_pages -= 1u << order;
  }
}

GuestKernel::~GuestKernel() = default;

Zone* GuestKernel::CreateZone(ZoneType type, const std::string& name) {
  const int16_t id = static_cast<int16_t>(zones_.size());
  zones_.push_back(std::make_unique<Zone>(id, type, name, memmap_.get(), nullptr));
  return zones_.back().get();
}

// --- Processes ----------------------------------------------------------------

Pid GuestKernel::CreateProcess() {
  const Pid pid = static_cast<Pid>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, kNoPid));
  ++live_processes_;
  return pid;
}

Pid GuestKernel::Fork(Pid parent_pid) {
  Process& parent = process(parent_pid);
  assert(parent.state() == ProcessState::kRunning);
  const Pid pid = static_cast<Pid>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, parent_pid));
  Process& child = *processes_.back();
  ++live_processes_;
  // The child joins the parent's Squeezy partition (paper §4.1) and shares
  // its file mappings.  Anonymous memory is not duplicated (we model a
  // fork+exec/CoW-light worker, the common container pattern).
  child.set_partition_id(parent.partition_id());
  child.set_anon_zone(parent.anon_zone());
  for (const int32_t f : parent.files()) {
    child.MapFile(f);
  }
  if (lifecycle_ != nullptr) {
    lifecycle_->OnFork(parent, child);
  }
  return pid;
}

bool GuestKernel::Alive(Pid pid) const {
  return processes_[static_cast<size_t>(pid)]->state() == ProcessState::kRunning;
}

void GuestKernel::Exit(Pid pid) {
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  proc.set_state(ProcessState::kExited);
  // Pop every folio first, in PopFolio order, then free them zone by zone:
  // zones share no lists or blocks, so the regrouping changes nothing.  A
  // zone whose allocated pages all belong to this process (a Squeezy
  // partition at its last user's exit) drains in one FreeAll.
  struct ExitingFolio {
    int16_t zone_id;
    Pfn head;
    uint32_t pages;
  };
  std::vector<ExitingFolio> folios;
  FolioRef folio;
  while (proc.PopFolio(&folio)) {
    folios.push_back({ZoneOf(folio.head).id(), folio.head, folio.pages()});
  }
  proc.ReleaseFolioTable();  // The exited process keeps no table memory.
  std::stable_sort(folios.begin(), folios.end(),
                   [](const ExitingFolio& a, const ExitingFolio& b) {
                     return a.zone_id < b.zone_id;
                   });
  std::vector<Pfn> heads;
  for (size_t i = 0; i < folios.size();) {
    Zone& zone = *zones_[static_cast<size_t>(folios[i].zone_id)];
    uint64_t pages = 0;
    heads.clear();
    for (; i < folios.size() && folios[i].zone_id == zone.id(); ++i) {
      heads.push_back(folios[i].head);
      pages += folios[i].pages;
    }
    if (pages == zone.allocated_pages()) {
      zone.FreeAll(heads.data(), heads.size());
    } else {
      for (const Pfn head : heads) {
        zone.Free(head);
      }
    }
  }
  assert(live_processes_ > 0);
  --live_processes_;
  if (lifecycle_ != nullptr) {
    lifecycle_->OnExit(proc);
  }
}

void GuestKernel::OomKill(Pid pid) {
  Exit(pid);
  process(pid).set_state(ProcessState::kOomKilled);
}

// --- Fault paths -----------------------------------------------------------------

Zone& GuestKernel::ZoneOf(Pfn pfn) const {
  // Zones hold whole blocks, and a block start always begins an extent.
  const int16_t zone_id = memmap_->record(MemMap::BlockStart(MemMap::BlockOf(pfn))).zone_id;
  assert(zone_id >= 0 && memmap_->page(pfn).zone_id == zone_id);
  return *zones_[static_cast<size_t>(zone_id)];
}

uint64_t GuestKernel::MarkHostBacking(Pfn head, uint32_t pages, uint64_t* new_pages) {
  const uint32_t granule_pages = static_cast<uint32_t>(cost().host_thp_bytes / kPageSize);
  if (granule_pages == 1) {
    // Every newly backed page is its own granule, so its own extent.
    const uint32_t added = memmap_->SetHostPopulated(head, pages);
    *new_pages += added;
    return added;
  }
  // Host THP backs the whole aligned granule on first touch.
  const Pfn start = head / granule_pages * granule_pages;
  const Pfn end = ((head + pages - 1) / granule_pages + 1) * granule_pages;
  uint64_t extents = 0;
  for (Pfn g = start; g < end; g += granule_pages) {
    const uint32_t added = memmap_->SetHostPopulated(g, granule_pages);
    *new_pages += added;
    extents += added > 0 ? 1 : 0;
  }
  return extents;
}

uint64_t GuestKernel::MarkHostBacking(const std::vector<PageRun>& runs, uint64_t* new_pages) {
  uint64_t extents = 0;
  for (const PageRun& run : runs) {
    extents += MarkHostBacking(run.start, run.pages, new_pages);
  }
  return extents;
}

void GuestKernel::ChargeNestedFaults(uint64_t faults, uint64_t pages, TimeNs now,
                                     TouchResult* result) {
  // Each first-touched granule is its own nested fault at `now`; the
  // hypervisor books them all in one call, charge for charge.
  if (faults > 0) {
    const DurationNs nested =
        hv_->NestedFaultPopulateBatch(vm_, faults, PagesToBytes(pages), now);
    result->nested += nested;
    result->latency += nested;
  }
}

uint32_t GuestKernel::FillFileRun(int32_t file_id, uint64_t idx, uint32_t n,
                                  bool normal_fallback, std::vector<PageRun>* runs) {
  // A zone that ran dry stays dry for the rest of a fill loop, so taking
  // the whole run from the file zone first and only then from ZONE_NORMAL
  // gives the pages a per-page fallback would.
  const auto slot = static_cast<uint32_t>(idx);
  runs->clear();
  uint32_t got = file_zone_->AllocPages(n, PageKind::kFile, file_id, slot, runs);
  if (got < n && normal_fallback && file_zone_ != normal_zone_) {
    got += normal_zone_->AllocPages(n - got, PageKind::kFile, file_id, slot + got, runs);
  }
  for (const PageRun& run : *runs) {
    page_cache_.InsertRun(file_id, idx, run.start, run.pages);
    idx += run.pages;
  }
  return got;
}

template <typename OnCached, typename OnFill>
bool GuestKernel::FillFile(int32_t file_id, uint64_t pages, bool normal_fallback,
                           OnCached&& on_cached, OnFill&& on_fill) {
  std::vector<PageRun> runs;
  for (uint64_t idx = 0; idx < pages;) {
    const PageCache::Span span = page_cache_.SpanAt(file_id, idx, pages);
    if (span.cached) {
      on_cached(span.pages);
      idx += span.pages;
      continue;
    }
    const auto run = static_cast<uint32_t>(std::min<uint64_t>(span.pages, kFillBatch));
    const uint32_t got = FillFileRun(file_id, idx, run, normal_fallback, &runs);
    on_fill(got, runs);
    if (got < run) {
      return false;
    }
    idx += run;
  }
  return true;
}

DurationNs GuestKernel::PopulateHostBacking(Pfn head, uint32_t pages, TimeNs now) {
  uint64_t new_pages = 0;
  const uint64_t extents = MarkHostBacking(head, pages, &new_pages);
  if (extents == 0) {
    return 0;
  }
  return hv_->NestedFaultPopulate(vm_, extents, PagesToBytes(new_pages), now);
}

Zone* GuestKernel::AnonZoneFor(const Process& proc) {
  return proc.anon_zone() != nullptr ? proc.anon_zone() : movable_zone_;
}

Pfn GuestKernel::AllocAnonFolio(Process& proc, uint64_t remaining, uint8_t* order) {
  Zone* primary = AnonZoneFor(proc);
  // Squeezy processes are confined to their partition; vanilla movable
  // allocations may spill into ZONE_NORMAL like Linux's zonelist fallback.
  Zone* fallback = (proc.anon_zone() == nullptr) ? normal_zone_ : nullptr;
  *order = static_cast<uint8_t>(
      std::min<uint64_t>(kThpOrder, 63 - __builtin_clzll(remaining)));
  for (;;) {
    const uint32_t slot = proc.ReserveSlot();
    Pfn head = primary->Alloc(*order, PageKind::kAnon, proc.pid(), slot);
    if (head == kInvalidPfn && fallback != nullptr) {
      head = fallback->Alloc(*order, PageKind::kAnon, proc.pid(), slot);
    }
    if (head != kInvalidPfn) {
      proc.CommitSlot(slot, head, *order);
      return head;
    }
    proc.AbandonSlot(slot);  // Nothing was allocated into it.
    if (*order == 0) {
      return kInvalidPfn;
    }
    --*order;  // Fall back to smaller folios under fragmentation.
  }
}

TouchResult GuestKernel::TouchAnon(Pid pid, uint64_t bytes, TimeNs now) {
  TouchResult result;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  uint64_t remaining = BytesToPages(bytes);
  while (remaining > 0) {
    uint8_t order = 0;
    const Pfn head = AllocAnonFolio(proc, remaining, &order);
    if (head == kInvalidPfn) {
      // Out of memory: the partition cap (or the VM) was exhausted.  The
      // OOM killer reaps the process (paper §4.1).
      OomKill(pid);
      result.oom = true;
      return result;
    }
    const uint32_t folio_pages = 1u << order;
    result.latency += cost().fault_folio_fixed + cost().fault_page * folio_pages;
    const DurationNs nested = PopulateHostBacking(head, folio_pages, now);
    result.nested += nested;
    result.latency += nested;
    result.bytes += PagesToBytes(folio_pages);
    remaining -= folio_pages;
  }
  return result;
}

TouchResult GuestKernel::TouchFile(Pid pid, int32_t file_id, uint64_t bytes, TimeNs now) {
  TouchResult result;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  const uint64_t pages = std::min<uint64_t>(BytesToPages(bytes), page_cache_.FilePages(file_id));

  // Fast path: fully cached prefix -> pure remap cost, no per-page walk.
  if (page_cache_.cached_pages(file_id) == page_cache_.FilePages(file_id)) {
    result.latency += cost().fault_page * static_cast<int64_t>(pages);
    result.bytes = PagesToBytes(pages);
    return result;
  }

  // Misses read from the file's backing source: cold backing-store IO by
  // default, or the per-file override (a peer host's resident image
  // served at wire speed) installed by the cluster dependency cache.
  const DurationNs backing_x1000 = page_cache_.backing_cost(file_id);
  const DurationNs miss_read =
      backing_x1000 < 0 ? cost().IoBytes(kPageSize)
                        : backing_x1000 * static_cast<DurationNs>(kPageSize) / 1000;
  const DurationNs miss_cost = cost().fault_folio_fixed + cost().fault_page + miss_read;
  const bool normal_fallback = proc.anon_zone() == nullptr;
  uint64_t faults = 0;
  uint64_t fault_pages = 0;
  result.oom = !FillFile(
      file_id, pages, normal_fallback,
      [&](uint64_t hits) {
        result.latency += cost().fault_page * static_cast<int64_t>(hits);
      },
      [&](uint32_t got, const std::vector<PageRun>& runs) {
        result.latency += miss_cost * static_cast<int64_t>(got);
        if (backing_x1000 < 0) {
          page_cache_.CountDiskRead(file_id, PagesToBytes(got));
        } else {
          page_cache_.CountRemoteRead(file_id, PagesToBytes(got));
        }
        faults += MarkHostBacking(runs, &fault_pages);
      });
  ChargeNestedFaults(faults, fault_pages, now, &result);
  if (result.oom) {
    OomKill(pid);
    return result;
  }
  result.bytes = PagesToBytes(pages);
  return result;
}

RestoreOutcome GuestKernel::RestoreWorkingSet(Pid pid, int32_t file_id,
                                              uint64_t file_pages, uint64_t anon_bytes,
                                              TimeNs now) {
  RestoreOutcome out;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  uint64_t populate_pages = 0;
  auto mark_populated = [this, &populate_pages](Pfn head, uint32_t pages) {
    populate_pages += memmap_->SetHostPopulated(head, pages);
  };

  // Recorded file pages: straight into the page cache, no backing read —
  // the snapshot file carries their contents.
  const uint64_t pages = std::min(file_pages, page_cache_.FilePages(file_id));
  // A short fill is a partial restore: the rest demand-faults as tail.
  FillFile(
      file_id, pages, proc.anon_zone() == nullptr, [](uint64_t) {},
      [&](uint32_t got, const std::vector<PageRun>& runs) {
        for (const PageRun& filled : runs) {
          mark_populated(filled.start, filled.pages);
        }
        out.file_bytes += PagesToBytes(got);
      });
  page_cache_.CountRestored(file_id, out.file_bytes);

  // Recorded heap: committed to the process under the same placement rules
  // as TouchAnon (partition confinement with vanilla normal-zone spill),
  // without the per-folio fault charges the demand path pays.
  uint64_t remaining = BytesToPages(anon_bytes);
  while (remaining > 0) {
    uint8_t order = 0;
    const Pfn head = AllocAnonFolio(proc, remaining, &order);
    if (head == kInvalidPfn) {
      OomKill(pid);
      out.oom = true;
      return out;
    }
    const uint32_t folio_pages = 1u << order;
    mark_populated(head, folio_pages);
    out.anon_bytes += PagesToBytes(folio_pages);
    remaining -= folio_pages;
  }

  // One bulk EPT populate for the whole prefetched span: the host backs
  // the restore with a single large read, not one exit per granule — the
  // entire point of prefetching over demand faulting.
  if (populate_pages > 0) {
    out.nested = hv_->NestedFaultPopulate(vm_, 1, PagesToBytes(populate_pages), now);
  }
  return out;
}

TouchResult GuestKernel::AdoptFileCache(int32_t file_id, TimeNs now, bool populate_host) {
  TouchResult result;
  const uint64_t pages = page_cache_.FilePages(file_id);
  uint64_t adopted = 0;
  uint64_t faults = 0;
  uint64_t fault_pages = 0;
  // A short fill is a partial adoption: the remainder faults in normally.
  FillFile(
      file_id, pages, /*normal_fallback=*/false, [](uint64_t) {},
      [&](uint32_t got, const std::vector<PageRun>& runs) {
        adopted += got;
        // Sibling sharing (populate_host == false) adds no host frames —
        // the host already backs the image for another VM;
        // migration-landed bytes need frames of their own.
        if (populate_host) {
          faults += MarkHostBacking(runs, &fault_pages);
        }
      });
  // Fault cost, no backing read.
  result.latency +=
      (cost().fault_folio_fixed + cost().fault_page) * static_cast<int64_t>(adopted);
  ChargeNestedFaults(faults, fault_pages, now, &result);
  result.bytes = PagesToBytes(adopted);
  page_cache_.CountAdopted(file_id, result.bytes);
  return result;
}

uint64_t GuestKernel::DropFileCache(int32_t file_id, TimeNs now) {
  uint64_t dropped_pages = 0;
  uint64_t unpop_pages = 0;
  // In page_idx order, as page-by-page frees would go.  An extent is split
  // where its pfns cross a block boundary, since the next block may belong
  // to another zone.
  for (const PageCache::Extent& e : page_cache_.RemoveAll(file_id)) {
    const Pfn extent_end = e.pfn + e.pages;
    for (Pfn pfn = e.pfn; pfn < extent_end;) {
      const Pfn end = std::min(extent_end, MemMap::BlockStart(MemMap::BlockOf(pfn) + 1));
      unpop_pages += memmap_->ClearHostPopulated(pfn, end - pfn);
      ZoneOf(pfn).Free(pfn, end - pfn);
      dropped_pages += end - pfn;
      pfn = end;
    }
  }
  if (unpop_pages > 0) {
    hv_->MadviseRelease(vm_, PagesToBytes(unpop_pages), now);
  }
  return PagesToBytes(dropped_pages);
}

uint64_t GuestKernel::FreeAnon(Pid pid, uint64_t bytes) {
  Process& proc = process(pid);
  uint64_t freed = 0;
  FolioRef folio;
  while (freed < bytes && proc.PopFolio(&folio)) {
    ZoneOf(folio.head).Free(folio.head);
    freed += PagesToBytes(folio.pages());
  }
  return freed;
}

int32_t GuestKernel::CreateFile(const std::string& name, uint64_t size_bytes) {
  return page_cache_.RegisterFile(name, size_bytes);
}

// --- Memory elasticity ---------------------------------------------------------

PlugOutcome GuestKernel::PlugMemory(uint64_t bytes, TimeNs now) {
  return virtio_->Plug(bytes, now);
}

UnplugOutcome GuestKernel::UnplugMemory(uint64_t bytes, TimeNs now) {
  return virtio_->Unplug(bytes, now);
}

BalloonOutcome GuestKernel::BalloonReclaim(uint64_t bytes, TimeNs now) {
  return balloon_->Inflate(bytes, movable_zone_, now);
}

void GuestKernel::WarmAllHostBacking(TimeNs now) {
  uint64_t new_pages = 0;
  const MemMap& view = *memmap_;
  for (BlockIndex b = 0; b < memmap_->block_count(); ++b) {
    // Blocks are added and removed whole: all of a block's pages are holes
    // (no backing to warm) or none are.
    const Pfn start = MemMap::BlockStart(b);
    if (view.record(start).state != PageState::kHole) {
      new_pages += memmap_->SetHostPopulated(start, kPagesPerBlock);
    }
  }
  if (new_pages > 0) {
    hv_->NestedFaultPopulate(vm_, 0, PagesToBytes(new_pages), now);
  }
}

// --- Accounting -------------------------------------------------------------------

uint64_t GuestKernel::allocated_bytes() const {
  uint64_t pages = 0;
  for (const auto& z : zones_) {
    pages += z->allocated_pages();
  }
  return PagesToBytes(pages);
}

uint64_t GuestKernel::online_bytes() const {
  uint64_t pages = 0;
  for (const auto& z : zones_) {
    pages += z->managed_pages();
  }
  return PagesToBytes(pages);
}

// --- OwnerRegistry ------------------------------------------------------------------

void GuestKernel::RelocateRun(PageKind kind, int32_t owner, uint32_t first_slot,
                              uint8_t order, PageRun to) {
  if (kind == PageKind::kAnon) {
    Process& proc = process(owner);
    for (uint32_t i = 0; i < to.pages >> order; ++i) {
      proc.Relocate(first_slot + i, to.start + (i << order));
    }
  } else if (kind == PageKind::kFile) {
    assert(order == 0);
    page_cache_.RelocateRun(owner, first_slot, to.start, to.pages);
  }
}

// --- VirtioMemHooks: vanilla Linux policy -----------------------------------------

std::vector<BlockIndex> GuestKernel::SelectPlugBlocks(uint64_t max_blocks) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->SelectPlugBlocks(max_blocks);
  }
  // Vanilla: lowest absent blocks of the device region first.
  std::vector<BlockIndex> out;
  for (BlockIndex b = hotplug_first_block_;
       b < hotplug_first_block_ + hotplug_nr_blocks_ && out.size() < max_blocks; ++b) {
    if (memmap_->block_state(b) == BlockState::kAbsent) {
      out.push_back(b);
    }
  }
  return out;
}

Zone* GuestKernel::OnlineTargetZone(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->OnlineTargetZone(b);
  }
  // Vanilla: hot-plugged memory onlines into ZONE_MOVABLE so it stays
  // (theoretically) offlinable.
  return movable_zone_;
}

void GuestKernel::OnBlockOnline(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    override_hooks_->OnBlockOnline(b);
  }
}

std::vector<BlockIndex> GuestKernel::SelectUnplugBlocks(uint64_t max_blocks) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->SelectUnplugBlocks(max_blocks);
  }
  // Vanilla policy: every online block of the device region is a
  // candidate.  Linux virtio-mem walks by address, highest block first;
  // the emptiest-first variant (fewest pages to migrate) is a smarter
  // hypothetical baseline evaluated in the block-selection ablation.
  std::vector<BlockIndex> candidates;
  for (BlockIndex b = hotplug_first_block_; b < hotplug_first_block_ + hotplug_nr_blocks_; ++b) {
    if (memmap_->block_state(b) == BlockState::kOnline) {
      candidates.push_back(b);
    }
  }
  if (config_.unplug_selection == UnplugSelection::kEmptiestFirst) {
    std::stable_sort(candidates.begin(), candidates.end(), [this](BlockIndex a, BlockIndex b) {
      return memmap_->BlockOccupied(a) < memmap_->BlockOccupied(b);
    });
  } else {
    std::reverse(candidates.begin(), candidates.end());
  }
  (void)max_blocks;  // The driver stops when the request is met.
  return candidates;
}

OfflineOptions GuestKernel::OfflineOptionsFor(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->OfflineOptionsFor(b);
  }
  return OfflineOptions{/*skip_zeroing=*/false, /*allow_migration=*/true};
}

Zone* GuestKernel::BlockZone(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->BlockZone(b);
  }
  const Page first = memmap_->record(MemMap::BlockStart(b));
  assert(first.zone_id >= 0);
  return zones_[static_cast<size_t>(first.zone_id)].get();
}

Zone* GuestKernel::MigrationTarget(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->MigrationTarget(b);
  }
  return movable_zone_;
}

void GuestKernel::OnBlockUnplugged(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    override_hooks_->OnBlockUnplugged(b);
  }
}

}  // namespace squeezy
