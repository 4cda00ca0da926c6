// Reference model for the memmap fuzz (tests/property_test.cc): the dense
// record store that src/mm/memmap.h's per-slot record arrays replaced,
// kept only as a test oracle.  One Page per pfn of the span; Stamp writes
// the record at the extent's start and nothing else, so the records a
// larger extent covers stay behind, stale but unreachable, and ExtentStart
// finds a page's extent by descending its slot's binary tree of extents.
// Host backing is one flag per pfn.  Blocks, zones and free-list links are
// not modelled.
#ifndef SQUEEZY_TESTS_ORACLES_DENSE_MEMMAP_H_
#define SQUEEZY_TESTS_ORACLES_DENSE_MEMMAP_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

class DenseMemMap {
 public:
  explicit DenseMemMap(uint64_t span_bytes)
      : pages_(BytesToBlocks(span_bytes) * kPagesPerBlock), backed_(pages_.size()) {
    for (Pfn pfn = 0; pfn < pages_.size(); pfn += MemMap::kSlotPages) {
      pages_[pfn] = MemMap::SlotRecord(PageState::kHole);
    }
  }

  // Hot-add and hot-remove: every slot of block b becomes one offline or
  // hole extent.
  void InitBlock(BlockIndex b) {
    StampSlots(b, MemMap::SlotRecord(PageState::kOffline));
    ClearHostPopulated(MemMap::BlockStart(b), kPagesPerBlock);
  }
  // Hot-remove also drops the block's backing and returns how much it held.
  uint32_t RemoveBlock(BlockIndex b) {
    StampSlots(b, MemMap::SlotRecord(PageState::kHole));
    const uint32_t populated = BlockPopulated(b);
    ClearHostPopulated(MemMap::BlockStart(b), kPagesPerBlock);
    return populated;
  }

  // Host backing, page by page; each returns how many flags changed.
  uint32_t SetHostPopulated(Pfn pfn, uint32_t n) { return Flag(pfn, n, true); }
  uint32_t ClearHostPopulated(Pfn pfn, uint32_t n) { return Flag(pfn, n, false); }
  bool host_populated(Pfn pfn) const { return backed_[pfn]; }
  uint32_t BlockPopulated(BlockIndex b) const {
    uint32_t n = 0;
    for (Pfn pfn = MemMap::BlockStart(b); pfn < MemMap::BlockStart(b + 1); ++pfn) {
      n += backed_[pfn] ? 1 : 0;
    }
    return n;
  }

  void Stamp(Pfn start, const Page& rec) {
    assert(rec.order <= kMaxPageOrder && start % (1u << rec.order) == 0);
    pages_[start] = rec;
  }
  Page record(Pfn start) const {
    assert(ExtentStart(start) == start);
    return pages_[start];
  }
  Pfn NextExtent(Pfn start) const { return start + (1u << pages_[start].order); }

  // Extents tile each slot as nodes of a binary tree.  When the extent at
  // a node's start is smaller than the node, no extent straddles the
  // node's midpoint, so the half holding pfn begins an extent too.
  Pfn ExtentStart(Pfn pfn) const {
    Pfn start = pfn & ~(MemMap::kSlotPages - 1);
    for (uint32_t order = kMaxPageOrder; pages_[start].order < order; --order) {
      start |= pfn & (1u << (order - 1));
    }
    return start;
  }

  // page.h's record rule.
  Page page(Pfn pfn) const {
    const Pfn start = ExtentStart(pfn);
    Page p = pages_[start];
    const uint32_t offset = pfn - start;
    if (p.run) {
      p.run = false;
      p.order = 0;
      p.SetOwner(p.owner(), p.owner_slot() + offset);
      return p;
    }
    if (p.state != PageState::kFree && p.state != PageState::kAllocated) {
      p.order = 0;
    }
    if (offset != 0) {
      p.head = false;
      p.free = FreeLink{};
    }
    return p;
  }
  void ReadBlock(BlockIndex b, Page* out) const {
    for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
      out[i] = page(MemMap::BlockStart(b) + i);
    }
  }

 private:
  void StampSlots(BlockIndex b, const Page& rec) {
    for (Pfn pfn = MemMap::BlockStart(b); pfn < MemMap::BlockStart(b + 1);
         pfn += MemMap::kSlotPages) {
      Stamp(pfn, rec);
    }
  }

  uint32_t Flag(Pfn pfn, uint32_t n, bool backed) {
    uint32_t changed = 0;
    for (Pfn p = pfn; p < pfn + n; ++p) {
      changed += backed_[p] != backed ? 1 : 0;
      backed_[p] = backed;
    }
    return changed;
  }

  std::vector<Page> pages_;
  std::vector<bool> backed_;
};

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_ORACLES_DENSE_MEMMAP_H_
