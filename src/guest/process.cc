#include "src/guest/process.h"

#include <cassert>

namespace squeezy {

uint32_t Process::ReserveSlot() {
  folios_.push_back(FolioRef{});
  return static_cast<uint32_t>(folios_.size()) - 1;
}

void Process::CommitSlot(uint32_t slot, Pfn head, uint8_t order) {
  assert(folios_[slot].head == kInvalidPfn);
  folios_[slot] = FolioRef{head, order};
  anon_pages_ += 1u << order;
}

void Process::AbandonSlot(uint32_t slot) {
  assert(slot + 1 == folios_.size() && folios_[slot].head == kInvalidPfn);
  (void)slot;
  folios_.pop_back();
}

bool Process::PopFolio(FolioRef* out) {
  if (folios_.empty()) {
    return false;
  }
  *out = folios_.back();
  assert(out->head != kInvalidPfn);
  anon_pages_ -= out->pages();
  folios_.pop_back();
  return true;
}

void Process::ReleaseFolioTable() {
  assert(folios_.empty());
  std::vector<FolioRef>().swap(folios_);
}

}  // namespace squeezy
