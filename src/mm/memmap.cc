#include "src/mm/memmap.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

namespace squeezy {

namespace {

// The index of the first of a slot's records, sorted by offset, at or past
// offset `off`.  Branch-free: a dense slot holds up to 1023 of them, and
// the free-list updates search it on every link write.
template <typename Entry>
uint32_t FirstAtOrPast(const Entry* rest, uint32_t size, uint32_t off) {
  if (size == 0) {
    return 0;
  }
  const Entry* base = rest;
  for (uint32_t n = size; n > 1; n -= n / 2) {
    base = base[n / 2].offset < off ? base + n / 2 : base;
  }
  return static_cast<uint32_t>(base - rest) + (base->offset < off ? 1 : 0);
}

constexpr uint32_t kHostWords = kPagesPerBlock / 64;

// Calls fn(word, mask) for each 64-bit bitmap word that the page offsets
// [off, off + n) of one block cover, with the covered bits set in mask.
template <typename Fn>
void ForEachHostWord(uint32_t off, uint32_t n, Fn&& fn) {
  const uint32_t end = off + n;
  while (off < end) {
    const uint32_t word = off / 64;
    const uint32_t lo = off % 64;
    const uint32_t hi = std::min<uint32_t>(end - word * 64, 64);
    const uint64_t ones = hi - lo == 64 ? ~uint64_t{0} : (uint64_t{1} << (hi - lo)) - 1;
    fn(word, ones << lo);
    off = word * 64 + hi;
  }
}

// What the page `offset` pages into the extent whose record is `rec` reads
// as: the start reads as the record, the rest with no head flag and no
// links; isolated, offline and hole pages read order 0; a run's pages read
// as order-0 heads at consecutive owner slots.
Page ReadAs(Page rec, uint32_t offset) {
  if (rec.run) {
    rec.run = false;
    rec.order = 0;
    rec.SetOwner(rec.owner(), rec.owner_slot() + offset);
    return rec;
  }
  if (rec.state != PageState::kFree && rec.state != PageState::kAllocated) {
    rec.order = 0;
  }
  if (offset != 0) {
    rec.head = false;
    rec.free = FreeLink{};
  }
  return rec;
}

}  // namespace

MemMap::MemMap(uint64_t span_bytes) {
  const uint64_t blocks = BytesToBlocks(span_bytes);
  assert(blocks > 0);
  assert(blocks * kPagesPerBlock < kInvalidPfn);
  span_pages_ = blocks * kPagesPerBlock;
  slots_.resize(blocks);
  blocks_.assign(blocks, BlockState::kAbsent);
  allocated_per_block_.assign(blocks, 0);
  split_slots_.assign(blocks, 0);
  host_bits_.resize(blocks);
  host_count_.assign(blocks, 0);
}

Page MemMap::SlotRecord(PageState state) {
  assert(state == PageState::kHole || state == PageState::kOffline);
  Page rec;
  rec.state = state;
  rec.order = kMaxPageOrder;
  return rec;
}

const MemMap::Slot& MemMap::HoleSlot() {
  static const Slot hole{SlotRecord(PageState::kHole), FreeLink{}, 0, 0, nullptr};
  return hole;
}

MemMap::Found MemMap::Find(Pfn pfn) const {
  const Slot& s = SlotOf(pfn);
  const Pfn base = pfn & ~(kSlotPages - 1);
  const uint32_t i = FirstAtOrPast(s.rest.get(), s.size, pfn - base + 1);
  if (i == 0) {
    return Found{base, &s.first};
  }
  return Found{base + s.rest[i - 1].offset, &s.rest[i - 1].rec};
}

void MemMap::InsertRecord(Slot& s, uint32_t i, const Entry& e) {
  assert(s.size < kSlotPages - 1 && i <= s.size);
  Entry* rest = s.rest.get();
  if (s.size == s.capacity) {
    const auto capacity = static_cast<uint16_t>(s.capacity == 0 ? 1 : 2 * s.capacity);
    std::unique_ptr<Entry[]> grown(new Entry[capacity]);
    std::copy(rest, rest + i, grown.get());
    std::copy(rest + i, rest + s.size, grown.get() + i + 1);
    s.rest = std::move(grown);
    s.capacity = capacity;
  } else {
    std::copy_backward(rest + i, rest + s.size, rest + s.size + 1);
  }
  s.rest[i] = e;
  ++s.size;
}

void MemMap::EraseRecords(Slot& s, uint32_t lo, uint32_t hi) {
  assert(lo <= hi && hi <= s.size);
  Entry* rest = s.rest.get();
  std::copy(rest + hi, rest + s.size, rest + lo);
  s.size = static_cast<uint16_t>(s.size - (hi - lo));
}

void MemMap::Stamp(Pfn start, const Page& rec) {
  assert(rec.order <= kMaxPageOrder && start % (1u << rec.order) == 0 &&
         "extents are naturally aligned");
  ++records_written_;
  Slot& s = MutableSlotOf(start);
  const uint32_t off = start & (kSlotPages - 1);
  const bool was_split = s.size > 0;
  // The records at offsets [off, off + 2^order) are the starts the extent
  // covers; its own start keeps the first of them, or is inserted.
  uint32_t lo = FirstAtOrPast(s.rest.get(), s.size, off);
  const uint32_t hi = FirstAtOrPast(s.rest.get(), s.size, off + (1u << rec.order));
  if (off > 0 && lo == hi) {
    InsertRecord(s, lo, Entry{static_cast<uint16_t>(off), rec});
    stored_peak_ = std::max(stored_peak_, ++stored_);
  } else {
    if (off == 0) {
      s.first = rec;
    } else {
      s.rest[lo++] = Entry{static_cast<uint16_t>(off), rec};
    }
    stored_ -= hi - lo;
    EraseRecords(s, lo, hi);
  }
  const BlockIndex b = BlockOf(start);
  if (!was_split && s.size > 0 && split_slots_[b]++ == 0) {
    split_blocks_peak_ = std::max(split_blocks_peak_, ++split_blocks_);
  } else if (was_split && s.size == 0) {
    s.rest.reset();
    s.capacity = 0;
    if (--split_slots_[b] == 0) {
      --split_blocks_;
    }
  }
}

Page& MemMap::mutable_record(Pfn start) {
  assert(ExtentStart(start) == start && "not an extent start");
  Slot& s = MutableSlotOf(start);
  const uint32_t off = start & (kSlotPages - 1);
  return off == 0 ? s.first : s.rest[FirstAtOrPast(s.rest.get(), s.size, off)].rec;
}

Page MemMap::page(Pfn pfn) const {
  const Found f = Find(pfn);
  return ReadAs(*f.rec, pfn - f.start);
}

template <typename Fn>
void MemMap::ForEachExtent(BlockIndex b, Fn&& fn) const {
  for (Pfn slot = BlockStart(b); slot < BlockStart(b + 1); slot += kSlotPages) {
    const Slot& s = SlotOf(slot);
    fn(slot, s.first);
    for (uint32_t i = 0; i < s.size; ++i) {
      fn(slot + s.rest[i].offset, s.rest[i].rec);
    }
  }
}

void MemMap::ReadBlock(BlockIndex b, Page* out) const {
  ForEachExtent(b, [&](Pfn pfn, const Page& rec) {
    Page* pages = out + (pfn - BlockStart(b));
    pages[0] = ReadAs(rec, 0);
    if (rec.run) {
      for (uint32_t i = 1; i < (1u << rec.order); ++i) {
        pages[i] = ReadAs(rec, i);
      }
    } else {
      std::fill_n(pages + 1, (1u << rec.order) - 1, ReadAs(rec, 1));
    }
  });
}

void MemMap::ReleaseHostBacking(BlockIndex b) {
  host_bits_[b].reset();
  host_count_[b] = 0;
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent && slots_[b] == nullptr);
  ReleaseHostBacking(b);
  slots_[b] = std::make_unique<Slot[]>(kSlotsPerBlock);
  for (Pfn pfn = BlockStart(b); pfn < BlockStart(b + 1); pfn += kSlotPages) {
    Stamp(pfn, SlotRecord(PageState::kOffline));
  }
  blocks_[b] = BlockState::kPresent;
}

uint64_t MemMap::RemoveBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  assert(CountBlockPopulated(b) == host_count_[b]);
  const uint64_t populated = host_count_[b];
  ReleaseHostBacking(b);
  for (uint32_t i = 0; i < kSlotsPerBlock; ++i) {
    stored_ -= slots_[b][i].size;
  }
  split_blocks_ -= split_slots_[b] > 0 ? 1 : 0;
  split_slots_[b] = 0;
  slots_[b].reset();
  blocks_[b] = BlockState::kAbsent;
  return populated;
}

uint32_t MemMap::SetHostPopulated(Pfn pfn, uint32_t n) {
  assert(n > 0 && BlockOf(pfn) == BlockOf(pfn + n - 1) && "range crosses a block");
  const BlockIndex b = BlockOf(pfn);
  uint32_t& count = host_count_[b];
  std::unique_ptr<uint64_t[]>& bits = host_bits_[b];
  if (n == kPagesPerBlock) {
    const uint32_t changed = kPagesPerBlock - count;
    count = kPagesPerBlock;
    bits.reset();
    return changed;
  }
  if (count == kPagesPerBlock) {
    return 0;
  }
  if (bits == nullptr) {
    bits = std::make_unique<uint64_t[]>(kHostWords);  // Zero-filled.
  }
  uint32_t changed = 0;
  ForEachHostWord(pfn - BlockStart(b), n, [&](uint32_t word, uint64_t mask) {
    changed += static_cast<uint32_t>(__builtin_popcountll(mask & ~bits[word]));
    bits[word] |= mask;
  });
  count += changed;
  if (count == kPagesPerBlock) {
    bits.reset();
  }
  return changed;
}

uint32_t MemMap::ClearHostPopulated(Pfn pfn, uint32_t n) {
  assert(n > 0 && BlockOf(pfn) == BlockOf(pfn + n - 1) && "range crosses a block");
  const BlockIndex b = BlockOf(pfn);
  if (host_count_[b] == kPagesPerBlock) {
    host_bits_[b].reset(new uint64_t[kHostWords]);
    std::fill_n(host_bits_[b].get(), kHostWords, ~uint64_t{0});
  }
  uint64_t* bits = host_bits_[b].get();
  if (bits == nullptr) {
    return 0;
  }
  uint32_t changed = 0;
  ForEachHostWord(pfn - BlockStart(b), n, [&](uint32_t word, uint64_t mask) {
    changed += static_cast<uint32_t>(__builtin_popcountll(mask & bits[word]));
    bits[word] &= ~mask;
  });
  host_count_[b] -= changed;
  return changed;
}

uint32_t MemMap::CountBlockPopulated(BlockIndex b) const {
  const uint64_t* bits = host_bits_[b].get();
  if (bits == nullptr) {
    return host_count_[b] == kPagesPerBlock ? kPagesPerBlock : 0;
  }
  uint32_t n = 0;
  for (uint32_t w = 0; w < kHostWords; ++w) {
    n += static_cast<uint32_t>(__builtin_popcountll(bits[w]));
  }
  return n;
}

uint32_t MemMap::CountHostBitmaps() const {
  uint32_t n = 0;
  for (const auto& bits : host_bits_) {
    n += bits != nullptr ? 1 : 0;
  }
  return n;
}

uint64_t MemMap::CountBlockPages(BlockIndex b, PageState state) const {
  uint64_t n = 0;
  ForEachExtent(b, [&](Pfn, const Page& rec) {
    n += rec.state == state ? uint64_t{1} << rec.order : 0;
  });
  return n;
}

uint32_t MemMap::CountBlocks(BlockState s) const {
  uint32_t n = 0;
  for (const BlockState b : blocks_) {
    if (b == s) {
      ++n;
    }
  }
  return n;
}

}  // namespace squeezy
