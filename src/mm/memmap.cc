#include "src/mm/memmap.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

namespace squeezy {

namespace {

// The process-wide LIFO free list of released chunks (see memmap.h).  The
// links live here, not in the chunks, so a poisoned chunk is never read.
struct ChunkPool {
  std::vector<Page*> free;
  uint64_t allocated = 0;
};

// Leaked, so a MemMap destroyed during static teardown still has a pool
// to push onto; its chunks are never handed back to malloc.
ChunkPool& Pool() {
  static ChunkPool* pool = new ChunkPool;
  return *pool;
}

// The most recently released chunk, or a fresh one when none is pooled.
Page* TakeChunk() {
  ChunkPool& pool = Pool();
  if (!pool.free.empty()) {
    Page* chunk = pool.free.back();
    pool.free.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(chunk, MemMap::ChunkBytes());
    return chunk;
  }
  ++pool.allocated;
  return std::allocator<Page>().allocate(kPagesPerBlock);
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
  chunks_.resize(blocks);
  uniform_.resize(blocks);
  max_links_.resize(span_pages_ >> kMaxPageOrder);
  blocks_.assign(blocks, BlockState::kAbsent);
  allocated_per_block_.assign(blocks, 0);
  host_bits_.resize(blocks);
  host_count_.assign(blocks, 0);
  for (BlockIndex b = 0; b < blocks; ++b) {
    SetUniform(b, PageState::kHole);
  }
}

void MemMap::ChunkDeleter::operator()(Page* chunk) const {
#ifndef NDEBUG
  // A record read before a Stamp rewrites it breaks asserts and digests.
  std::memset(static_cast<void*>(chunk), 0xA5, ChunkBytes());
#endif
  ASAN_POISON_MEMORY_REGION(chunk, ChunkBytes());
  Pool().free.push_back(chunk);
}

uint64_t MemMap::chunks_allocated() { return Pool().allocated; }

void MemMap::SetUniform(BlockIndex b, PageState state, int16_t zone_id) {
  assert(state != PageState::kAllocated && "allocated pages always have a chunk");
  assert((zone_id >= 0) == (state == PageState::kFree || state == PageState::kIsolated));
  ReleaseChunk(b);
  // Every slot is one max-order extent with no kind, owner or links.
  Page rec;
  rec.state = state;
  rec.order = kMaxPageOrder;
  rec.head = state == PageState::kFree;
  rec.zone_id = zone_id;
  uniform_[b] = rec;
}

Page* MemMap::Materialize(BlockIndex b) {
  assert(chunks_[b] == nullptr);
  assert((uniform_[b].state == PageState::kFree || uniform_[b].state == PageState::kIsolated) &&
         "only zone-owned blocks materialize");
  // A pooled or fresh chunk with the template at each slot start: nothing
  // else is read before a Stamp writes it.
  Page* chunk = TakeChunk();
  for (uint32_t i = 0; i < kPagesPerBlock; i += kSlotPages) {
    ::new (static_cast<void*>(chunk + i)) Page(uniform_[b]);
  }
  records_written_ += kPagesPerBlock / kSlotPages;
  chunks_[b].reset(chunk);
  ++materialized_;
  materialized_peak_ = materialized_ > materialized_peak_ ? materialized_ : materialized_peak_;
  return chunk;
}

Page& MemMap::mutable_record(Pfn start) {
  const BlockIndex b = BlockOf(start);
  Page* chunk = WritableChunk(b);
  assert(ExtentStart(start) == start && "not an extent start");
  return chunk[start - BlockStart(b)];
}

Pfn MemMap::ExtentStart(Pfn pfn) const {
  // Extents tile each slot as nodes of a binary tree.  When the extent at
  // a node's start is smaller than the node, no extent straddles the
  // node's midpoint, so the half holding pfn begins an extent too.
  Pfn start = pfn & ~(kSlotPages - 1);
  for (uint32_t order = kMaxPageOrder; Raw(start).order < order; --order) {
    start |= pfn & (1u << (order - 1));
  }
  return start;
}

Page MemMap::page(Pfn pfn) const {
  const Pfn start = ExtentStart(pfn);
  return ReadAs(Raw(start), pfn - start);
}

void MemMap::ReadBlock(BlockIndex b, Page* out) const {
  for (Pfn pfn = BlockStart(b); pfn < BlockStart(b + 1); pfn = NextExtent(pfn)) {
    const Page& rec = Raw(pfn);
    Page* pages = out + (pfn - BlockStart(b));
    pages[0] = ReadAs(rec, 0);
    if (rec.run) {
      for (uint32_t i = 1; i < (1u << rec.order); ++i) {
        pages[i] = ReadAs(rec, i);
      }
    } else {
      std::fill_n(pages + 1, (1u << rec.order) - 1, ReadAs(rec, 1));
    }
  }
}

void MemMap::ReleaseChunk(BlockIndex b) {
  if (chunks_[b] != nullptr) {
    chunks_[b].reset();
    --materialized_;
  }
}

void MemMap::ReleaseHostBacking(BlockIndex b) {
  host_bits_[b].reset();
  host_count_[b] = 0;
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  ReleaseHostBacking(b);
  SetUniform(b, PageState::kOffline);
  blocks_[b] = BlockState::kPresent;
}

uint64_t MemMap::RemoveBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  assert(CountBlockPopulated(b) == host_count_[b]);
  const uint64_t populated = host_count_[b];
  ReleaseHostBacking(b);
  SetUniform(b, PageState::kHole);
  blocks_[b] = BlockState::kAbsent;
  return populated;
}

void MemMap::Dematerialize(BlockIndex b, int16_t zone_id) {
  assert(allocated_per_block_[b] == 0 && "only a drained block reverts to uniform");
  SetUniform(b, PageState::kFree, zone_id);
}

uint32_t MemMap::SetHostPopulated(Pfn pfn, uint32_t n) {
  assert(n > 0 && BlockOf(pfn) == BlockOf(pfn + n - 1) && "range crosses a block");
  const BlockIndex b = BlockOf(pfn);
  std::unique_ptr<uint64_t[]>& bits = host_bits_[b];
  if (bits == nullptr) {
    bits = std::make_unique<uint64_t[]>(kHostWords);  // Zero-filled.
  }
  uint32_t changed = 0;
  ForEachHostWord(pfn - BlockStart(b), n, [&](uint32_t word, uint64_t mask) {
    changed += static_cast<uint32_t>(__builtin_popcountll(mask & ~bits[word]));
    bits[word] |= mask;
  });
  host_count_[b] += changed;
  return changed;
}

uint32_t MemMap::ClearHostPopulated(Pfn pfn, uint32_t n) {
  assert(n > 0 && BlockOf(pfn) == BlockOf(pfn + n - 1) && "range crosses a block");
  const BlockIndex b = BlockOf(pfn);
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
  uint32_t n = 0;
  for (uint32_t w = 0; bits != nullptr && w < kHostWords; ++w) {
    n += static_cast<uint32_t>(__builtin_popcountll(bits[w]));
  }
  return n;
}

uint64_t MemMap::CountBlockPages(BlockIndex b, PageState state) const {
  uint64_t n = 0;
  for (Pfn pfn = BlockStart(b); pfn < BlockStart(b + 1); pfn = NextExtent(pfn)) {
    n += Raw(pfn).state == state ? uint64_t{1} << Raw(pfn).order : 0;
  }
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
