#include "src/mm/memmap.h"

#include <cassert>
#include <memory>

namespace squeezy {

MemMap::MemMap(uint64_t span_bytes) {
  const uint64_t blocks = BytesToBlocks(span_bytes);
  assert(blocks > 0);
  assert(blocks * kPagesPerBlock < kInvalidPfn);
  span_pages_ = blocks * kPagesPerBlock;
  chunks_.resize(blocks);
  uniform_.resize(blocks);  // Page{} is the hole template.
  max_links_.resize(span_pages_ >> kMaxPageOrder);
  blocks_.assign(blocks, BlockState::kAbsent);
  allocated_per_block_.assign(blocks, 0);
}

void MemMap::ChunkDeleter::operator()(Page* chunk) const {
  std::allocator<Page>().deallocate(chunk, kPagesPerBlock);
}

void MemMap::SetUniform(BlockIndex b, PageState state, int16_t zone_id) {
  assert(chunks_[b] == nullptr);
  assert(state != PageState::kAllocated && "allocated pages always have a chunk");
  assert((zone_id >= 0) == (state == PageState::kFree || state == PageState::kIsolated));
  Page tail;  // No kind, owner, host backing or links.
  tail.state = state;
  tail.zone_id = zone_id;
  Page head = tail;
  if (state == PageState::kFree) {
    // Whole max-order chunks, stamped as Zone::StampFreeChunk writes them.
    tail.order = kMaxPageOrder;
    head.order = kMaxPageOrder;
    head.head = true;
  }
  uniform_[b] = {head, tail};
}

Page* MemMap::Materialize(BlockIndex b) {
  assert(chunks_[b] == nullptr);
  // One fill pass from the template into raw storage, then the max-order
  // heads (a no-op rewrite of equal pages unless the block is kFree).
  const UniformPages& u = uniform_[b];
  Page* chunk = std::allocator<Page>().allocate(kPagesPerBlock);
  std::uninitialized_fill_n(chunk, kPagesPerBlock, u.tail);
  for (uint32_t i = 0; i < kPagesPerBlock; i += 1u << kMaxPageOrder) {
    chunk[i] = u.head;
  }
  chunks_[b].reset(chunk);
  ++materialized_;
  materialized_peak_ = materialized_ > materialized_peak_ ? materialized_ : materialized_peak_;
  return chunk;
}

void MemMap::ReleaseChunk(BlockIndex b) {
  if (chunks_[b] != nullptr) {
    chunks_[b].reset();
    --materialized_;
  }
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  // Every page becomes a fresh offline page, so a chunk that mutable reads
  // of the hole materialized is simply dropped.
  ReleaseChunk(b);
  SetUniform(b, PageState::kOffline);
  blocks_[b] = BlockState::kPresent;
}

uint64_t MemMap::RemoveBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  uint64_t populated = 0;
  if (const Page* chunk = chunks_[b].get()) {
    for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
      assert(chunk[i].state == PageState::kOffline);
      populated += chunk[i].host_populated ? 1 : 0;
    }
    ReleaseChunk(b);
  } else {
    assert(uniform_[b].tail.state == PageState::kOffline);
  }
  SetUniform(b, PageState::kHole);
  blocks_[b] = BlockState::kAbsent;
  return populated;
}

uint64_t MemMap::CountBlockPages(BlockIndex b, PageState state) const {
  const Page* chunk = chunks_[b].get();
  if (chunk == nullptr) {
    return uniform_[b].tail.state == state ? kPagesPerBlock : 0;
  }
  uint64_t n = 0;
  for (uint32_t i = 0; i < kPagesPerBlock; ++i) {
    if (chunk[i].state == state) {
      ++n;
    }
  }
  return n;
}

Pfn MemMap::FolioHead(Pfn pfn) const {
  // Walk down to the aligned head: heads are naturally aligned, so clear
  // low bits until we find the flagged head page.  (Folios never span
  // blocks — kMaxPageOrder < log2(kPagesPerBlock) — so all candidates hit
  // the same block.)
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    const Pfn candidate = pfn & ~((1u << order) - 1);
    if (page(candidate).head) {
      return candidate;
    }
  }
  assert(false && "no folio head found");
  return kInvalidPfn;
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
