#include "src/mm/memmap.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace squeezy {

namespace {

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

}  // namespace

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
  host_bits_.resize(blocks);
  host_count_.assign(blocks, 0);
}

void MemMap::ChunkDeleter::operator()(Page* chunk) const {
  std::allocator<Page>().deallocate(chunk, kPagesPerBlock);
}

void MemMap::SetUniform(BlockIndex b, PageState state, int16_t zone_id) {
  assert(chunks_[b] == nullptr);
  assert(state != PageState::kAllocated && "allocated pages always have a chunk");
  assert((zone_id >= 0) == (state == PageState::kFree || state == PageState::kIsolated));
  Page tail;  // No kind, owner or links.
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

void MemMap::ReleaseHostBacking(BlockIndex b) {
  host_bits_[b].reset();
  host_count_[b] = 0;
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  // Every page becomes a fresh, unbacked offline page, so a chunk that
  // mutable reads of the hole materialized is simply dropped.
  ReleaseChunk(b);
  ReleaseHostBacking(b);
  SetUniform(b, PageState::kOffline);
  blocks_[b] = BlockState::kPresent;
}

uint64_t MemMap::RemoveBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  assert(CountBlockPopulated(b) == host_count_[b]);
  const uint64_t populated = host_count_[b];
  ReleaseChunk(b);
  ReleaseHostBacking(b);
  SetUniform(b, PageState::kHole);
  blocks_[b] = BlockState::kAbsent;
  return populated;
}

void MemMap::Dematerialize(BlockIndex b, int16_t zone_id) {
  assert(allocated_per_block_[b] == 0 && "only a drained block reverts to uniform");
  ReleaseChunk(b);
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
