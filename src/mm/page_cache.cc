#include "src/mm/page_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace squeezy {

int32_t PageCache::RegisterFile(std::string name, uint64_t size_bytes) {
  File f;
  f.name = std::move(name);
  f.size_bytes = size_bytes;
  files_.push_back(std::move(f));
  return static_cast<int32_t>(files_.size()) - 1;
}

size_t PageCache::FirstEndingAfter(const File& f, uint64_t page_idx) {
  const auto it = std::partition_point(
      f.extents.begin(), f.extents.end(),
      [page_idx](const Extent& e) { return e.end_idx() <= page_idx; });
  return static_cast<size_t>(it - f.extents.begin());
}

Pfn PageCache::Lookup(int32_t file, uint64_t page_idx) const {
  const File& f = files_[static_cast<size_t>(file)];
  const std::vector<Extent>& ex = f.extents;
  const size_t i = FirstEndingAfter(f, page_idx);
  if (i == ex.size() || ex[i].page_idx > page_idx) {
    return kInvalidPfn;
  }
  return ex[i].pfn + static_cast<Pfn>(page_idx - ex[i].page_idx);
}

PageCache::Span PageCache::SpanAt(int32_t file, uint64_t page_idx, uint64_t end) const {
  assert(page_idx < end);
  const File& f = files_[static_cast<size_t>(file)];
  const std::vector<Extent>& ex = f.extents;
  size_t i = FirstEndingAfter(f, page_idx);
  if (i == ex.size() || ex[i].page_idx > page_idx) {
    const uint64_t hi = i == ex.size() ? end : std::min(end, ex[i].page_idx);
    return {false, hi - page_idx};
  }
  // Adjacent extents break in pfn only: the cached span runs on.
  uint64_t hi = ex[i].end_idx();
  for (++i; i < ex.size() && ex[i].page_idx == hi && hi < end; ++i) {
    hi = ex[i].end_idx();
  }
  return {true, std::min(hi, end) - page_idx};
}

void PageCache::MergeAround(File& f, size_t i) {
  std::vector<Extent>& ex = f.extents;
  auto continues = [&ex](size_t a) {
    return ex[a].end_idx() == ex[a + 1].page_idx &&
           ex[a].pfn + ex[a].pages == ex[a + 1].pfn;
  };
  if (i + 1 < ex.size() && continues(i)) {
    ex[i].pages += ex[i + 1].pages;
    ex.erase(ex.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  }
  if (i > 0 && continues(i - 1)) {
    ex[i - 1].pages += ex[i].pages;
    ex.erase(ex.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void PageCache::CutAt(File& f, uint64_t page_idx) {
  std::vector<Extent>& ex = f.extents;
  const size_t i = FirstEndingAfter(f, page_idx);
  if (i == ex.size() || ex[i].page_idx >= page_idx) {
    return;
  }
  const auto left = static_cast<uint32_t>(page_idx - ex[i].page_idx);
  const Extent right{page_idx, ex[i].pfn + left, ex[i].pages - left};
  ex[i].pages = left;
  ex.insert(ex.begin() + static_cast<std::ptrdiff_t>(i) + 1, right);
}

void PageCache::InsertRun(int32_t file, uint64_t page_idx, Pfn pfn, uint32_t pages) {
  assert(pages > 0 && page_idx + pages <= FilePages(file));
  File& f = files_[static_cast<size_t>(file)];
  const size_t i = FirstEndingAfter(f, page_idx);
  assert((i == f.extents.size() || f.extents[i].page_idx >= page_idx + pages) &&
         "pages already cached");
  f.extents.insert(f.extents.begin() + static_cast<std::ptrdiff_t>(i),
                   Extent{page_idx, pfn, pages});
  MergeAround(f, i);
  f.cached += pages;
  total_cached_ += pages;
}

void PageCache::RelocateRun(int32_t file, uint64_t page_idx, Pfn new_pfn,
                            uint32_t pages) {
  assert(pages > 0);
  File& f = files_[static_cast<size_t>(file)];
  std::vector<Extent>& ex = f.extents;
  CutAt(f, page_idx);
  CutAt(f, page_idx + pages);
  // The extents [i, j) now hold exactly the relocated pages.
  const size_t i = FirstEndingAfter(f, page_idx);
  size_t j = i;
  for (uint64_t next = page_idx; next < page_idx + pages; next = ex[j++].end_idx()) {
    assert(j < ex.size() && ex[j].page_idx == next && "relocated pages not cached");
  }
  ex[i] = Extent{page_idx, new_pfn, pages};
  ex.erase(ex.begin() + static_cast<std::ptrdiff_t>(i) + 1,
           ex.begin() + static_cast<std::ptrdiff_t>(j));
  MergeAround(f, i);
}

std::vector<PageCache::Extent> PageCache::RemoveAll(int32_t file) {
  File& f = files_[static_cast<size_t>(file)];
  std::vector<Extent> out;
  out.swap(f.extents);
  assert(total_cached_ >= f.cached);
  total_cached_ -= f.cached;
  f.cached = 0;
  return out;
}

}  // namespace squeezy
