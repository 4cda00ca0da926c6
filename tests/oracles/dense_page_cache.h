// Reference model for the run-vs-dense page-cache fuzz
// (tests/property_test.cc): the dense page cache that src/mm/page_cache.h's
// extents replaced, kept only as a test oracle.  One Pfn per page of every
// file, kInvalidPfn where the page is not cached, and every operation acts
// on one page.  The backing-source resolver and read counters, which the
// extents left as they were, are not copied.
#ifndef SQUEEZY_TESTS_ORACLES_DENSE_PAGE_CACHE_H_
#define SQUEEZY_TESTS_ORACLES_DENSE_PAGE_CACHE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

class DensePageCache {
 public:
  // Registers a file of `size_bytes`; returns its file id.
  int32_t RegisterFile(std::string name, uint64_t size_bytes) {
    File f;
    f.name = std::move(name);
    f.size_bytes = size_bytes;
    f.pages.assign(BytesToPages(size_bytes), kInvalidPfn);
    files_.push_back(std::move(f));
    return static_cast<int32_t>(files_.size()) - 1;
  }

  uint64_t FilePages(int32_t file) const {
    return files_[static_cast<size_t>(file)].pages.size();
  }
  uint64_t file_size(int32_t file) const { return files_[file].size_bytes; }
  const std::string& file_name(int32_t file) const { return files_[file].name; }
  size_t file_count() const { return files_.size(); }

  bool Cached(int32_t file, uint64_t page_idx) const {
    return files_[static_cast<size_t>(file)].pages[page_idx] != kInvalidPfn;
  }
  Pfn Lookup(int32_t file, uint64_t page_idx) const {
    return files_[static_cast<size_t>(file)].pages[page_idx];
  }
  void Insert(int32_t file, uint64_t page_idx, Pfn pfn) {
    File& f = files_[static_cast<size_t>(file)];
    assert(f.pages[page_idx] == kInvalidPfn);
    f.pages[page_idx] = pfn;
    ++f.cached;
    ++total_cached_;
  }
  // Migration callback: page `page_idx` of `file` moved to `new_pfn`.
  void Relocate(int32_t file, uint64_t page_idx, Pfn new_pfn) {
    File& f = files_[static_cast<size_t>(file)];
    assert(f.pages[page_idx] != kInvalidPfn);
    f.pages[page_idx] = new_pfn;
  }
  // Forgets the mapping (caller frees the page).  Returns the old pfn.
  Pfn Remove(int32_t file, uint64_t page_idx) {
    File& f = files_[static_cast<size_t>(file)];
    const Pfn old = f.pages[page_idx];
    assert(old != kInvalidPfn);
    f.pages[page_idx] = kInvalidPfn;
    assert(f.cached > 0 && total_cached_ > 0);
    --f.cached;
    --total_cached_;
    return old;
  }

  uint64_t cached_pages(int32_t file) const { return files_[file].cached; }
  uint64_t total_cached_pages() const { return total_cached_; }
  uint64_t total_cached_bytes() const { return PagesToBytes(total_cached_); }

 private:
  struct File {
    std::string name;
    uint64_t size_bytes = 0;
    uint64_t cached = 0;
    std::vector<Pfn> pages;  // Indexed by page_idx; kInvalidPfn = absent.
  };
  std::vector<File> files_;
  uint64_t total_cached_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_ORACLES_DENSE_PAGE_CACHE_H_
