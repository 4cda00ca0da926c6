// Unit tests for the guest page cache.
#include <gtest/gtest.h>

#include <vector>

#include "src/mm/page_cache.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace {

TEST(PageCacheTest, RegisterFileSizesPages) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("rootfs", MiB(1));
  EXPECT_EQ(f, 0);
  EXPECT_EQ(cache.FilePages(f), MiB(1) / kPageSize);
  EXPECT_EQ(cache.file_size(f), MiB(1));
  EXPECT_EQ(cache.file_name(f), "rootfs");
  EXPECT_EQ(cache.file_count(), 1u);
  EXPECT_EQ(cache.extent_count(f), 0u);
}

TEST(PageCacheTest, RegisterOddSizeRoundsUp) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("x", kPageSize + 1);
  EXPECT_EQ(cache.FilePages(f), 2u);
}

TEST(PageCacheTest, InsertRunLookupAndRemoveAll) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("lib.so", MiB(1));
  EXPECT_EQ(cache.Lookup(f, 0), kInvalidPfn);

  cache.InsertRun(f, 0, 100, 4);
  cache.InsertRun(f, 5, 105, 1);
  EXPECT_EQ(cache.Lookup(f, 0), 100u);
  EXPECT_EQ(cache.Lookup(f, 3), 103u);
  EXPECT_EQ(cache.Lookup(f, 4), kInvalidPfn);
  EXPECT_EQ(cache.Lookup(f, 5), 105u);
  EXPECT_EQ(cache.cached_pages(f), 5u);
  EXPECT_EQ(cache.total_cached_pages(), 5u);
  EXPECT_EQ(cache.total_cached_bytes(), 5 * kPageSize);
  EXPECT_EQ(cache.extent_count(f), 2u);

  // Page 4 at pfn 104 continues both neighbours: one extent.
  cache.InsertRun(f, 4, 104, 1);
  EXPECT_EQ(cache.extent_count(f), 1u);
  EXPECT_EQ(cache.Lookup(f, 4), 104u);

  // Continuing the page index but not the pfn starts a new extent.
  cache.InsertRun(f, 6, 500, 2);
  EXPECT_EQ(cache.extent_count(f), 2u);

  const std::vector<PageCache::Extent> removed = cache.RemoveAll(f);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].page_idx, 0u);
  EXPECT_EQ(removed[0].pfn, 100u);
  EXPECT_EQ(removed[0].pages, 6u);
  EXPECT_EQ(removed[1].page_idx, 6u);
  EXPECT_EQ(removed[1].pfn, 500u);
  EXPECT_EQ(removed[1].pages, 2u);
  EXPECT_EQ(cache.Lookup(f, 0), kInvalidPfn);
  EXPECT_EQ(cache.cached_pages(f), 0u);
  EXPECT_EQ(cache.total_cached_pages(), 0u);
  EXPECT_EQ(cache.extent_count(f), 0u);
}

TEST(PageCacheTest, SpanAtCoversCachedAndUncachedRuns) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("deps", MiB(1));
  cache.InsertRun(f, 10, 1000, 5);  // [10, 15)
  cache.InsertRun(f, 15, 2000, 5);  // [15, 20): continues the index only.
  EXPECT_EQ(cache.extent_count(f), 2u);

  PageCache::Span s = cache.SpanAt(f, 0, 256);
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(s.pages, 10u);
  s = cache.SpanAt(f, 12, 256);  // Runs on across the pfn break.
  EXPECT_TRUE(s.cached);
  EXPECT_EQ(s.pages, 8u);
  s = cache.SpanAt(f, 12, 16);  // Capped at the bound.
  EXPECT_TRUE(s.cached);
  EXPECT_EQ(s.pages, 4u);
  s = cache.SpanAt(f, 20, 256);
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(s.pages, 236u);
  s = cache.SpanAt(f, 3, 7);
  EXPECT_FALSE(s.cached);
  EXPECT_EQ(s.pages, 4u);
}

TEST(PageCacheTest, RelocateRunCutsAtBothEnds) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("bin", MiB(1));
  cache.InsertRun(f, 0, 200, 10);
  cache.RelocateRun(f, 3, 900, 4);  // Pages 3..6 move.
  EXPECT_EQ(cache.extent_count(f), 3u);
  EXPECT_EQ(cache.Lookup(f, 2), 202u);
  EXPECT_EQ(cache.Lookup(f, 3), 900u);
  EXPECT_EQ(cache.Lookup(f, 6), 903u);
  EXPECT_EQ(cache.Lookup(f, 7), 207u);
  EXPECT_EQ(cache.cached_pages(f), 10u);  // Count unchanged.

  // Moving them back where they came from merges the extents again.
  cache.RelocateRun(f, 3, 203, 4);
  EXPECT_EQ(cache.extent_count(f), 1u);
  EXPECT_EQ(cache.Lookup(f, 5), 205u);

  // A relocation may span several extents.
  cache.InsertRun(f, 10, 700, 6);
  cache.RelocateRun(f, 8, 50, 4);  // Pages 8..11.
  EXPECT_EQ(cache.extent_count(f), 3u);
  EXPECT_EQ(cache.Lookup(f, 7), 207u);
  EXPECT_EQ(cache.Lookup(f, 8), 50u);
  EXPECT_EQ(cache.Lookup(f, 11), 53u);
  EXPECT_EQ(cache.Lookup(f, 12), 702u);
}

TEST(PageCacheTest, MultipleFilesIndependent) {
  PageCache cache;
  const int32_t a = cache.RegisterFile("a", MiB(1));
  const int32_t b = cache.RegisterFile("b", MiB(2));
  cache.InsertRun(a, 0, 1, 1);
  cache.InsertRun(b, 0, 2, 1);
  EXPECT_EQ(cache.Lookup(a, 0), 1u);
  EXPECT_EQ(cache.Lookup(b, 0), 2u);
  EXPECT_EQ(cache.total_cached_pages(), 2u);
  cache.RemoveAll(a);
  EXPECT_EQ(cache.Lookup(b, 0), 2u);
  EXPECT_EQ(cache.total_cached_pages(), 1u);
}

}  // namespace
}  // namespace squeezy
