/// Heap allocations made by the per-element capacity structures and by
/// instrument exits.  This binary replaces the global operator new with a
/// counting one, so it is kept apart from every other test.
///
/// A `CapacitySnapshot` copy and a `LoadMap::zeros` must cost a fixed
/// number of allocations whatever the site size (ResourceVector stores
/// its components inline), and a `ScopedTimer` exit with a registry
/// installed must allocate nothing once its histogram exists.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "model/capacity.hpp"
#include "model/placement.hpp"
#include "obs/obs.hpp"
#include "workload/arrivals.hpp"
#include "workload/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sparcle {
namespace {

/// Allocations `f` makes on this thread's watch.
template <class F>
std::size_t allocations(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

Network site(std::size_t regions) {
  Rng rng(1);
  return workload::soak_site(regions, 64, rng);
}

TEST(AllocCount, LoadMapZerosDoesNotGrowWithTheSite) {
  const Network small = site(1);
  const Network large = site(32);
  ASSERT_EQ(large.ncp_count(), 32 * small.ncp_count());
  LoadMap a;
  LoadMap b;
  const std::size_t n_small = allocations([&] { a = LoadMap::zeros(small); });
  const std::size_t n_large = allocations([&] { b = LoadMap::zeros(large); });
  EXPECT_EQ(n_small, n_large);
  EXPECT_LE(n_large, 2u);  // the NCP block and the link block
  EXPECT_EQ(b.ncp_count(), large.ncp_count());
  EXPECT_TRUE(b.ncp_load(0).is_zero());
}

TEST(AllocCount, SnapshotCopyDoesNotGrowWithTheSite) {
  const CapacitySnapshot small(site(1));
  const CapacitySnapshot large(site(32));
  CapacitySnapshot a;
  CapacitySnapshot b;
  const std::size_t n_small = allocations([&] { a = small; });
  const std::size_t n_large = allocations([&] { b = large; });
  EXPECT_EQ(n_small, n_large);
  EXPECT_LE(n_large, 2u);
  // Copy-assigning into a snapshot of the same shape reuses its blocks.
  EXPECT_EQ(allocations([&] { b = large; }), 0u);
  EXPECT_EQ(b.ncp(5), large.ncp(5));
}

TEST(AllocCount, ScopedTimerExitAllocatesNothingOnceRegistered) {
  obs::MetricsRegistry registry;
  const obs::ScopedInstall install({.metrics = &registry});
  { const obs::ScopedTimer first("alloc_count.span"); }
  const std::size_t n = allocations([] {
    for (int i = 0; i < 100; ++i) const obs::ScopedTimer span("alloc_count.span");
  });
  EXPECT_EQ(n, 0u);
  const obs::Histogram* h = registry.find_histogram("alloc_count.span.us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 101u);
}

TEST(AllocCount, HistogramLookupCopiesBoundsOnlyOnCreation) {
  obs::MetricsRegistry registry;
  registry.histogram("h", obs::default_time_bounds_us());
  EXPECT_EQ(allocations([&] {
              registry.histogram("h", obs::default_time_bounds_us())
                  .observe(1.0);
            }),
            0u);
}

}  // namespace
}  // namespace sparcle
