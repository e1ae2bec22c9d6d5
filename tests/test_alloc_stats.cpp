// Allocator accounting across every factory name — model AND real
// backends. The harness's %free / %flush / RBF numbers are only as good
// as these counters, and the real backends (EMR_REAL_ALLOC=ON) keep
// their books in a wrapper header rather than the model's own bins, so
// the invariants are asserted per name: alloc/free exactness, the
// remote-free attribution, and the >4096 B large-allocation bypass
// (large blocks skip the caches, so a cross-thread large free is not a
// remote free — there is no thread cache to miss). The grouped-flush
// tests pin the modelled tcache flush itself: one central-lock hold per
// distinct home arena (je) or per 16-block transfer (tc), while the
// flush count, remote attribution, home-only routing and the
// per-foreign-block penalty keep the model's rules.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc/factory.hpp"

namespace {

using namespace emr;

class AllocStatsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (alloc::allocator_backend(GetParam()) ==
        alloc::Backend::kUnavailable) {
      GTEST_SKIP() << "real backend '" << GetParam()
                   << "' not linked into this build";
    }
    alloc::AllocConfig cfg;
    cfg.max_threads = 4;
    a_ = alloc::make_allocator(GetParam(), cfg);
  }

  std::unique_ptr<alloc::Allocator> a_;
};

TEST_P(AllocStatsTest, AllocFreeCountersAreExact) {
  constexpr int kRounds = 257;  // deliberately not a power of two
  std::vector<void*> ptrs;
  for (int i = 0; i < kRounds; ++i) {
    void* p = a_->allocate(0, 240);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, 240);  // the block must actually be writable
    ptrs.push_back(p);
  }
  for (void* p : ptrs) a_->deallocate(0, p);

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(t.n_remote_free, 0u);  // same tid throughout
}

TEST_P(AllocStatsTest, RemoteFreeAttributionFollowsTheAllocatingThread) {
  constexpr int kRemote = 100;
  constexpr int kLocal = 50;
  std::vector<void*> ptrs;
  for (int i = 0; i < kRemote; ++i) ptrs.push_back(a_->allocate(0, 240));
  for (void* p : ptrs) a_->deallocate(1, p);  // freed by a foreign tid
  ptrs.clear();
  for (int i = 0; i < kLocal; ++i) ptrs.push_back(a_->allocate(2, 240));
  for (void* p : ptrs) a_->deallocate(2, p);  // home frees

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kRemote + kLocal));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kRemote + kLocal));
  EXPECT_EQ(t.n_remote_free, static_cast<std::uint64_t>(kRemote));
}

TEST_P(AllocStatsTest, LargeAllocationsBypassRemoteAccounting) {
  // > 4096 B (the largest size class) goes straight to the OS path on
  // every backend; freeing it from another thread must not count as a
  // remote free — there is no tcache involved to pay the RBF cost.
  constexpr int kLarge = 16;
  std::vector<void*> ptrs;
  for (int i = 0; i < kLarge; ++i) {
    void* p = a_->allocate(0, 8192);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xCD, 8192);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) a_->deallocate(3, p);  // cross-tid, but large

  const alloc::AllocTotals t = a_->stats().totals;
  EXPECT_EQ(t.n_alloc, static_cast<std::uint64_t>(kLarge));
  EXPECT_EQ(t.n_free, static_cast<std::uint64_t>(kLarge));
  EXPECT_EQ(t.n_remote_free, 0u);

  // The boundary itself: 4096 is still classed, 4097 is large.
  void* classed = a_->allocate(0, 4096);
  a_->deallocate(1, classed);
  void* large = a_->allocate(0, 4097);
  a_->deallocate(1, large);
  const alloc::AllocTotals t2 = a_->stats().totals;
  EXPECT_EQ(t2.n_remote_free, 1u);  // only the classed block counted
}

TEST_P(AllocStatsTest, MappedBytesTrackLiveMemory) {
  const std::uint64_t base_peak = a_->stats().peak_bytes_mapped;
  void* p = a_->allocate(0, 64 * 1024);  // large: mapped on demand
  ASSERT_NE(p, nullptr);
  const alloc::AllocStats mid = a_->stats();
  EXPECT_GE(mid.bytes_mapped, 64u * 1024u);
  EXPECT_GE(mid.peak_bytes_mapped, mid.bytes_mapped);
  a_->deallocate(0, p);
  const alloc::AllocStats after = a_->stats();
  // The large block is returned; current mapped drops back below the
  // peak, and the peak never decreases.
  EXPECT_LT(after.bytes_mapped, mid.bytes_mapped);
  EXPECT_GE(after.peak_bytes_mapped, base_peak);
  EXPECT_GE(after.peak_bytes_mapped, after.bytes_mapped);
}

// Blocks allocated round-robin on lanes 0..kLanes-1 and all freed on
// lane 0: the (tcache_cap + 1)-th free overflows lane 0's cache, and the
// flush set mixes every lane's blocks.
constexpr int kLanes = 3;
constexpr std::size_t kCap = 128;
constexpr std::size_t kBlock = 240;

alloc::AllocConfig flush_config() {
  alloc::AllocConfig cfg;
  cfg.max_threads = kLanes;
  cfg.tcache_cap = kCap;
  return cfg;
}

struct MixedFlush {
  std::vector<void*> blocks;  // in allocation (== free) order
  std::vector<int> owner;     // lane that allocated blocks[i]
  alloc::AllocTotals before;  // after the allocations
  alloc::AllocTotals after;   // after every free
};

MixedFlush free_mixed_on_lane0(alloc::Allocator& a) {
  MixedFlush f;
  for (std::size_t i = 0; i <= kCap; ++i) {
    const int lane = static_cast<int>(i % kLanes);
    f.blocks.push_back(a.allocate(lane, kBlock));
    f.owner.push_back(lane);
  }
  f.before = a.stats().totals;
  for (void* p : f.blocks) a.deallocate(0, p);
  f.after = a.stats().totals;
  return f;
}

TEST(GroupedFlush, JeTakesOneLockHoldPerHomeArena) {
  auto a = alloc::make_allocator("je_model", flush_config());
  const MixedFlush f = free_mixed_on_lane0(*a);

  // The cache is LIFO and flushes half its capacity: the flush set is
  // the last kCap / 2 blocks freed.
  const std::size_t nmove = kCap / 2;
  std::set<int> homes;
  std::vector<std::size_t> per_home(kLanes, 0);
  for (std::size_t i = f.blocks.size() - nmove; i < f.blocks.size(); ++i) {
    homes.insert(f.owner[i]);
    ++per_home[static_cast<std::size_t>(f.owner[i])];
  }
  ASSERT_EQ(homes.size(), static_cast<std::size_t>(kLanes));

  EXPECT_EQ(f.after.n_flush - f.before.n_flush, 1u);
  std::uint64_t foreign = 0;
  for (int o : f.owner) foreign += o != 0 ? 1 : 0;
  EXPECT_EQ(f.after.n_remote_free - f.before.n_remote_free, foreign);
  EXPECT_EQ(f.after.n_lock - f.before.n_lock, homes.size());

  // Every flushed block went home: a refill on lane k draws only
  // blocks lane k allocated.
  for (int k = 1; k < kLanes; ++k) {
    std::set<void*> mine;
    for (std::size_t i = 0; i < f.blocks.size(); ++i) {
      if (f.owner[i] == k) mine.insert(f.blocks[i]);
    }
    for (std::size_t j = 0; j < per_home[static_cast<std::size_t>(k)]; ++j) {
      void* p = a->allocate(k, kBlock);
      EXPECT_EQ(mine.count(p), 1u) << "lane " << k << " refill #" << j;
    }
  }
}

TEST(GroupedFlush, JeStillPaysThePenaltyPerForeignBlock) {
  alloc::AllocConfig cfg = flush_config();
  cfg.remote_free_penalty_ns = 20000;
  cfg.remote_penalty_explicit = true;
  auto a = alloc::make_allocator("je_model", cfg);
  const MixedFlush f = free_mixed_on_lane0(*a);

  std::uint64_t foreign_flushed = 0;
  for (std::size_t i = f.blocks.size() - kCap / 2; i < f.blocks.size(); ++i) {
    foreign_flushed += f.owner[i] != 0 ? 1 : 0;
  }
  ASSERT_GT(foreign_flushed, 0u);
  EXPECT_GE(f.after.ns_in_flush - f.before.ns_in_flush,
            foreign_flushed * cfg.remote_free_penalty_ns);
}

TEST(GroupedFlush, TcMovesSixteenBlocksPerHold) {
  auto a = alloc::make_allocator("tc_model", flush_config());
  const MixedFlush f = free_mixed_on_lane0(*a);
  // tcmalloc returns the whole overflowing list (kCap + 1 blocks) to
  // its single central arena, 16 blocks per lock hold.
  const std::uint64_t nmove = kCap + 1;
  EXPECT_EQ(f.after.n_flush - f.before.n_flush, 1u);
  EXPECT_EQ(f.after.n_lock - f.before.n_lock, (nmove + 15) / 16);
}

INSTANTIATE_TEST_SUITE_P(
    AllNames, AllocStatsTest,
    ::testing::ValuesIn(alloc::allocator_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;  // je, tc, mi, system, je_model, ...
    });

}  // namespace
