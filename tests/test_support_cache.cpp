// LruCache: the shared machinery under the kernel caches.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/lru_cache.h"

namespace fullweb::support {
namespace {

TEST(LruCache, BuildsOncePerKeyAndCachesIt) {
  LruCache<int, int> cache(4);
  int builds = 0;
  auto factory = [&](int k) {
    return [&builds, k] {
      ++builds;
      return std::make_shared<const int>(k * 10);
    };
  };
  EXPECT_EQ(*cache.get_or_create(1, factory(1)), 10);
  EXPECT_EQ(*cache.get_or_create(1, factory(1)), 10);
  EXPECT_EQ(*cache.get_or_create(2, factory(2)), 20);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2U);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  int builds = 0;
  auto factory = [&](int k) {
    return [&builds, k] {
      ++builds;
      return std::make_shared<const int>(k);
    };
  };
  cache.get_or_create(1, factory(1));
  cache.get_or_create(2, factory(2));
  cache.get_or_create(1, factory(1));  // touch 1: now 2 is the LRU entry
  cache.get_or_create(3, factory(3));  // evicts 2
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(builds, 3);
  cache.get_or_create(1, factory(1));  // still cached
  EXPECT_EQ(builds, 3);
  cache.get_or_create(2, factory(2));  // was evicted: rebuilt
  EXPECT_EQ(builds, 4);
}

TEST(LruCache, EvictedValueStaysAliveWhileHeld) {
  LruCache<int, std::vector<int>> cache(1);
  auto held = cache.get_or_create(
      1, [] { return std::make_shared<const std::vector<int>>(3, 7); });
  cache.get_or_create(
      2, [] { return std::make_shared<const std::vector<int>>(1, 9); });
  EXPECT_EQ(cache.size(), 1U);       // entry 1 evicted from the cache...
  EXPECT_EQ(held->at(2), 7);         // ...but the shared value survives
}

TEST(LruCache, ConcurrentGetOrCreateYieldsOneCanonicalValue) {
  LruCache<int, int> cache(4);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}
      seen[t] = cache.get_or_create(
          42, [] { return std::make_shared<const int>(420); });
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(*seen[t], 420);
    EXPECT_EQ(seen[t].get(), seen[0].get());  // all share one object
  }
}

}  // namespace
}  // namespace fullweb::support
