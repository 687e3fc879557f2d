// The ring under EventTrace, SpanLog and FlightRecorder: push order below
// capacity, oldest-first overwrite once full, the lifetime count, clear and
// reset, and lossless concurrent pushes.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/bounded_ring.hpp"

namespace spca {
namespace {

TEST(BoundedRing, KeepsPushOrderBelowCapacity) {
  BoundedRing<int> ring(8);
  EXPECT_TRUE(ring.snapshot().items.empty());
  for (int i = 0; i < 5; ++i) ring.push(i);
  EXPECT_EQ(ring.snapshot().items, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BoundedRing, OverwritesTheOldestOnceFull) {
  BoundedRing<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  // The four newest survive, oldest first.
  EXPECT_EQ(ring.snapshot().items, (std::vector<int>{6, 7, 8, 9}));
  ring.push(10);
  EXPECT_EQ(ring.snapshot().items, (std::vector<int>{7, 8, 9, 10}));
}

TEST(BoundedRing, LifetimeCountNumbersTheSurvivors) {
  BoundedRing<std::uint64_t> ring(3);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ring.push(i);
    EXPECT_EQ(ring.recorded(), i + 1);
  }
  // The snapshot's count is taken under the same lock as its items, so
  // it numbers them: items[i] was push recorded - size + i.
  const BoundedRing<std::uint64_t>::Snapshot snap = ring.snapshot();
  EXPECT_EQ(snap.recorded, 1000u);
  ASSERT_EQ(snap.items.size(), 3u);
  for (std::size_t i = 0; i < snap.items.size(); ++i) {
    EXPECT_EQ(snap.items[i], snap.recorded - snap.items.size() + i);
  }
}

TEST(BoundedRing, ClearAndResetEmptyTheRingAndTheLifetimeCount) {
  BoundedRing<int> ring(4);
  for (int i = 0; i < 6; ++i) ring.push(i);
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().items.empty());
  // A cleared ring fills from slot 0 again.
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.snapshot().items, (std::vector<int>{0, 1, 2}));

  // reset() also changes the capacity.
  ring.reset(2);
  EXPECT_EQ(ring.recorded(), 0u);
  for (int i = 0; i < 5; ++i) ring.push(i);
  EXPECT_EQ(ring.snapshot().items, (std::vector<int>{3, 4}));
  EXPECT_EQ(ring.recorded(), 5u);
}

TEST(BoundedRing, ConcurrentPushersLoseNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  BoundedRing<int> ring(1 << 16);
  std::vector<std::thread> pushers;
  pushers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pushers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerThread; ++i) ring.push(w * kPerThread + i);
    });
  }
  for (std::thread& t : pushers) t.join();

  const BoundedRing<int>::Snapshot snap = ring.snapshot();
  EXPECT_EQ(snap.recorded, static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.items.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Every push landed exactly once, and each pusher's own pushes kept
  // their order.
  std::vector<int> next(kThreads, 0);
  for (const int value : snap.items) {
    const int w = value / kPerThread;
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kThreads);
    EXPECT_EQ(value % kPerThread, next[static_cast<std::size_t>(w)]++);
  }
  for (const int count : next) EXPECT_EQ(count, kPerThread);
}

}  // namespace
}  // namespace spca
