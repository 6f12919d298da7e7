// Unit tests for the strict-2PL lock manager.
#include "cc/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"

namespace vp::cc {
namespace {

constexpr sim::Duration kTimeout = sim::Millis(100);

struct Fixture {
  obs::MetricsRegistry metrics{obs::RegistryMode::kSerial};
  sim::Scheduler scheduler;
  runtime::SimExecutor executor{&scheduler};
  LockManager lm{&executor, nullptr, &metrics};

  /// Lock counters ("lock.*") of this fixture's manager alone.
  uint64_t Count(const char* name) const {
    return metrics.Snapshot().CounterValue(name);
  }

  Status AcquireNow(TxnId t, ObjectId o, LockMode m) {
    Status result = Status::Internal("callback never ran");
    lm.Acquire(t, o, m, kTimeout, [&](Status s) { result = s; });
    return result;  // Synchronous grant path only.
  }
};

TEST(LockManager, SharedLocksCoexist) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.AcquireNow({2, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.lm.Holds({1, 1}, 0, LockMode::kShared));
  EXPECT_TRUE(f.lm.Holds({2, 1}, 0, LockMode::kShared));
  EXPECT_FALSE(f.lm.IsWriteLocked(0));
}

TEST(LockManager, ExclusiveBlocksShared) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  EXPECT_TRUE(f.lm.IsWriteLocked(0));
  bool granted = false;
  f.lm.Acquire({2, 1}, 0, LockMode::kShared, kTimeout,
               [&](Status s) { granted = s.ok(); });
  EXPECT_FALSE(granted);  // Queued.
  f.lm.ReleaseAll({1, 1});
  EXPECT_TRUE(granted);  // Woken on release.
}

TEST(LockManager, SharedBlocksExclusive) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  bool granted = false;
  f.lm.Acquire({2, 1}, 0, LockMode::kExclusive, kTimeout,
               [&](Status s) { granted = s.ok(); });
  EXPECT_FALSE(granted);
  f.lm.ReleaseAll({1, 1});
  EXPECT_TRUE(granted);
  EXPECT_TRUE(f.lm.IsWriteLocked(0));
}

TEST(LockManager, ReentrantAcquisition) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());  // Upgrade.
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());  // X covers S.
  EXPECT_EQ(f.Count("lock.upgrades"), 1u);
}

TEST(LockManager, SoleHolderUpgrades) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  EXPECT_TRUE(f.lm.IsWriteLocked(0));
}

TEST(LockManager, ContestedUpgradeWaits) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kShared).ok());
  EXPECT_TRUE(f.AcquireNow({2, 1}, 0, LockMode::kShared).ok());
  bool granted = false;
  f.lm.Acquire({1, 1}, 0, LockMode::kExclusive, kTimeout,
               [&](Status s) { granted = s.ok(); });
  EXPECT_FALSE(granted);
  f.lm.ReleaseAll({2, 1});
  EXPECT_TRUE(granted);
}

TEST(LockManager, QueueIsFifoNoBarging) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  std::vector<int> order;
  f.lm.Acquire({2, 1}, 0, LockMode::kExclusive, kTimeout,
               [&](Status s) { if (s.ok()) order.push_back(2); });
  // A shared request behind a queued exclusive must not barge past it.
  f.lm.Acquire({3, 1}, 0, LockMode::kShared, kTimeout,
               [&](Status s) { if (s.ok()) order.push_back(3); });
  f.lm.ReleaseAll({1, 1});
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
  f.lm.ReleaseAll({2, 1});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 3);
}

TEST(LockManager, WaiterTimesOut) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  Status result;
  f.lm.Acquire({2, 1}, 0, LockMode::kShared, kTimeout,
               [&](Status s) { result = s; });
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(result.IsTimeout());
  EXPECT_EQ(f.Count("lock.timeouts"), 1u);
  // The holder is unaffected.
  EXPECT_TRUE(f.lm.Holds({1, 1}, 0, LockMode::kExclusive));
}

TEST(LockManager, DeadlockBrokenByTimeout) {
  Fixture f;
  // T1 holds A, T2 holds B; each requests the other: a classic deadlock.
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  EXPECT_TRUE(f.AcquireNow({2, 1}, 1, LockMode::kExclusive).ok());
  Status r1, r2;
  f.lm.Acquire({1, 1}, 1, LockMode::kExclusive, kTimeout,
               [&](Status s) { r1 = s; });
  f.lm.Acquire({2, 1}, 0, LockMode::kExclusive, kTimeout,
               [&](Status s) { r2 = s; });
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(r1.IsTimeout());
  EXPECT_TRUE(r2.IsTimeout());
}

TEST(LockManager, ReleaseAllDropsQueuedRequests) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  bool fired = false;
  f.lm.Acquire({2, 1}, 0, LockMode::kShared, kTimeout,
               [&](Status) { fired = true; });
  // Aborting T2 removes its queued request without firing the callback.
  f.lm.ReleaseAll({2, 1});
  f.lm.ReleaseAll({1, 1});
  f.scheduler.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(LockManager, ReleaseWakesMultipleSharedWaiters) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  int granted = 0;
  for (uint64_t i = 2; i <= 4; ++i) {
    f.lm.Acquire({i, 1}, 0, LockMode::kShared, kTimeout,
                 [&](Status s) { granted += s.ok() ? 1 : 0; });
  }
  f.lm.ReleaseAll({1, 1});
  EXPECT_EQ(granted, 3);
}

TEST(LockManager, ReleaseAllFreesEveryObject) {
  Fixture f;
  for (ObjectId o = 0; o < 5; ++o) {
    EXPECT_TRUE(f.AcquireNow({1, 1}, o, LockMode::kExclusive).ok());
  }
  f.lm.ReleaseAll({1, 1});
  for (ObjectId o = 0; o < 5; ++o) {
    EXPECT_FALSE(f.lm.IsWriteLocked(o));
    EXPECT_TRUE(f.AcquireNow({2, 1}, o, LockMode::kExclusive).ok());
  }
}

TEST(LockManager, StatsTrackWaitsAndGrants) {
  Fixture f;
  EXPECT_TRUE(f.AcquireNow({1, 1}, 0, LockMode::kExclusive).ok());
  f.lm.Acquire({2, 1}, 0, LockMode::kShared, kTimeout, [](Status) {});
  f.lm.ReleaseAll({1, 1});
  EXPECT_EQ(f.Count("lock.grants"), 2u);
  EXPECT_EQ(f.Count("lock.waits"), 1u);
}

}  // namespace
}  // namespace vp::cc
