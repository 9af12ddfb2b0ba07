// Tests for the support layer: the lock-rank checker (ordered acquisition
// passes, inversions are reported, release builds compile the checks out
// of Mutex), the annotated Mutex/MutexLock/CondVar wrappers, and the
// violation policy plumbing.
//
// The checker's entry points (lock_rank::note_*) are compiled in every
// build, so the detection tests run regardless of NDEBUG; only the tests
// that go through support::Mutex itself condition on rank_checks_enabled().

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/lock_rank.hpp"
#include "support/lock_ranks.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace support = hetero::support;
namespace lock_rank = hetero::support::lock_rank;

namespace {

// Switches the process-wide policy to throw_exception for one test and
// restores the previous policy on exit, so a failing test cannot leak the
// test policy into later ones.
class ThrowPolicyScope {
 public:
  ThrowPolicyScope()
      : previous_(support::set_rank_violation_policy(
            support::RankViolationPolicy::throw_exception)) {}
  ~ThrowPolicyScope() { support::set_rank_violation_policy(previous_); }

 private:
  support::RankViolationPolicy previous_;
};

// Distinct identity tokens for checker-level tests (the checker only uses
// the address, never dereferences).
int token_a, token_b, token_c;

// Pops any sites a failed expectation may have left on the thread-local
// stack, so one test's residue cannot fail its neighbors.
void release_all_tokens() {
  lock_rank::note_release(&token_a);
  lock_rank::note_release(&token_b);
  lock_rank::note_release(&token_c);
}

TEST(LockRankChecker, OrderedAcquisitionPasses) {
  ThrowPolicyScope policy;
  EXPECT_EQ(lock_rank::held_count(), 0u);
  EXPECT_EQ(lock_rank::max_held_rank(), lock_rank::kNoRank);

  EXPECT_NO_THROW(lock_rank::note_acquire(&token_a, 100, "a"));
  EXPECT_EQ(lock_rank::held_count(), 1u);
  EXPECT_EQ(lock_rank::max_held_rank(), 100);

  EXPECT_NO_THROW(lock_rank::note_acquire(&token_b, 200, "b"));
  EXPECT_EQ(lock_rank::held_count(), 2u);
  EXPECT_EQ(lock_rank::max_held_rank(), 200);

  lock_rank::note_release(&token_b);
  EXPECT_EQ(lock_rank::max_held_rank(), 100);
  lock_rank::note_release(&token_a);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankChecker, InversionIsReported) {
  ThrowPolicyScope policy;
  lock_rank::note_acquire(&token_b, 200, "b");
  EXPECT_THROW(lock_rank::note_acquire(&token_a, 100, "a"),
               support::RankViolationError);
  // The failed acquisition must not have joined the held set.
  EXPECT_EQ(lock_rank::held_count(), 1u);
  release_all_tokens();
}

TEST(LockRankChecker, EqualRankIsReported) {
  // Sideways acquisition (two mutexes of one rank class, e.g. two cache
  // shards) is a potential ABBA deadlock and must be flagged like a
  // downward one.
  ThrowPolicyScope policy;
  lock_rank::note_acquire(&token_a, 200, "shard-1");
  EXPECT_THROW(lock_rank::note_acquire(&token_b, 200, "shard-2"),
               support::RankViolationError);
  release_all_tokens();
}

TEST(LockRankChecker, ReacquisitionIsReported) {
  ThrowPolicyScope policy;
  lock_rank::note_acquire(&token_a, 100, "a");
  EXPECT_THROW(lock_rank::note_acquire(&token_a, 100, "a"),
               support::RankViolationError);
  release_all_tokens();
}

TEST(LockRankChecker, UncheckedAcquireSkipsOrderingButJoinsHeldSet) {
  ThrowPolicyScope policy;
  lock_rank::note_acquire(&token_b, 200, "b");
  // A try_lock-style acquisition may go downward...
  EXPECT_NO_THROW(lock_rank::note_acquire_unchecked(&token_a, 100, "a"));
  EXPECT_EQ(lock_rank::held_count(), 2u);
  // ...but later blocking acquisitions are checked against everything
  // held, including it.
  EXPECT_THROW(lock_rank::note_acquire(&token_c, 150, "c"),
               support::RankViolationError);
  release_all_tokens();
}

TEST(LockRankChecker, OverflowIsReported) {
  ThrowPolicyScope policy;
  std::vector<int> tokens(lock_rank::kMaxHeld + 1);
  std::size_t acquired = 0;
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          lock_rank::note_acquire(&tokens[i], static_cast<int>(i), "deep");
          ++acquired;
        }
      },
      support::RankViolationError);
  EXPECT_EQ(acquired, lock_rank::kMaxHeld);
  for (std::size_t i = 0; i < acquired; ++i)
    lock_rank::note_release(&tokens[i]);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(LockRankChecker, StateIsPerThread) {
  ThrowPolicyScope policy;
  lock_rank::note_acquire(&token_b, 200, "b");
  // Another thread holds nothing, so a lower-rank acquisition there is
  // perfectly ordered.
  std::thread other([] {
    EXPECT_EQ(lock_rank::held_count(), 0u);
    EXPECT_NO_THROW(lock_rank::note_acquire(&token_a, 100, "a"));
    lock_rank::note_release(&token_a);
  });
  other.join();
  release_all_tokens();
}

TEST(LockRankChecker, ReleaseOfUnknownSiteIsIgnored) {
  EXPECT_EQ(lock_rank::held_count(), 0u);
  lock_rank::note_release(&token_a);  // must be a harmless no-op
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(Mutex, ChecksCompiledPerBuildType) {
  // In release builds (NDEBUG, no HETERO_FORCE_LOCK_RANK_CHECKS) the Mutex
  // fast path must not call the checker at all; in debug builds it must.
#if defined(NDEBUG) && !defined(HETERO_FORCE_LOCK_RANK_CHECKS)
  EXPECT_FALSE(support::Mutex::rank_checks_enabled());
#else
  EXPECT_TRUE(support::Mutex::rank_checks_enabled());
#endif
}

TEST(Mutex, LockUnlockRoundTrip) {
  support::Mutex m(100, "test");
  EXPECT_EQ(m.rank(), 100);
  EXPECT_STREQ(m.name(), "test");
  m.lock();
  if (support::Mutex::rank_checks_enabled()) {
    EXPECT_EQ(lock_rank::held_count(), 1u);
  }
  m.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(Mutex, DetectsInversionWhenChecksEnabled) {
  if (!support::Mutex::rank_checks_enabled())
    GTEST_SKIP() << "rank checks compiled out (release build)";
  ThrowPolicyScope policy;
  support::Mutex low(100, "low");
  support::Mutex high(200, "high");

  // In order: fine.
  {
    const support::MutexLock outer(low);
    const support::MutexLock inner(high);
  }
  EXPECT_EQ(lock_rank::held_count(), 0u);

  // Inverted: the second acquisition must throw *before* taking the lock,
  // leaving only the outer mutex held.
  high.lock();
  EXPECT_THROW(low.lock(), support::RankViolationError);
  high.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
  // The rejected mutex must still be acquirable (it was never locked).
  low.lock();
  low.unlock();
}

TEST(Mutex, TryLockIsExemptFromOrderingButTracked) {
  if (!support::Mutex::rank_checks_enabled())
    GTEST_SKIP() << "rank checks compiled out (release build)";
  ThrowPolicyScope policy;
  support::Mutex low(100, "low");
  support::Mutex high(200, "high");

  high.lock();
  ASSERT_TRUE(low.try_lock());  // downward, but non-blocking: allowed
  EXPECT_EQ(lock_rank::held_count(), 2u);
  low.unlock();
  high.unlock();

  // A try_lock that fails must leave no trace.
  low.lock();
  std::thread other([&] { EXPECT_FALSE(low.try_lock()); });
  other.join();
  low.unlock();
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

TEST(Mutex, RegistryRanksAreStrictlyLayered) {
  // The registry encodes pipeline -> compute -> delivery; a refactor that
  // reorders it should have to update this test deliberately.
  EXPECT_LT(support::kRankStreamSession, support::kRankCacheShard);
  EXPECT_LT(support::kRankCacheShard, support::kRankPoolQueue);
  EXPECT_LT(support::kRankPoolQueue, support::kRankParallelForState);
  EXPECT_LT(support::kRankParallelForState, support::kRankStreamOut);
  EXPECT_LT(support::kRankStreamOut, support::kRankStreamFlight);
  EXPECT_LT(support::kRankStreamFlight, support::kRankConnWriter);
  EXPECT_LT(support::kRankConnWriter, support::kRankWorkerChannel);
}

// A minimal producer/consumer over Mutex+CondVar, annotated the way the
// production code is: guarded state accessed only under the lock, waits in
// explicit predicate loops.
class Mailbox {
 public:
  void put(int v) {
    {
      support::MutexLock lock(mutex_);
      while (full_) cv_.wait(lock);  // one-slot box: wait for the consumer
      value_ = v;
      full_ = true;
    }
    cv_.notify_all();
  }

  int take() {
    int v;
    {
      support::MutexLock lock(mutex_);
      while (!full_) cv_.wait(lock);
      v = value_;
      full_ = false;
    }
    cv_.notify_all();
    return v;
  }

 private:
  support::Mutex mutex_{100, "mailbox"};
  support::CondVar cv_;
  int value_ HETERO_GUARDED_BY(mutex_) = 0;
  bool full_ HETERO_GUARDED_BY(mutex_) = false;
};

TEST(CondVar, WaitNotifyAcrossThreads) {
  Mailbox box;
  std::thread producer([&] {
    for (int i = 1; i <= 100; ++i) box.put(i);
  });
  int last = 0;
  for (int i = 1; i <= 100; ++i) last = box.take();
  producer.join();
  EXPECT_EQ(last, 100);
  EXPECT_EQ(lock_rank::held_count(), 0u);
}

}  // namespace
