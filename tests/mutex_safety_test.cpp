// Safety (mutual exclusion) and liveness (deadlock freedom) property tests
// for every mutex algorithm, via preemption-bounded systematic exploration
// and seeded random schedules. The simulator throws on any state with two
// processes in their critical sections.
#include <gtest/gtest.h>

#include "mutex/checkers.h"
#include "sched/sched.h"
#include "mutex/kessels.h"
#include "mutex/lamport_fast.h"
#include "mutex/lamport_tree.h"
#include "mutex/peterson.h"
#include "mutex/tas_lock.h"
#include "mutex/tournament.h"

namespace cfc {
namespace {

struct AlgCase {
  const char* name;
  MutexFactory factory;
  int max_n;
};

std::vector<AlgCase> all_algorithms() {
  return {
      {"peterson", Peterson::factory(), 2},
      {"kessels", Kessels::factory(), 2},
      {"lamport", LamportFast::factory(), 64},
      {"peterson-tree", TournamentMutex::peterson_tree(), 64},
      {"kessels-tree", TournamentMutex::kessels_tree(), 64},
      {"lamport-tree-l2", theorem3_factory(2), 64},
      {"lamport-tree-l3-paper", theorem3_factory(3, TreeArity::PaperLiteral),
       64},
      {"tas-lock", TasLock::factory(), 64},
  };
}

class MutexSafety : public ::testing::TestWithParam<int> {};

TEST_P(MutexSafety, TwoProcessBoundedPreemptionExploration) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  const ExplorationResult res = explore_bounded_preemption(
      alg.factory, /*n=*/2, /*sessions=*/1, /*max_segments=*/4,
      /*max_segment_len=*/6);
  EXPECT_EQ(res.violations, 0u) << alg.name;
  EXPECT_EQ(res.incomplete_runs, 0u) << alg.name;
  EXPECT_GT(res.plans_run, 1000u);
}

TEST_P(MutexSafety, ThreeProcessBoundedPreemptionExploration) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  if (alg.max_n < 3) {
    GTEST_SKIP() << alg.name << " supports only 2 processes";
  }
  const ExplorationResult res = explore_bounded_preemption(
      alg.factory, /*n=*/3, /*sessions=*/1, /*max_segments=*/3,
      /*max_segment_len=*/5);
  EXPECT_EQ(res.violations, 0u) << alg.name;
  EXPECT_EQ(res.incomplete_runs, 0u) << alg.name;
}

TEST_P(MutexSafety, RandomSchedulesManySeeds) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  const int n = std::min(alg.max_n, 5);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Sim sim;
    auto a = setup_mutex(sim, alg.factory, n, /*sessions=*/2);
    RandomScheduler rnd(seed);
    // The ME invariant check throws on violation.
    EXPECT_NO_THROW(drive(sim, rnd, RunLimits{500'000})) << alg.name;
  }
}

TEST_P(MutexSafety, DeadlockFreeUnderFairSchedules) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  const int n = std::min(alg.max_n, 4);
  EXPECT_TRUE(deadlock_free_under_fair_schedules(
      alg.factory, n, /*sessions=*/3, {1, 2, 3, 4, 5, 6, 7, 8}))
      << alg.name;
}

TEST_P(MutexSafety, SoloSessionsComplete) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  EXPECT_TRUE(completes_solo_sessions(alg.factory, std::min(alg.max_n, 8)))
      << alg.name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MutexSafety, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           static const auto algs = all_algorithms();
                           std::string name =
                               algs[static_cast<std::size_t>(pinfo.param)]
                                   .name;
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

// Regression for a pitfall found while reproducing Theorem 3: the paper
// phrases the tree exit as "execute the exit code in all the nodes in its
// path from the leaf to the root". That order is unsafe for Peterson nodes
// — a same-subtree successor reaches an upper node after the leaf release,
// and the exiting process's later release of the shared side erases the
// successor's intent flag. Random schedules find the double-CS reliably.
// It is unsafe for Lamport nodes too (next test), so both trees release
// root to leaf.
TEST(TournamentExitOrder, LeafToRootIsUnsafeForPetersonNodes) {
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 40 && violations == 0; ++seed) {
    Sim sim;
    auto alg = setup_mutex(
        sim, TournamentMutex::peterson_tree(ReleaseOrder::LeafToRoot),
        /*n=*/5, /*sessions=*/2);
    RandomScheduler rnd(seed);
    try {
      drive(sim, rnd, RunLimits{500'000});
    } catch (const MutualExclusionViolation&) {
      violations += 1;
    }
  }
  EXPECT_GT(violations, 0);
}

// The Lamport-node analogue: under leaf-to-root release a same-group
// successor wins the released leaf and enters an upper Lamport node under
// the exiting process's local id before that process has exited it. The
// explorations above cap n at 5, below the group sizes that reach it;
// these are the Theorem 3 trees and seeds at which the leaf-to-root
// release admitted two processes to the critical section.
TEST(TournamentExitOrder, LamportTreeReleasesRootToLeaf) {
  struct Case {
    const char* name;
    MutexFactory factory;
    int n;
  };
  const Case cases[] = {
      {"thm3-paper-l1", theorem3_factory(1, TreeArity::PaperLiteral), 16},
      {"thm3-exact-l2", theorem3_factory(2, TreeArity::ExactAtomicity), 64},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Sim sim;
      auto alg = setup_mutex(sim, c.factory, c.n, /*sessions=*/2);
      RandomScheduler rnd(seed);
      EXPECT_NO_THROW(drive(sim, rnd, RunLimits{200'000}))
          << c.name << " n=" << c.n << " seed=" << seed;
    }
  }
}

// A deliberately broken "mutex" (no synchronization at all): the bounded
// preemption explorer must find the violation — evidence the checker works.
TEST(MutexSafetyChecker, CatchesBrokenAlgorithm) {
  class NoMutex final : public MutexAlgorithm {
   public:
    explicit NoMutex(RegisterFile& mem) { r_ = mem.add_bit("nomutex.r"); }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);  // looks busy, guarantees nothing
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
      co_await enter(ctx, slot);
      co_return 1;
    }
    [[nodiscard]] int capacity() const override { return 1 << 20; }
    [[nodiscard]] int atomicity() const override { return 1; }
    [[nodiscard]] std::string algorithm_name() const override {
      return "broken";
    }

   private:
    RegId r_;
  };
  MutexFactory broken = [](RegisterFile& mem, int) {
    return std::make_unique<NoMutex>(mem);
  };
  const ExplorationResult res =
      explore_bounded_preemption(broken, 2, 1, 2, 3);
  EXPECT_GT(res.violations, 0u);
}

}  // namespace
}  // namespace cfc
