// Safety (mutual exclusion) and liveness (deadlock freedom) property tests
// for every mutex algorithm, via exhaustive bounded-depth exploration and
// seeded random schedules. The simulator throws on any state with two
// processes in their critical sections.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "analysis/explorer.h"
#include "mutex/checkers.h"
#include "sched/sched.h"
#include "mutex/kessels.h"
#include "mutex/lamport_fast.h"
#include "mutex/lamport_packed.h"
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
      {"lamport-packed", LamportPacked::factory(), 64},
  };
}

/// Safety: an unreduced Exhaustive search finds no reachable state of `n`
/// processes, one session each, within `depth` picks that violates mutual
/// exclusion. Visited pruning is sound for reachability — its key is the
/// memory plus every process's observation history, so equal keys also
/// mean equal depth. Liveness: round-robin finishes from the initial state
/// and after each seed's `seed % 25` random picks, so seeds 0..199 preempt
/// at every depth up to 24.
void expect_safe_and_live(const AlgCase& alg, int n, int depth) {
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = ReductionPolicy::Off;
  cfg.setup = [make = alg.factory, n](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, n, /*sessions=*/1);
  };
  const ExploreStats res = Explorer(cfg).run().stats;
  EXPECT_EQ(res.violations, 0u) << alg.name << " n=" << n;
  EXPECT_FALSE(res.state_budget_hit) << alg.name << " n=" << n;
  std::vector<std::uint64_t> seeds(200);
  std::iota(seeds.begin(), seeds.end(), 0);
  EXPECT_TRUE(deadlock_free_under_fair_schedules(alg.factory, n,
                                                 /*sessions=*/1, seeds))
      << alg.name << " n=" << n;
}

class MutexSafety : public ::testing::TestWithParam<int> {};

TEST_P(MutexSafety, TwoProcessExhaustiveExploration) {
  const auto algs = all_algorithms();
  expect_safe_and_live(algs[static_cast<std::size_t>(GetParam())], /*n=*/2,
                       /*depth=*/32);
}

TEST_P(MutexSafety, ThreeProcessExhaustiveExploration) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  if (alg.max_n < 3) {
    GTEST_SKIP() << alg.name << " supports only 2 processes";
  }
  expect_safe_and_live(alg, /*n=*/3, /*depth=*/16);
}

// At n=3 both Lamport trees are one node (lamport-tree-l2 groups three
// processes per node, lamport-tree-l3-paper eight), so the n=3 searches
// above never leave the flat Lamport algorithm. lamport-tree-l2 has an
// upper node from n=4. lamport-tree-l3-paper needs n >= 9 for one, which
// is out of an exhaustive search's reach. The clean-entry register
// maximum shows that the n=4 search reaches the upper node: 6 registers,
// against the single node's 5 at n=3.
TEST(LamportTreeSafety, FourProcessSearchReachesTheUpperNode) {
  const auto clean_entry_registers = [](int n, int depth) {
    Explorer::Config cfg;
    cfg.nprocs = n;
    cfg.limits.max_depth = depth;
    cfg.limits.reduction = ReductionPolicy::Off;
    cfg.setup = [n](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, theorem3_factory(2), n, /*sessions=*/1);
    };
    cfg.objective.eval = [n](const Sim&, const MeasureAccumulator& acc) {
      ComplexityReport entry;
      for (Pid pid = 0; pid < n; ++pid) {
        entry = entry.max_with(acc.clean_entry_max(pid));
      }
      return std::vector<ComplexityReport>{entry};
    };
    cfg.objective.digest = [](const MeasureAccumulator& acc) {
      return acc.window_digest();
    };
    const Explorer::Result r = Explorer(cfg).run();
    EXPECT_EQ(r.stats.violations, 0u) << "n=" << n;
    EXPECT_FALSE(r.stats.state_budget_hit) << "n=" << n;
    return r.best.at(0).registers;
  };
  EXPECT_EQ(clean_entry_registers(3, 16), 5);
  EXPECT_EQ(clean_entry_registers(4, 18), 6);
}

TEST_P(MutexSafety, RandomSchedulesManySeeds) {
  const auto algs = all_algorithms();
  const AlgCase& alg = algs[static_cast<std::size_t>(GetParam())];
  const int n = std::min(alg.max_n, 5);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Sim sim;
    auto a = setup_mutex(sim, alg.factory, n, /*sessions=*/2);
    RandomScheduler rnd(seed);
    // The ME invariant check throws on violation; every run must finish.
    RunOutcome out = RunOutcome::BudgetExhausted;
    EXPECT_NO_THROW(out = drive(sim, rnd, RunLimits{500'000}))
        << alg.name << " seed " << seed;
    EXPECT_EQ(out, RunOutcome::AllDone) << alg.name << " seed " << seed;
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

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MutexSafety,
                         ::testing::Range(0, static_cast<int>(
                                                 all_algorithms().size())),
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
// concurrent runs above use at most 5 processes, below the group sizes
// that reach it; these are the Theorem 3 trees and seeds at which the
// leaf-to-root release admitted two processes to the critical section.
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

}  // namespace
}  // namespace cfc
