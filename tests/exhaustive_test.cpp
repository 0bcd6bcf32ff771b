// Exhaustive bounded-depth verification of the two-process algorithms:
// every interleaving up to the depth bound, walked by an unreduced
// Explorer search without visited pruning, so every leaf is one schedule
// and the leaf counts below are the size of the schedule tree. This is the
// strongest safety evidence in the suite — at these depths the
// non-waiting paths are covered completely.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "analysis/explorer.h"
#include "mutex/kessels.h"
#include "mutex/lamport_fast.h"
#include "mutex/lamport_packed.h"
#include "mutex/peterson.h"
#include "mutex/tas_lock.h"
#include "mutex/tournament.h"

namespace cfc {
namespace {

/// Walks every two-process schedule of at most `depth` picks and checks
/// the mutual-exclusion invariant along each: no violation, and exactly
/// the pinned numbers of completed and depth-truncated schedules.
void expect_all_interleavings_safe(const MutexFactory& make, int sessions,
                                   int depth, std::uint64_t completed,
                                   std::uint64_t truncated) {
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.limits.max_depth = depth;
  cfg.limits.prune_visited = false;
  cfg.limits.reduction = ReductionPolicy::Off;
  cfg.setup = [make, sessions](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 2, sessions);
  };
  const ExploreStats stats = Explorer(cfg).run().stats;
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.runs_completed, completed);
  EXPECT_EQ(stats.runs_truncated, truncated);
  EXPECT_FALSE(stats.state_budget_hit);
}

TEST(Exhaustive, PetersonAllInterleavingsDepth16) {
  // Depth 16 covers every completed run of one session each (max 12 picks
  // on non-spinning paths) plus every spin prefix up to the bound.
  expect_all_interleavings_safe(Peterson::factory(), /*sessions=*/1, 16, 882,
                                10'606);
}

TEST(Exhaustive, KesselsAllInterleavingsDepth16) {
  expect_all_interleavings_safe(Kessels::factory(), 1, 16, 696, 27'458);
}

TEST(Exhaustive, LamportAllInterleavingsDepth16) {
  expect_all_interleavings_safe(LamportFast::factory(), 1, 16, 312, 41'522);
}

TEST(Exhaustive, LamportPackedAllInterleavingsDepth16) {
  // The packed variant makes the same scheduling decisions as the plain
  // one, so its schedule tree has the same shape.
  expect_all_interleavings_safe(LamportPacked::factory(), 1, 16, 312,
                                41'522);
}

TEST(Exhaustive, TasLockAllInterleavingsDepth14) {
  expect_all_interleavings_safe(TasLock::factory(), 1, 14, 90, 94);
}

TEST(Exhaustive, PetersonTwoSessionsDepth20) {
  // Two sessions of five picks each per process need >= 20 picks, so only
  // the tightest interleavings complete inside the bound — but every
  // reachable 20-step prefix is still checked.
  expect_all_interleavings_safe(Peterson::factory(), /*sessions=*/2, 20, 516,
                                979'256);
}

TEST(Exhaustive, PetersonTreeTwoProcessesDepth18) {
  // A 2-leaf tournament degenerates to its root node; the exhaustive sweep
  // checks the tree plumbing end to end.
  expect_all_interleavings_safe(TournamentMutex::peterson_tree(), 1, 18,
                                2'688, 19'952);
}

// The leaf-to-root tournament release bug structurally needs a third
// process from the opposite subtree; it is covered by the random-schedule
// regression in mutex_safety_test. That a search finds violations when
// they exist is Explorer.FindsMutualExclusionViolationInBrokenLock.

}  // namespace
}  // namespace cfc
