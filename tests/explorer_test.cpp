// Exploration correctness: the bounded exhaustive explorer must (a) certify
// worst-case values no smaller than any random search over the same
// configuration, (b) reproduce the contention the scripted Lemma-2 merge
// adversary constructs, (c) be bit-identical across thread counts, and
// (d) still find safety violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "core/adversary.h"
#include "analysis/explorer.h"
#include "core/algorithm_registry.h"
#include "core/contention_detection.h"
#include "mutex/peterson.h"
#include "mutex/tas_lock.h"

namespace cfc {
namespace {

WorstCaseSearchOptions exhaustive_opts(int depth) {
  WorstCaseSearchOptions o;
  o.strategy = SearchStrategy::Exhaustive;
  o.limits.max_depth = depth;
  return o;
}

WorstCaseSearchOptions random_opts(std::uint64_t budget, int nseeds) {
  WorstCaseSearchOptions o;
  o.strategy = SearchStrategy::Random;
  o.budget_per_run = budget;
  o.seeds.clear();
  for (int i = 1; i <= nseeds; ++i) {
    o.seeds.push_back(static_cast<std::uint64_t>(i));
  }
  return o;
}

// Every random schedule of <= depth picks is one path of the exhaustive
// tree, so the exhaustive maxima dominate the random maxima field by field.
// This exercises the soundness of visited-state pruning: an unsound merge
// would let the random search win.
TEST(Explorer, ExhaustiveDominatesRandomOnSameDepth) {
  const int depth = 20;
  const MutexFactory make = Peterson::factory();
  const MutexWcSearchResult ex =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(depth));
  const MutexWcSearchResult rnd =
      search_mutex_worst_case(make, 2, 1, random_opts(depth, 32));
  EXPECT_TRUE(ex.certified);
  EXPECT_FALSE(rnd.certified);
  EXPECT_GE(ex.entry.steps, rnd.entry.steps);
  EXPECT_GE(ex.entry.registers, rnd.entry.registers);
  EXPECT_GE(ex.exit.steps, rnd.exit.steps);
  EXPECT_GE(ex.exit.registers, rnd.exit.registers);
}

TEST(Explorer, CertifiesPetersonWorstCaseWindows) {
  const MutexWcSearchResult ex =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(20));
  // Clean-entry register complexity is bounded by the three shared bits and
  // certified exactly; the exit code is the single flag write.
  EXPECT_EQ(ex.entry.registers, 3);
  EXPECT_EQ(ex.exit.steps, 1);
  EXPECT_EQ(ex.exit.registers, 1);
  // The worst-case *step* row is unbounded [AT92]: a deeper bound must
  // certify a strictly larger clean-entry step maximum (longer spins fit).
  const MutexWcSearchResult shallow =
      search_mutex_worst_case(Peterson::factory(), 2, 1, exhaustive_opts(12));
  EXPECT_GT(ex.entry.steps, shallow.entry.steps);
  // Peterson spins: some paths are always cut by the depth bound.
  EXPECT_TRUE(ex.truncated);
  EXPECT_TRUE(ex.entry.truncated);
}

TEST(Explorer, CertifiesTasLockCleanEntry) {
  // The TAS lock only spins while another process holds the lock (is in its
  // CS), and such windows are not clean: the certified clean-entry cost is
  // the single test-and-set on the single lock bit.
  const MutexWcSearchResult ex =
      search_mutex_worst_case(TasLock::factory(), 2, 1, exhaustive_opts(16));
  EXPECT_EQ(ex.entry.steps, 1);
  EXPECT_EQ(ex.entry.registers, 1);
  EXPECT_EQ(ex.exit.steps, 1);
}

TEST(Explorer, BitIdenticalAcrossThreadCounts) {
  ExperimentRunner seq(1);
  ExperimentRunner par(4);
  const MutexFactory make = Peterson::factory();
  const MutexWcSearchResult a =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(16), &seq);
  const MutexWcSearchResult b =
      search_mutex_worst_case(make, 2, 1, exhaustive_opts(16), &par);
  EXPECT_EQ(a.entry.steps, b.entry.steps);
  EXPECT_EQ(a.entry.registers, b.entry.registers);
  EXPECT_EQ(a.entry.truncated, b.entry.truncated);
  EXPECT_EQ(a.exit.steps, b.exit.steps);
  EXPECT_EQ(a.exit.registers, b.exit.registers);
  EXPECT_EQ(a.schedules_tried, b.schedules_tried);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.certified, b.certified);
}

TEST(Explorer, FindsMutualExclusionViolationInBrokenLock) {
  class NoMutex final : public MutexAlgorithm {
   public:
    explicit NoMutex(RegisterFile& mem) { r_ = mem.add_bit("nomutex.r"); }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.read(r_);
    }
    Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
      co_await enter(ctx, slot);
      co_return 1;
    }
    [[nodiscard]] int capacity() const override { return 2; }
    [[nodiscard]] int atomicity() const override { return 1; }
    [[nodiscard]] std::string algorithm_name() const override {
      return "broken";
    }

   private:
    RegId r_;
  };
  const MutexFactory broken = [](RegisterFile& mem, int) {
    return std::make_unique<NoMutex>(mem);
  };
  // Violating traces violate in every linearization (section-change pairs
  // never commute), so the reduced search must still find the broken
  // lock's mutual-exclusion violation — fewer violating schedules visited,
  // but never zero.
  for (const ReductionPolicy policy :
       {ReductionPolicy::Off, ReductionPolicy::SourceDpor}) {
    Explorer::Config cfg;
    cfg.nprocs = 2;
    cfg.limits.max_depth = 10;
    cfg.limits.reduction = policy;
    cfg.setup = [&broken](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, broken, 2, 1);
    };
    const Explorer::Result res = Explorer(cfg).run();
    EXPECT_GT(res.stats.violations, 0u) << name(policy);
  }

  // The violation count survives into the public search result: a
  // "certified" maximum over a broken algorithm is clearly marked unsafe.
  const MutexWcSearchResult wc =
      search_mutex_worst_case(broken, 2, 1, exhaustive_opts(10));
  EXPECT_GT(wc.violations, 0u);
}

// The Lemma-2 merge adversary is one schedule of the exhaustive space: the
// explorer must reproduce at least the contention it constructs. For the
// SelfishDetector every process performs the same fixed access sequence in
// every schedule, so the values agree exactly.
TEST(Explorer, ReproducesMergeAdversaryContentionExactly) {
  const DetectorFactory selfish = SelfishDetector::factory();
  auto keep = std::make_shared<std::vector<std::unique_ptr<Detector>>>();
  const SimSetup setup = [selfish, keep](Sim& sim) {
    keep->push_back(setup_detection(sim, selfish, 2));
  };
  const MergeResult merge = lemma2_merge(setup, 0, 1);
  ASSERT_TRUE(merge.both_terminated);
  EXPECT_TRUE(merge.both_won());  // the selfish detector is broken

  WorstCaseSearchOptions opts = exhaustive_opts(16);
  const DetectorWcSearchResult ex =
      search_detector_worst_case(selfish, 2, opts);
  EXPECT_TRUE(ex.certified);
  EXPECT_EQ(ex.best.steps, merge.max_total.steps);
  EXPECT_EQ(ex.best.registers, merge.max_total.registers);
}

TEST(Explorer, DominatesMergeAdversaryOnSplitterTree) {
  const DetectorFactory splitter = SplitterTree::factory(1);
  auto keep = std::make_shared<std::vector<std::unique_ptr<Detector>>>();
  const SimSetup setup = [splitter, keep](Sim& sim) {
    keep->push_back(setup_detection(sim, splitter, 2));
  };
  const MergeResult merge = lemma2_merge(setup, 0, 1);

  const DetectorWcSearchResult ex =
      search_detector_worst_case(splitter, 2, exhaustive_opts(24));
  EXPECT_TRUE(ex.certified);
  EXPECT_FALSE(ex.truncated);  // detectors terminate: full certification
  EXPECT_GE(ex.best.steps, merge.max_total.steps);
  // Worst-case step bound of the depth-1 splitter tree: 4 accesses.
  EXPECT_LE(ex.best.steps, 4);
  // Random sampling over the same space cannot beat the certified value.
  const DetectorWcSearchResult rnd =
      search_detector_worst_case(splitter, 2, random_opts(24, 16));
  EXPECT_LE(rnd.best.steps, ex.best.steps);
}

TEST(Explorer, TruncationIsSurfacedInReports) {
  // A random budget too small to close any window: the zero-valued report
  // must say so instead of masquerading as a certified completion.
  const MutexWcSearchResult tiny =
      search_mutex_worst_case(Peterson::factory(), 2, 1, random_opts(2, 2));
  EXPECT_TRUE(tiny.truncated);
  EXPECT_TRUE(tiny.entry.truncated);
  EXPECT_EQ(tiny.entry.steps, 0);
  // A full random run completes and is not flagged.
  const MutexWcSearchResult full =
      search_mutex_worst_case(Peterson::factory(), 2, 1,
                              random_opts(100'000, 2));
  EXPECT_FALSE(full.truncated);
  EXPECT_FALSE(full.entry.truncated);
}

// The exact traversal of every search configuration the explorer offers,
// pinned counter by counter: a refactor of the DFS must keep each search
// walking the same tree in the same order, not just certify the same
// values. The rows are the explorer's own output on the two cells below;
// every pinned counter is thread-count invariant, so the shared pool's
// size does not matter.
struct TraversalPin {
  const char* what;
  const char* subject;
  int n;
  bool crash;  ///< crash_after(1, 2)
  ReductionPolicy reduction;
  bool prune;
  std::array<std::uint64_t, 12> counters;
  std::uint64_t max_states = 0;
};

constexpr std::uint64_t ExploreStats::*kPinnedCounters[] = {
    &ExploreStats::states_visited,   &ExploreStats::runs_completed,
    &ExploreStats::runs_truncated,   &ExploreStats::pruned_visited,
    &ExploreStats::violations,       &ExploreStats::races_detected,
    &ExploreStats::backtrack_points, &ExploreStats::sleep_blocked,
    &ExploreStats::restores,         &ExploreStats::restore_marks,
    &ExploreStats::value_replayed_steps, &ExploreStats::work_items,
};

Explorer::Config pinned_config(const TraversalPin& pin) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex(pin.subject).factory;
  const int n = pin.n;
  const bool crash = pin.crash;
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.limits.max_depth = 12;
  cfg.limits.reduction = pin.reduction;
  cfg.limits.prune_visited = pin.prune;
  cfg.limits.max_states = pin.max_states;
  cfg.setup = [factory, n, crash](Sim& sim) -> std::shared_ptr<void> {
    std::shared_ptr<void> alg = setup_mutex(sim, factory, n, 1);
    if (crash) {
      sim.crash_after(1, 2);
    }
    return alg;
  };
  cfg.objective.eval = [n](const Sim&, const MeasureAccumulator& acc) {
    ComplexityReport entry;
    ComplexityReport exit;
    for (Pid pid = 0; pid < n; ++pid) {
      entry = entry.max_with(acc.clean_entry_max(pid));
      exit = exit.max_with(acc.exit_max(pid));
    }
    return std::vector<ComplexityReport>{entry, exit};
  };
  cfg.objective.digest = [](const MeasureAccumulator& acc) {
    return acc.window_digest();
  };
  return cfg;
}

TEST(Explorer, PinsTheTraversalOfEverySearchConfiguration) {
  constexpr ReductionPolicy kOff = ReductionPolicy::Off;
  constexpr ReductionPolicy kDpor = ReductionPolicy::SourceDpor;
  // counters: states_visited, runs_completed, runs_truncated,
  // pruned_visited, violations, races_detected, backtrack_points,
  // sleep_blocked, restores, restore_marks, value_replayed_steps,
  // work_items.
  const TraversalPin pins[] = {
      // peterson-tree n=3 d12.
      {"off, pruning off", "peterson-tree", 3, false, kOff, false,
       {796366, 0, 530712, 0, 0, 0, 0, 0, 530711, 265654, 3282950, 81}},
      {"off, pruning on", "peterson-tree", 3, false, kOff, true,
       {3614, 0, 1160, 1243, 0, 0, 0, 0, 2402, 1223, 13495, 18}},
      {"source-dpor, stateless", "peterson-tree", 3, false, kDpor, false,
       {15188, 0, 7625, 0, 0, 6097, 8869, 1911, 7624, 7563, 43113, 77}},
      {"source-dpor, stateful", "peterson-tree", 3, false, kDpor, true,
       {4397, 0, 1952, 364, 0, 1773, 2559, 367, 2315, 2093, 12984, 18}},
      // The unreduced search shares visited keys across its 18 items in
      // three waves, but an item its state budget stops has unfinished
      // subtrees under some of its keys: it must publish none of them, or
      // a later wave would skip subtrees nobody explored. This budget
      // stops some of the items.
      {"off, pruning on, max_states 150", "peterson-tree", 3, false, kOff,
       true, {2749, 0, 1230, 536, 0, 0, 0, 0, 1765, 995, 10158, 18}, 150},
      // lamport-fast n=2 d12 with crash_after(1, 2).
      {"off, pruning off", "lamport-fast", 2, true, kOff, false,
       {820, 95, 94, 0, 0, 0, 0, 0, 188, 188, 1669, 15}},
      {"off, pruning on", "lamport-fast", 2, true, kOff, true,
       {155, 8, 9, 39, 0, 0, 0, 0, 55, 55, 434, 5}},
      {"source-dpor, stateless", "lamport-fast", 2, true, kDpor, false,
       {224, 14, 15, 0, 0, 52, 42, 31, 54, 168, 404, 15}},
      {"source-dpor, stateful", "lamport-fast", 2, true, kDpor, true,
       {122, 5, 9, 24, 0, 25, 29, 1, 37, 85, 271, 5}},
  };
  for (const TraversalPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.subject) + ": " + pin.what);
    const Explorer::Result r = Explorer(pinned_config(pin)).run();
    std::array<std::uint64_t, 12> got{};
    for (std::size_t i = 0; i < got.size(); ++i) {
      got[i] = r.stats.*kPinnedCounters[i];
    }
    EXPECT_EQ(got, pin.counters);
  }
}

TEST(Explorer, ConstructorRejectsInvalidConfigurations) {
  // Each case breaks one field of an otherwise valid configuration; the
  // constructor must refuse it before any search runs. A negative depth
  // would otherwise reach the frontier split (std::clamp with lo > hi) and,
  // under source-dpor, size the per-depth backtrack masks from it.
  struct Case {
    const char* what;
    void (*mutate)(Explorer::Config&);
  };
  const Case cases[] = {
      {"no processes", [](Explorer::Config& c) { c.nprocs = 0; }},
      {"no setup", [](Explorer::Config& c) { c.setup = nullptr; }},
      {"source-dpor, 33 processes",
       [](Explorer::Config& c) {
         c.limits.reduction = ReductionPolicy::SourceDpor;
         c.nprocs = 33;
       }},
      {"off, 33 processes", [](Explorer::Config& c) { c.nprocs = 33; }},
      {"off, depth -1", [](Explorer::Config& c) { c.limits.max_depth = -1; }},
      {"off, depth -2", [](Explorer::Config& c) { c.limits.max_depth = -2; }},
      {"source-dpor, depth -1",
       [](Explorer::Config& c) {
         c.limits.reduction = ReductionPolicy::SourceDpor;
         c.limits.max_depth = -1;
       }},
      {"source-dpor, depth -2",
       [](Explorer::Config& c) {
         c.limits.reduction = ReductionPolicy::SourceDpor;
         c.limits.max_depth = -2;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Explorer::Config cfg;
    cfg.nprocs = 2;
    cfg.limits.max_depth = 4;
    cfg.setup = [](Sim& sim) -> std::shared_ptr<void> {
      return setup_mutex(sim, Peterson::factory(), 2, 1);
    };
    EXPECT_NO_THROW((void)Explorer(cfg));
    c.mutate(cfg);
    EXPECT_THROW((void)Explorer(cfg), std::invalid_argument);
  }
}

TEST(Explorer, NewCountersAreThreadInvariant) {
  // restores / value_replayed_steps / visited_bytes are per-item
  // deterministic sums, so they must not depend on the pool size.
  // sims_built counts one Sim per engine: the planner's plus one per pool
  // worker, and a pool never runs more workers than items.
  ExperimentRunner seq(1);
  ExperimentRunner par(4);
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.limits.max_depth = 14;
  cfg.setup = [](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, Peterson::factory(), 2, 1);
  };
  const Explorer explorer(cfg);
  const Explorer::Result a = explorer.run(&seq);
  const Explorer::Result b = explorer.run(&par);
  EXPECT_EQ(a.stats.restores, b.stats.restores);
  EXPECT_EQ(a.stats.value_replayed_steps, b.stats.value_replayed_steps);
  EXPECT_EQ(a.stats.visited_bytes, b.stats.visited_bytes);
  EXPECT_EQ(a.stats.sims_built,
            1 + std::min<std::uint64_t>(a.stats.work_items, 1));
  EXPECT_EQ(b.stats.sims_built,
            1 + std::min<std::uint64_t>(b.stats.work_items, 4));
  EXPECT_GT(a.stats.visited_bytes, 0u);
}

TEST(Explorer, VisitedPruningOnlyDropsRedundantWork) {
  // Pruning must not change the certified values, only the visit count.
  WorstCaseSearchOptions pruned = exhaustive_opts(14);
  WorstCaseSearchOptions unpruned = exhaustive_opts(14);
  unpruned.limits.prune_visited = false;
  const MutexWcSearchResult a =
      search_mutex_worst_case(Peterson::factory(), 2, 1, pruned);
  const MutexWcSearchResult b =
      search_mutex_worst_case(Peterson::factory(), 2, 1, unpruned);
  EXPECT_EQ(a.entry.steps, b.entry.steps);
  EXPECT_EQ(a.entry.registers, b.entry.registers);
  EXPECT_EQ(a.exit.steps, b.exit.steps);
  EXPECT_LE(a.states_visited, b.states_visited);
}

}  // namespace
}  // namespace cfc
