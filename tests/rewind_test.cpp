// Restore fidelity. Sim level: Sim::rewind_to_mark must reposition the
// LIVE simulation at any mark along its own schedule log — the run-start
// mark included — indistinguishably from a freshly built simulation driven
// step by step through the same prefix, across every registry algorithm,
// including crash injection and multi-grain field writes. Explorer level:
// the mark-restoring Explorer must certify exactly what a from-scratch
// oracle finds, a plain DFS that rebuilds every child by that replay and
// uses no marks, cache or partial-order reduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "analysis/explorer.h"
#include "core/algorithm_registry.h"
#include "core/contention_detection.h"
#include "core/state_fingerprint.h"
#include "mutex/mutex_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

struct CrashPlan {
  Pid pid;
  std::uint64_t after_accesses;
};

/// Rebuilds a simulation's static setup; must be deterministic.
using Rebuild = std::function<void(Sim&)>;

Rebuild mutex_builder(const MutexFactory& factory, int n, int sessions,
                      std::vector<CrashPlan> crashes) {
  auto keep =
      std::make_shared<std::vector<std::unique_ptr<MutexAlgorithm>>>();
  return [factory, n, sessions, crashes, keep](Sim& sim) {
    keep->push_back(setup_mutex(sim, factory, n, sessions));
    for (const CrashPlan& c : crashes) {
      sim.crash_after(c.pid, c.after_accesses);
    }
  };
}

/// The from-scratch reference: a freshly built simulation driven through
/// `units` with the public step()/ensure_started() only. Sinks attached by
/// `rebuild` and the invariant checks stay live throughout.
std::unique_ptr<Sim> replay(const Rebuild& rebuild,
                            std::span<const ScheduleUnit> units) {
  auto sim = std::make_unique<Sim>();
  rebuild(*sim);
  for (const ScheduleUnit& u : units) {
    if (u.start_only) {
      sim->ensure_started(u.pid);
    } else {
      sim->step(u.pid);
    }
  }
  return sim;
}

void expect_same_state(const Sim& a, const Sim& b) {
  ASSERT_EQ(a.process_count(), b.process_count());
  EXPECT_EQ(a.next_seq(), b.next_seq());
  EXPECT_EQ(a.memory().fingerprint(), b.memory().fingerprint());
  ASSERT_EQ(a.memory().size(), b.memory().size());
  for (RegId r = 0; r < a.memory().size(); ++r) {
    EXPECT_EQ(a.memory().peek(r), b.memory().peek(r)) << "register " << r;
  }
  EXPECT_EQ(state_fingerprint(a), state_fingerprint(b));
  for (Pid p = 0; p < a.process_count(); ++p) {
    EXPECT_EQ(a.status(p), b.status(p)) << "pid " << p;
    EXPECT_EQ(a.section(p), b.section(p)) << "pid " << p;
    EXPECT_EQ(a.output(p), b.output(p)) << "pid " << p;
    EXPECT_EQ(a.access_count(p), b.access_count(p)) << "pid " << p;
    EXPECT_EQ(a.process_digest(p), b.process_digest(p)) << "pid " << p;
  }
}

TEST(Rewind, BaseMarkAndCurrentMarkAreExact) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Rebuild rebuild = mutex_builder(factory, 2, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  Sim::RewindMark base;
  live.capture_mark(base);
  const std::uint64_t setup_fp = live.memory().fingerprint();
  const Seq setup_seq = live.next_seq();
  RandomScheduler rnd(9);
  drive(live, rnd, RunLimits{30});
  const std::uint64_t fp = live.memory().fingerprint();
  const Seq seq = live.next_seq();
  ASSERT_FALSE(live.schedule_log().empty());

  // A mark at the current point: nothing acted past it, nothing replays.
  Sim::RewindMark here;
  live.capture_mark(here);
  EXPECT_EQ(live.rewind_to_mark(here), 0u);
  EXPECT_EQ(live.memory().fingerprint(), fp);
  EXPECT_EQ(live.next_seq(), seq);

  // The base mark: back to the post-setup state, every process unstarted.
  EXPECT_EQ(live.rewind_to_mark(base), 0u);
  EXPECT_TRUE(live.schedule_log().empty());
  EXPECT_EQ(live.memory().fingerprint(), setup_fp);
  EXPECT_EQ(live.next_seq(), setup_seq);
  for (Pid p = 0; p < live.process_count(); ++p) {
    EXPECT_EQ(live.status(p), ProcStatus::NotStarted);
  }
  expect_same_state(live, *replay(rebuild, {}));
}

TEST(Rewind, MarkRestoreVerifiesFingerprint) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Rebuild rebuild = mutex_builder(factory, 2, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(3);
  drive(live, rnd, RunLimits{10});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  drive(live, rnd, RunLimits{10});

  Sim::RewindMark corrupt = mark;
  corrupt.fingerprint ^= 1;
  EXPECT_THROW(live.rewind_to_mark(corrupt), std::logic_error);
  live.rewind_to_mark(mark);  // the intact mark: accepted
  EXPECT_EQ(live.memory().fingerprint(), mark.fingerprint);
}

TEST(Rewind, RequiresBaselineAndValidMark) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Rebuild rebuild = mutex_builder(factory, 2, 1, {});
  Sim unmarked;
  rebuild(unmarked);
  Sim::RewindMark none;
  EXPECT_THROW(unmarked.capture_mark(none), std::logic_error);
  EXPECT_THROW(unmarked.rewind_to_mark(none), std::logic_error);

  // A mark past the current log (the run was rewound below it) is stale.
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  Sim::RewindMark base;
  live.capture_mark(base);
  RandomScheduler rnd(4);
  drive(live, rnd, RunLimits{10});
  Sim::RewindMark later;
  live.capture_mark(later);
  live.rewind_to_mark(base);
  EXPECT_THROW(live.rewind_to_mark(later), std::out_of_range);

  // The baseline must be captured before any unit executes.
  Sim late;
  rebuild(late);
  RandomScheduler rnd2(4);
  drive(late, rnd2, RunLimits{2});
  EXPECT_THROW(late.mark_rewind_base(), std::logic_error);
}

TEST(Rewind, RestoresPerformZeroSimConstructions) {
  // With mark restores, the Sims built are the planner's plus one per pool
  // worker, no matter how many restores ran.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.limits.max_depth = 14;
  cfg.setup = [&factory](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, factory, 2, 1);
  };
  ExperimentRunner runner(2);
  const Explorer::Result r = Explorer(cfg).run(&runner);
  ASSERT_GT(r.stats.restores, 0u);
  EXPECT_EQ(r.stats.sims_built,
            1 + std::min<std::uint64_t>(r.stats.work_items, 2));
  EXPECT_GT(r.stats.restore_marks, 0u);
  EXPECT_GT(r.stats.value_replayed_steps, 0u);
}

/// Mark-based partial restore, sim level: capture a RewindMark mid-run,
/// run on, rewind back to the mark, and differential-test against a replay
/// of the same prefix — then drive both onward identically (the restored
/// sim must behave like the replay forever after, crash plans included).
void mark_rewind_and_compare(const MutexFactory& factory, int n,
                             int sessions,
                             const std::vector<CrashPlan>& crashes,
                             std::uint64_t seed) {
  const Rebuild rebuild = mutex_builder(factory, n, sessions, crashes);

  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(seed);
  drive(live, rnd, RunLimits{30});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  const std::size_t prefix_len = live.schedule_log().size();
  RandomScheduler more(seed + 99);
  drive(live, more, RunLimits{30});

  const std::unique_ptr<Sim> reference =
      replay(rebuild, std::span(live.schedule_log()).first(prefix_len));
  const std::size_t fed = live.rewind_to_mark(mark);
  ASSERT_EQ(live.schedule_log().size(), prefix_len);
  // Only processes that acted past the mark are value-replayed, so the
  // fed-unit count never exceeds the full-replay cost.
  EXPECT_LE(fed, prefix_len);
  expect_same_state(live, *reference);

  RandomScheduler cont_a(seed + 17);
  RandomScheduler cont_b(seed + 17);
  drive(live, cont_a, RunLimits{40});
  drive(*reference, cont_b, RunLimits{40});
  expect_same_state(live, *reference);
}

TEST(Rewind, MarkRestoreMatchesReplayAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(e->info.name);
      mark_rewind_and_compare(e->factory, 2, 1, {}, seed);
    }
  }
}

TEST(Rewind, MarkRestoreMatchesReplayUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    mark_rewind_and_compare(e->factory, 4, 1, {{0, 3}, {2, 1}}, 5);
  }
}

TEST(Rewind, SinksSeeOnlyPostRewindEvents) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const Rebuild rebuild = mutex_builder(factory, 2, 1, {});
  Sim live;
  rebuild(live);
  live.mark_rewind_base();
  RandomScheduler rnd(3);
  drive(live, rnd, RunLimits{8});
  Sim::RewindMark mark;
  live.capture_mark(mark);
  drive(live, rnd, RunLimits{8});

  TraceRecorder post;
  live.add_sink(post);
  // The value replay re-runs touched processes' section changes; none of
  // them may reach the sink or the materialized trace.
  EXPECT_GT(live.rewind_to_mark(mark), 0u);
  EXPECT_TRUE(post.trace().empty());
  EXPECT_TRUE(live.trace().empty());
  EXPECT_EQ(live.next_seq(), mark.seq);

  // The attached sink sees the events after the rewind, numbered on from
  // the mark.
  RandomScheduler cont(4);
  drive(live, cont, RunLimits{5});
  ASSERT_FALSE(post.trace().empty());
  EXPECT_EQ(post.trace().events().front().seq, mark.seq);
}

/// A mutex with no synchronization: enter writes the process's own id to
/// one shared register, so the unit that commits that write and then
/// enters the critical section next to another process throws
/// MutualExclusionViolation after its write took effect.
class RacyMutex final : public MutexAlgorithm {
 public:
  explicit RacyMutex(RegisterFile& mem) { r_ = mem.add_register("racy", 8); }
  Task<void> enter(ProcessContext& ctx, int slot) override {
    co_await ctx.write(r_, static_cast<Value>(slot + 1));
  }
  Task<void> exit(ProcessContext& ctx, int) override {
    co_await ctx.write(r_, 0);
  }
  Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
    co_await enter(ctx, slot);
    co_return 1;
  }
  [[nodiscard]] int capacity() const override { return 64; }
  [[nodiscard]] int atomicity() const override { return 8; }
  [[nodiscard]] std::string algorithm_name() const override {
    return "racy";
  }

 private:
  RegId r_;
};

/// Nested marks against the replay oracle: a random walk over the
/// operations the explorer composes — step a random runnable process,
/// capture a mark (pushed on a stack, the current path's checkpoints),
/// and rewind to a random stacked mark (inner or outer, the run-start mark
/// included; the marks above it are popped, since the run is now past
/// them). After every rewind the live sim must equal a replay of the same
/// prefix. A step that throws MutualExclusionViolation (its write
/// already committed) poisons the sim until the next rewind. Returns the
/// number of violating units, so callers can check the path was taken.
int nested_marks_against_replay(const MutexFactory& factory, int n,
                                int sessions,
                                const std::vector<CrashPlan>& crashes,
                                std::uint64_t seed) {
  const Rebuild rebuild = mutex_builder(factory, n, sessions, crashes);
  Sim live;
  rebuild(live);
  live.mark_rewind_base();

  std::vector<Sim::RewindMark> stack(1);
  live.capture_mark(stack[0]);  // the run start: never popped
  std::mt19937_64 rng(seed);
  bool poisoned = false;
  int violations = 0;
  int rewinds = 0;

  const auto compare_with_replay = [&](std::size_t fed, std::size_t len) {
    ++rewinds;
    ASSERT_EQ(live.schedule_log().size(), len);
    EXPECT_LE(fed, len);
    expect_same_state(live, *replay(rebuild, live.schedule_log()));
  };

  for (int op = 0; op < 400; ++op) {
    const std::uint64_t roll = rng() % 16;
    std::vector<Pid> runnable;
    for (Pid p = 0; p < n; ++p) {
      if (live.runnable(p)) {
        runnable.push_back(p);
      }
    }
    if (poisoned || runnable.empty() || roll >= 12) {
      const std::size_t k = rng() % stack.size();
      stack.resize(k + 1);
      compare_with_replay(live.rewind_to_mark(stack[k]),
                          stack[k].prefix_len);
      poisoned = false;
    } else if (roll >= 9) {
      stack.emplace_back();
      live.capture_mark(stack.back());
    } else {
      try {
        live.step(runnable[rng() % runnable.size()]);
      } catch (const MutualExclusionViolation&) {
        ++violations;
        poisoned = true;
      }
    }
  }
  EXPECT_GT(rewinds, 20);
  return violations;
}

TEST(Rewind, NestedMarksMatchReplayAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(3)) {
    SCOPED_TRACE(e->info.name);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      nested_marks_against_replay(e->factory, 3, 2, {}, seed);
    }
  }
}

TEST(Rewind, NestedMarksMatchReplayUnderCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(4)) {
    SCOPED_TRACE(e->info.name);
    nested_marks_against_replay(e->factory, 4, 2, {{0, 3}, {2, 1}}, 7);
  }
}

TEST(Rewind, TwoSessionMarksMatchReplayWithCrashesAndFieldWrites) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    struct Case {
      const char* algorithm;
      std::vector<CrashPlan> crashes;
    };
    // lamport-packed stores several logical registers in one word via
    // write_field: sub-word stores must undo and fingerprint exactly.
    const Case cases[] = {
        {"lamport-fast", {{0, seed % 5}, {2, 1 + seed % 3}}},
        {"lamport-packed", {{1, 2 + seed % 4}}},
        {"thm3-exact-l2", {}},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.algorithm) + " seed " +
                   std::to_string(seed));
      const MutexFactory factory = registry.mutex(c.algorithm).factory;
      mark_rewind_and_compare(factory, 4, 2, c.crashes, seed);
      nested_marks_against_replay(factory, 4, 2, c.crashes, seed);
    }
  }
}

TEST(Rewind, NestedMarksUndoTheWriteOfAViolatingUnit) {
  const MutexFactory racy = [](RegisterFile& mem, int) {
    return std::make_unique<RacyMutex>(mem);
  };
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    violations += nested_marks_against_replay(racy, 3, 3, {{1, 4}}, seed);
  }
  EXPECT_GT(violations, 0);
}

void expect_same_report(const ComplexityReport& a, const ComplexityReport& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.registers, b.registers);
  EXPECT_EQ(a.read_steps, b.read_steps);
  EXPECT_EQ(a.write_steps, b.write_steps);
  EXPECT_EQ(a.read_registers, b.read_registers);
  EXPECT_EQ(a.write_registers, b.write_registers);
  EXPECT_EQ(a.atomicity, b.atomicity);
  EXPECT_EQ(a.truncated, b.truncated);
}

/// The from-scratch reference search: a plain DFS over every runnable
/// pick up to `max_depth`, where every child is a fresh replay of its
/// parent's schedule (setup + step-by-step replay) carrying a copy of the
/// parent's accumulator. No marks, no rewind, no visited cache, no
/// reduction: it shares only the simulator and the objective with the
/// Explorer.
class ReplayOracle {
 public:
  explicit ReplayOracle(const Explorer::Config& cfg) : cfg_(cfg) {}

  void run() {
    Sim root;
    const std::shared_ptr<void> owner = cfg_.setup(root);
    root.set_trace_recording(false);
    MeasureAccumulator acc(cfg_.nprocs);
    root.add_sink(acc);
    visit(root, acc, 0);
  }

  std::vector<ComplexityReport> best;
  std::uint64_t completed = 0;
  std::uint64_t truncated = 0;
  std::uint64_t violations = 0;

 private:
  void leaf(const Sim& sim, MeasureAccumulator& acc, bool cut) {
    if (cut) {
      ++truncated;
      acc.mark_truncated();
    } else {
      ++completed;
    }
    const std::vector<ComplexityReport> values = cfg_.objective.eval(sim, acc);
    if (best.empty()) {
      best = values;
      return;
    }
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = best[i].max_with(values[i]);
    }
  }

  void visit(const Sim& sim, MeasureAccumulator& acc, int depth) {
    if (!sim.any_runnable()) {
      leaf(sim, acc, /*cut=*/false);
      return;
    }
    if (depth >= cfg_.limits.max_depth) {
      leaf(sim, acc, /*cut=*/true);
      return;
    }
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (!sim.runnable(p)) {
        continue;
      }
      std::shared_ptr<void> owner;
      const Rebuild rebuild = [&](Sim& s) {
        owner = cfg_.setup(s);
        s.set_trace_recording(false);
      };
      const std::unique_ptr<Sim> child = replay(rebuild, sim.schedule_log());
      MeasureAccumulator child_acc = acc;
      child->add_sink(child_acc);
      try {
        child->step(p);
      } catch (const MutualExclusionViolation&) {
        ++violations;
        continue;
      }
      visit(*child, child_acc, depth + 1);
    }
  }

  const Explorer::Config& cfg_;
};

/// The Explorer's certified answer must equal the oracle's under every
/// Exhaustive configuration: Off with and without the visited cache, and
/// stateful source-DPOR. Without the cache an Off search walks the same
/// tree as the oracle, so its leaf counts and violation count must match
/// exactly too.
void expect_explorer_matches_oracle(Explorer::Config cfg) {
  struct Variant {
    const char* what;
    ReductionPolicy policy;
    bool prune;
  };
  ReplayOracle oracle(cfg);
  oracle.run();
  ASSERT_FALSE(oracle.best.empty());
  for (const Variant v :
       {Variant{"off, pruning off", ReductionPolicy::Off, false},
        Variant{"off, pruning on", ReductionPolicy::Off, true},
        Variant{"source-dpor", ReductionPolicy::SourceDpor, true}}) {
    SCOPED_TRACE(v.what);
    cfg.limits.reduction = v.policy;
    cfg.limits.prune_visited = v.prune;
    const Explorer::Result r = Explorer(cfg).run();
    ASSERT_EQ(r.best.size(), oracle.best.size());
    for (std::size_t i = 0; i < r.best.size(); ++i) {
      expect_same_report(r.best[i], oracle.best[i]);
    }
    EXPECT_EQ(r.stats.violations > 0, oracle.violations > 0);
    EXPECT_EQ(r.stats.truncated, oracle.truncated > 0);
    EXPECT_FALSE(r.stats.state_budget_hit);  // certified, like the oracle
    if (!v.prune) {
      EXPECT_EQ(r.stats.runs_completed, oracle.completed);
      EXPECT_EQ(r.stats.runs_truncated, oracle.truncated);
      EXPECT_EQ(r.stats.violations, oracle.violations);
    }
  }
}

/// The mutex worst-case objective of the Study engine: clean-entry and
/// exit window maxima over all processes, pruned on the window digest.
Explorer::Config mutex_config(const MutexFactory& factory, int n, int depth,
                              const std::vector<CrashPlan>& crashes = {}) {
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.limits.max_depth = depth;
  cfg.setup = [factory, n, crashes](Sim& sim) -> std::shared_ptr<void> {
    std::shared_ptr<void> alg = setup_mutex(sim, factory, n, 1);
    for (const CrashPlan& c : crashes) {
      sim.crash_after(c.pid, c.after_accesses);
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

TEST(Rewind, ExplorerMatchesReplayOracleAcrossAllRegistryMutexAlgorithms) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    SCOPED_TRACE(e->info.name);
    expect_explorer_matches_oracle(mutex_config(e->factory, 2, 10));
  }
}

TEST(Rewind, ExplorerMatchesReplayOracleForDetectors) {
  // The detector worst-case objective: whole-run totals, max over
  // processes, pruned on the default (whole-accumulator) digest.
  for (const DetectorAlgorithmEntry* e :
       AlgorithmRegistry::instance().detector_algorithms()) {
    SCOPED_TRACE(e->info.name);
    const DetectorFactory factory = e->factory;
    Explorer::Config cfg;
    cfg.nprocs = 2;
    cfg.limits.max_depth = 14;
    cfg.setup = [factory](Sim& sim) -> std::shared_ptr<void> {
      return setup_detection(sim, factory, 2);
    };
    cfg.objective.eval = [](const Sim&, const MeasureAccumulator& acc) {
      ComplexityReport best;
      for (Pid pid = 0; pid < 2; ++pid) {
        best = best.max_with(acc.total(pid));
      }
      return std::vector<ComplexityReport>{best};
    };
    expect_explorer_matches_oracle(cfg);
  }
}

TEST(Rewind, ExplorerMatchesReplayOracleUnderCrashInjection) {
  // Crash plans set at setup are part of the rewind baseline; marks must
  // reproduce crashes mid-search exactly as a from-scratch replay does.
  expect_explorer_matches_oracle(mutex_config(
      AlgorithmRegistry::instance().mutex("lamport-fast").factory, 2, 12,
      {{1, 2}}));
}

}  // namespace
}  // namespace cfc
