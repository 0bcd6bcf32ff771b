// POR soundness: the source-DPOR policy (measurement-aware dependence,
// full sleep sets, race-driven source-set backtracking) must certify
// *bit-identical* report values — whole-run totals, every window maximum,
// and the violation verdict — to the unreduced exhaustive search, for
// every registry mutex and detector algorithm at n = 2..3, including
// crash injection, on the sequential reference engine and a thread pool.
// Certified searches default to the unreduced search; these suites keep
// source-DPOR, selectable through StudySpec::reduction, checked against
// it.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/explorer.h"
#include "analysis/study.h"
#include "core/algorithm_registry.h"
#include "obs/trace.h"
#include "por/dependence.h"
#include "por/source_dpor.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& a,
                          const ComplexityReport& b,
                          const std::string& what) {
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.registers, b.registers) << what;
  EXPECT_EQ(a.read_steps, b.read_steps) << what;
  EXPECT_EQ(a.write_steps, b.write_steps) << what;
  EXPECT_EQ(a.read_registers, b.read_registers) << what;
  EXPECT_EQ(a.write_registers, b.write_registers) << what;
  EXPECT_EQ(a.atomicity, b.atomicity) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
}

/// The full-measurement objective: clean-entry, exit, and cf-session
/// window maxima plus whole-run totals, each the max over processes. Every
/// field the paper's measures define, so the differential below proves the
/// reduction value-preserving for all of them at once.
ExploreObjective all_measures_objective(int n) {
  ExploreObjective obj;
  obj.eval = [n](const Sim&, const MeasureAccumulator& acc) {
    ComplexityReport entry;
    ComplexityReport exit;
    ComplexityReport session;
    ComplexityReport total;
    for (Pid pid = 0; pid < n; ++pid) {
      entry = entry.max_with(acc.clean_entry_max(pid));
      exit = exit.max_with(acc.exit_max(pid));
      session = session.max_with(acc.contention_free_session_max(pid));
      total = total.max_with(acc.total(pid));
    }
    return std::vector<ComplexityReport>{entry, exit, session, total};
  };
  // Totals are part of the objective, so the (weakest, always sound)
  // default accumulator digest is the pruning key: leave obj.digest unset.
  return obj;
}

Explorer::Config explorer_config(const Explorer::SetupFn& setup, int n,
                                 int depth, ReductionPolicy policy) {
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = policy;
  cfg.setup = setup;
  cfg.objective = all_measures_objective(n);
  return cfg;
}

/// Runs the same exploration unreduced and under source-dpor on the given
/// runner and asserts the certified values (all four objective reports),
/// the violation verdict, and the truncation flags agree exactly — while
/// the reduced search never explores more states.
void expect_source_dpor_matches_unreduced(const Explorer::SetupFn& setup,
                                          int n, int depth,
                                          ExperimentRunner* runner,
                                          const std::string& what) {
  const Explorer::Result off =
      Explorer(explorer_config(setup, n, depth, ReductionPolicy::Off))
          .run(runner);
  const Explorer::Result por =
      Explorer(explorer_config(setup, n, depth, ReductionPolicy::SourceDpor))
          .run(runner);
  ASSERT_EQ(off.best.size(), por.best.size()) << what;
  const char* field[] = {"clean-entry", "exit", "cf-session", "totals"};
  for (std::size_t i = 0; i < off.best.size(); ++i) {
    expect_reports_equal(off.best[i], por.best[i],
                         what + " / " + field[i]);
  }
  EXPECT_EQ(off.stats.truncated, por.stats.truncated) << what;
  EXPECT_EQ(off.stats.state_budget_hit, por.stats.state_budget_hit) << what;
  // Registry algorithms are safe: the violation count must agree exactly
  // (0 == 0); for broken algorithms the *verdict* (found / not found) is
  // what reduction preserves — violating traces violate in every
  // linearization — which Explorer.FindsMutualExclusionViolationInBrokenLock
  // (explorer_test) asserts under both policies.
  EXPECT_EQ(off.stats.violations, por.stats.violations) << what;
}

/// The reduction claim itself: against the same tree with neither the
/// visited cache nor the reduction (source-dpor replaces the cache — see
/// the Explorer constructor), the reduced search must explore a strict
/// subset of states while certifying the same values.
void expect_source_dpor_reduces(const Explorer::SetupFn& setup, int n,
                                int depth, const std::string& what) {
  Explorer::Config raw = explorer_config(setup, n, depth, ReductionPolicy::Off);
  raw.limits.prune_visited = false;
  const Explorer::Result off = Explorer(raw).run();
  const Explorer::Result por =
      Explorer(explorer_config(setup, n, depth, ReductionPolicy::SourceDpor))
          .run();
  EXPECT_LT(por.stats.states_visited, off.stats.states_visited) << what;
  ASSERT_EQ(off.best.size(), por.best.size()) << what;
  for (std::size_t i = 0; i < off.best.size(); ++i) {
    expect_reports_equal(off.best[i], por.best[i], what);
  }
}

Explorer::SetupFn mutex_setup(const MutexFactory& make, int n,
                              std::vector<std::uint64_t> crash_after = {}) {
  return [make, n, crash_after](Sim& sim) -> std::shared_ptr<void> {
    auto alg = setup_mutex(sim, make, n, /*sessions=*/1);
    for (std::size_t p = 0; p < crash_after.size(); ++p) {
      sim.crash_after(static_cast<Pid>(p), crash_after[p]);
    }
    return alg;
  };
}

Explorer::SetupFn detector_setup(const DetectorFactory& make, int n,
                                 std::vector<std::uint64_t> crash_after = {}) {
  return [make, n, crash_after](Sim& sim) -> std::shared_ptr<void> {
    auto det = setup_detection(sim, make, n);
    for (std::size_t p = 0; p < crash_after.size(); ++p) {
      sim.crash_after(static_cast<Pid>(p), crash_after[p]);
    }
    return det;
  };
}

// --- The differential suite: every registry algorithm, n = 2..3,
// threads 1 and 4. ---

TEST(PorDifferential, MutexRegistryAtN2And3) {
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 12 : 8;
    for (const MutexAlgorithmEntry* e :
         AlgorithmRegistry::instance().mutex_for_n(n)) {
      for (ExperimentRunner* runner : {&seq, &pool}) {
        const std::string what = e->info.name + " n=" + std::to_string(n) +
                                 " threads=" +
                                 std::to_string(runner->thread_count());
        SCOPED_TRACE(what);
        expect_source_dpor_matches_unreduced(mutex_setup(e->factory, n),
                                             n, depth, runner, what);
      }
    }
  }
}

TEST(PorDifferential, UnreducedPruningMatchesUnprunedAtN3) {
  // The unreduced search prunes with visited keys shared across work items
  // in waves (n=3 emits enough items for several). Against the same search
  // with no visited cache at all it must certify the same maxima, find
  // violations iff the unpruned search does, and report the same truncated
  // and certified flags.
  ExperimentRunner pool(4);
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(3)) {
    const std::string what = e->info.name + " n=3";
    SCOPED_TRACE(what);
    const Explorer::SetupFn setup = mutex_setup(e->factory, 3);
    Explorer::Config unpruned =
        explorer_config(setup, 3, 10, ReductionPolicy::Off);
    unpruned.limits.prune_visited = false;
    const Explorer::Result raw = Explorer(unpruned).run(&pool);
    const Explorer::Result pruned =
        Explorer(explorer_config(setup, 3, 10, ReductionPolicy::Off))
            .run(&pool);
    EXPECT_GT(pruned.stats.work_items, 8u);
    EXPECT_LT(pruned.stats.states_visited, raw.stats.states_visited);
    ASSERT_EQ(pruned.best.size(), raw.best.size());
    for (std::size_t i = 0; i < raw.best.size(); ++i) {
      expect_reports_equal(pruned.best[i], raw.best[i], what);
    }
    EXPECT_EQ(pruned.stats.violations > 0, raw.stats.violations > 0);
    EXPECT_EQ(pruned.stats.truncated, raw.stats.truncated);
    EXPECT_EQ(pruned.stats.state_budget_hit, raw.stats.state_budget_hit);
  }
}

TEST(PorDifferential, DetectorRegistryAtN2And3) {
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 14 : 10;
    for (const DetectorAlgorithmEntry* e :
         AlgorithmRegistry::instance().detector_algorithms()) {
      for (ExperimentRunner* runner : {&seq, &pool}) {
        const std::string what = e->info.name + " n=" + std::to_string(n) +
                                 " threads=" +
                                 std::to_string(runner->thread_count());
        SCOPED_TRACE(what);
        expect_source_dpor_matches_unreduced(detector_setup(e->factory, n),
                                             n, depth, runner, what);
      }
    }
  }
}

TEST(PorDifferential, MutexWithCrashInjection) {
  // A crash-armed process's next step is unknowable, so the dependence
  // relation orders it against everything; the differential must still
  // hold with stopping failures in the space.
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 12 : 8;
    for (const MutexAlgorithmEntry* e :
         AlgorithmRegistry::instance().mutex_for_n(n)) {
      // Process 0 crashes at its 3rd access attempt: mid-entry for every
      // registry algorithm.
      for (ExperimentRunner* runner : {&seq, &pool}) {
        const std::string what = e->info.name + " crash n=" +
                                 std::to_string(n) + " threads=" +
                                 std::to_string(runner->thread_count());
        SCOPED_TRACE(what);
        expect_source_dpor_matches_unreduced(
            mutex_setup(e->factory, n, {2}), n, depth, runner, what);
      }
    }
  }
}

TEST(PorDifferential, DetectorWithCrashInjection) {
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 14 : 10;
    for (const DetectorAlgorithmEntry* e :
         AlgorithmRegistry::instance().detector_algorithms()) {
      for (ExperimentRunner* runner : {&seq, &pool}) {
        const std::string what = e->info.name + " crash n=" +
                                 std::to_string(n) + " threads=" +
                                 std::to_string(runner->thread_count());
        SCOPED_TRACE(what);
        expect_source_dpor_matches_unreduced(
            detector_setup(e->factory, n, {1}), n, depth, runner, what);
      }
    }
  }
}

TEST(PorDifferential, DefaultMatchesSourceDporAtTheCertifyFrontier) {
  // The suites above stop at n=3. A certified study defaults to the
  // unreduced search; at n=4 (6-14k states under the default) it must
  // still certify what source-DPOR certifies, on the sequential reference
  // engine and on a pool, where its items share visited keys in waves.
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const char* subject : {"peterson-tree", "tas-lock", "kessels-tree"}) {
    const StudySpec spec = StudySpec::of(subject)
                               .kind(StudyKind::Mutex)
                               .n(4)
                               .worst_case(SearchStrategy::Exhaustive)
                               .depth(10);
    StudySpec dpor_spec = spec;
    dpor_spec.reduction(ReductionPolicy::SourceDpor);
    for (ExperimentRunner* runner : {&seq, &pool}) {
      const std::string what = std::string(subject) + " n=4 threads=" +
                               std::to_string(runner->thread_count());
      SCOPED_TRACE(what);
      const StudyResult off = run_study(spec, runner);
      const StudyResult dpor = run_study(dpor_spec, runner);
      EXPECT_EQ(off.wc_reduction, ReductionPolicy::Off);
      EXPECT_EQ(dpor.wc_reduction, ReductionPolicy::SourceDpor);
      expect_reports_equal(off.wc_entry, dpor.wc_entry, what + " / entry");
      expect_reports_equal(off.wc_exit, dpor.wc_exit, what + " / exit");
      expect_reports_equal(off.wc, dpor.wc, what + " / total");
      EXPECT_TRUE(off.certified);
      EXPECT_EQ(off.certified, dpor.certified);
      EXPECT_EQ(off.truncated, dpor.truncated);
    }
  }
}

TEST(PorDifferential, SourceDporReducesTheUnprunedTree) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  expect_source_dpor_reduces(
      mutex_setup(registry.mutex("peterson-2p").factory, 2), 2, 14,
      "peterson-2p");
  expect_source_dpor_reduces(
      mutex_setup(registry.mutex("kessels-2p").factory, 2), 2, 12,
      "kessels-2p");
  expect_source_dpor_reduces(
      detector_setup(registry.detector("splitter-tree-l2").factory, 3), 3,
      10, "splitter-tree-l2");
}

// --- Reduction counters: populated and thread-count invariant. ---

TEST(PorCounters, PopulatedAndThreadInvariant) {
  const MutexFactory peterson =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const auto cfg = explorer_config(mutex_setup(peterson, 2), 2, 14,
                                   ReductionPolicy::SourceDpor);
  const Explorer::Result a = Explorer(cfg).run(&seq);
  const Explorer::Result b = Explorer(cfg).run(&pool);
  EXPECT_GT(a.stats.races_detected, 0u);
  EXPECT_GT(a.stats.backtrack_points, 0u);
  EXPECT_EQ(a.stats.races_detected, b.stats.races_detected);
  EXPECT_EQ(a.stats.backtrack_points, b.stats.backtrack_points);
  EXPECT_EQ(a.stats.sleep_blocked, b.stats.sleep_blocked);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.pruned_visited, b.stats.pruned_visited);

  // Sleep sets earn their keep where three processes give an inserted
  // sibling a genuinely independent third party: the blocked-branch
  // counter must be populated there (at n = 2 a race-inserted sibling
  // conflicts with the branch it raced, so sleepers rarely survive).
  const DetectorFactory splitter =
      AlgorithmRegistry::instance().detector("splitter-tree-l2").factory;
  const Explorer::Result d =
      Explorer(explorer_config(detector_setup(splitter, 3), 3, 10,
                               ReductionPolicy::SourceDpor))
          .run(&seq);
  EXPECT_GT(d.stats.sleep_blocked, 0u);
}

// --- The parallel work-stealing path: canonical JSON is byte-identical
// at every thread count, and a steal-heavy fan-out matches sequential. ---

std::string study_json_at(const StudySpec& spec, int threads) {
  ExperimentRunner runner(threads);
  const StudyResult r = run_study(spec, &runner);
  return to_json(r, StudyJsonOptions{.include_timing = false});
}

/// Runs the spec at threads 1 (the reference engine) and 2/4/8 and
/// asserts the timing-free cfc.study.v1 payloads are byte-identical —
/// the determinism contract of the work-stealing DFS path, under either
/// reduction policy.
void expect_json_thread_invariant(const StudySpec& spec,
                                  const std::string& what) {
  const std::string reference = study_json_at(spec, 1);
  // The reference payload really exercised the parallel path under the
  // spec's policy.
  EXPECT_NE(reference.find("\"policy\": \"" +
                           std::string(name(spec.search.limits.reduction)) +
                           "\""),
            std::string::npos)
      << what;
  EXPECT_NE(reference.find("\"work_items\":"), std::string::npos) << what;
  EXPECT_NE(reference.find("\"restore_marks\":"), std::string::npos) << what;
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(study_json_at(spec, threads), reference)
        << what << " threads=" << threads;
  }
}

TEST(PorStudyJson, MutexByteIdenticalAcrossThreadCounts) {
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 12 : 8;
    for (const MutexAlgorithmEntry* e :
         AlgorithmRegistry::instance().mutex_for_n(n)) {
      for (const bool crash : {false, true}) {
        StudySpec spec = StudySpec::of(e->info.name)
                             .kind(StudyKind::Mutex)
                             .n(n)
                             .worst_case(SearchStrategy::Exhaustive)
                             .reduction(ReductionPolicy::SourceDpor)
                             .depth(depth);
        if (crash) {
          // Process 0 crashes at its 3rd access attempt (mid-entry).
          spec.crash({2});
        }
        const std::string what = e->info.name + " n=" + std::to_string(n) +
                                 (crash ? " crash" : "");
        SCOPED_TRACE(what);
        expect_json_thread_invariant(spec, what);
      }
    }
  }
}

TEST(PorStudyJson, DetectorByteIdenticalAcrossThreadCounts) {
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 14 : 10;
    for (const DetectorAlgorithmEntry* e :
         AlgorithmRegistry::instance().detector_algorithms()) {
      for (const bool crash : {false, true}) {
        StudySpec spec = StudySpec::of(e->info.name)
                             .kind(StudyKind::Detector)
                             .n(n)
                             .worst_case(SearchStrategy::Exhaustive)
                             .reduction(ReductionPolicy::SourceDpor)
                             .depth(depth);
        if (crash) {
          spec.crash({1});
        }
        const std::string what = e->info.name + " n=" + std::to_string(n) +
                                 (crash ? " crash" : "");
        SCOPED_TRACE(what);
        expect_json_thread_invariant(spec, what);
      }
    }
  }
}

TEST(PorStudyJson, UnreducedByteIdenticalAcrossThreadCounts) {
  // The unreduced search, the default of a certified study, runs on the
  // same planner and work-stealing pool: its payloads obey the same
  // contract. The specs are default-built, so the sweep covers what users
  // run. At n=2 the planner emits at most 16 items; the n=3 cells emit
  // 15-33, so their items run in at least two waves that share visited
  // keys.
  struct Cell {
    std::string name;
    int n;
  };
  std::vector<Cell> cells;
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    cells.push_back({e->info.name, 2});
  }
  for (const char* name : {"peterson-tree", "tas-lock", "kessels-tree"}) {
    cells.push_back({name, 3});
  }
  for (const Cell& c : cells) {
    const StudySpec spec = StudySpec::of(c.name)
                               .kind(StudyKind::Mutex)
                               .n(c.n)
                               .worst_case(SearchStrategy::Exhaustive)
                               .depth(12);
    const std::string what =
        c.name + " n=" + std::to_string(c.n) + " off exhaustive";
    SCOPED_TRACE(what);
    EXPECT_EQ(spec.search.limits.reduction, ReductionPolicy::Off);
    expect_json_thread_invariant(spec, what);
  }
}

TEST(PorStress, StealHeavyFanOutMatchesSequential) {
  // A deep three-process detector tree gives the planner a wide frontier
  // of long work items — the steal-heavy shape. Run it on an 8-thread
  // pool (more workers than cores on most CI boxes, so queues drain
  // unevenly and steals actually happen) and on the sequential reference,
  // and require identical certified values and thread-invariant counters.
  // CI additionally runs this test under ThreadSanitizer.
  const DetectorFactory splitter =
      AlgorithmRegistry::instance().detector("splitter-tree-l2").factory;
  const auto cfg = explorer_config(detector_setup(splitter, 3), 3, 12,
                                   ReductionPolicy::SourceDpor);
  ExperimentRunner seq(1);
  ExperimentRunner pool(8);
  const Explorer::Result a = Explorer(cfg).run(&seq);
  const Explorer::Result b = Explorer(cfg).run(&pool);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (std::size_t i = 0; i < a.best.size(); ++i) {
    expect_reports_equal(a.best[i], b.best[i], "steal-heavy");
  }
  EXPECT_GT(a.stats.work_items, 1u);  // the planner genuinely fanned out
  EXPECT_EQ(a.stats.work_items, b.stats.work_items);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.races_detected, b.stats.races_detected);
  EXPECT_EQ(a.stats.backtrack_points, b.stats.backtrack_points);
  EXPECT_EQ(a.stats.sleep_blocked, b.stats.sleep_blocked);
  EXPECT_EQ(a.stats.restore_marks, b.stats.restore_marks);
  EXPECT_EQ(a.stats.violations, b.stats.violations);
  // Thread-dependent observability: the pool built one sim per worker
  // (plus the planner's), never more than items + 1.
  EXPECT_LE(b.stats.sims_built, a.stats.work_items + 1);
}

// --- The dependence relation's unit semantics. ---

TEST(PorDependence, RegisterConflictAndSectionAdjacency) {
  StepSummary read_a;   // section-quiet read of register 7 by pid 0
  read_a.pid = 0;
  read_a.accessed = true;
  read_a.reg = 7;
  StepSummary read_b = read_a;  // same register, other process
  read_b.pid = 1;
  StepSummary write_b = read_b;
  write_b.wrote = true;
  StepSummary write_other = write_b;
  write_other.reg = 9;
  StepSummary section_b;  // section-change-adjacent unit of pid 1
  section_b.pid = 1;
  section_b.section_changed = true;
  StepSummary section_a = section_b;
  section_a.pid = 0;

  EXPECT_FALSE(dependent(read_a, read_b));   // read/read commutes
  EXPECT_TRUE(dependent(read_a, write_b));   // read/write conflicts
  EXPECT_FALSE(dependent(read_a, write_other));
  EXPECT_TRUE(dependent(section_a, section_b));  // both touch sections
  EXPECT_FALSE(dependent(read_a, section_b));    // access vs section-change
  EXPECT_TRUE(dependent(read_a, read_a));        // program order

  // Executed-vs-pending: the pending side's adjacency is unknowable.
  NextStep pend_read;
  pend_read.known = true;
  pend_read.reg = 7;
  EXPECT_FALSE(dependent(read_a, pend_read));
  EXPECT_TRUE(dependent(write_b, pend_read));
  EXPECT_TRUE(dependent(section_b, pend_read));  // worst-case adjacency
  NextStep unknown;
  EXPECT_TRUE(dependent(read_a, unknown));
  NextStep yield;
  yield.known = true;
  yield.yield = true;
  EXPECT_FALSE(dependent(read_a, yield));
  EXPECT_TRUE(dependent(section_a, yield));  // yields can change sections
}

TEST(PorSleepSets, TransferWakesOnConflictOnly) {
  std::array<NextStep, 3> pends{};
  pends[1].known = true;
  pends[1].reg = 7;
  pends[2].known = true;
  pends[2].reg = 9;
  const std::uint32_t candidates = 0b110;  // pids 1 and 2 asleep

  StepSummary write7;
  write7.pid = 0;
  write7.accessed = true;
  write7.reg = 7;
  write7.wrote = true;
  const std::uint32_t after =
      transfer_sleep(candidates, write7, std::span(pends.data(), 3));
  EXPECT_EQ(after & 0b010u, 0u);  // conflicting sleeper woke
  EXPECT_NE(after & 0b100u, 0u);  // disjoint sleeper stays asleep

  StepSummary section_step;
  section_step.pid = 0;
  section_step.section_changed = true;
  const std::uint32_t woken =
      transfer_sleep(candidates, section_step, std::span(pends.data(), 3));
  EXPECT_EQ(woken, 0u);  // section changes wake every sleeper
}

// --- Observability is inert: tracing + progress heartbeats running over
// a study must leave the canonical JSON byte-identical, at the sequential
// reference engine and on a thread pool. ---

TEST(PorStudyJson, ByteIdenticalWithObservabilityOn) {
  const auto spec = [] {
    return StudySpec::of("peterson-2p")
        .kind(StudyKind::Mutex)
        .n(2)
        .worst_case(SearchStrategy::Exhaustive)
        .depth(12);
  };
  for (const int threads : {1, 4}) {
    const std::string reference = study_json_at(spec(), threads);
    const std::string dir = ::testing::TempDir();
    const std::string trace_path =
        dir + "por_obs_trace_t" + std::to_string(threads) + ".json";
    const std::string progress_path =
        dir + "por_obs_progress_t" + std::to_string(threads) + ".jsonl";

    StudySpec observed = spec();
    observed.trace(trace_path).progress(progress_path, /*interval_ms=*/1);
    const std::string with_obs = study_json_at(observed, threads);
    EXPECT_EQ(with_obs, reference) << "threads=" << threads;

    // The side channels really ran: the trace file validates as balanced
    // Chrome trace JSON and the heartbeat wrote at least the final line.
    std::ifstream trace_in(trace_path, std::ios::binary);
    ASSERT_TRUE(trace_in.good()) << trace_path;
    std::ostringstream trace_buf;
    trace_buf << trace_in.rdbuf();
    std::vector<std::string> errors;
    EXPECT_TRUE(obs::check_trace_json(trace_buf.str(), &errors));
    for (const std::string& e : errors) {
      ADD_FAILURE() << e;
    }
    std::ifstream progress_in(progress_path);
    ASSERT_TRUE(progress_in.good()) << progress_path;
    std::string line;
    ASSERT_TRUE(std::getline(progress_in, line));
    EXPECT_NE(line.find("\"states\""), std::string::npos);
  }
}

TEST(PorPolicy, RandomStudyRejectsReduction) {
  // A sampled schedule has nothing to prune: the campaign refuses a
  // Random search that asks for source-dpor while it plans, for both
  // kinds the Random sampler serves.
  for (const StudyKind kind : {StudyKind::Mutex, StudyKind::Detector}) {
    const char* subject =
        kind == StudyKind::Mutex ? "peterson-2p" : "splitter-tree-l2";
    EXPECT_THROW((void)run_study(StudySpec::of(subject)
                                     .kind(kind)
                                     .n(2)
                                     .worst_case(SearchStrategy::Random)
                                     .seeds({1})
                                     .reduction(ReductionPolicy::SourceDpor)),
                 std::invalid_argument)
        << name(kind);
  }
}

}  // namespace
}  // namespace cfc
