// Static model analysis (src/sa/): soundness of the footprint/conflict
// refinement of the POR dependence relation, plus the registry linter.
//
//  * The differential suite is the acceptance gate of the refinement: the
//    statically refined source-DPOR search must certify *bit-identical*
//    report values — whole-run totals, every window maximum, and the
//    violation verdict — to the unrefined source-DPOR search, for every
//    registry mutex and detector at n = 2..3, crash injection included,
//    on the sequential engine and a thread pool, while never visiting
//    more states.
//  * The over-approximation suite pins every dynamically observed
//    register conflict (solo + randomized schedules, every registry
//    algorithm including naming) to the static may-conflict table — a
//    coverage hole in the collection pass fails here instead of hiding.
//  * The lint fixtures exercise every cfc_lint diagnostic on deliberately
//    broken algorithms, and the real registry must lint error-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/explorer.h"
#include "analysis/study.h"
#include "core/algorithm_registry.h"
#include "core/bounds.h"
#include "core/contention_detection.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "por/dependence.h"
#include "sa/lint.h"
#include "sa/static_summary.h"
#include "sched/sched.h"
#include "sched/sim.h"

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

/// Same full-measurement objective as the POR differential: every field
/// the paper's measures define, so value preservation is proven for all
/// of them at once.
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
  return obj;
}

Explorer::Config explorer_config(const Explorer::SetupFn& setup, int n,
                                 int depth, bool static_refine) {
  Explorer::Config cfg;
  cfg.nprocs = n;
  cfg.strategy = SearchStrategy::Exhaustive;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = ReductionPolicy::SourceDpor;
  cfg.limits.static_refine = static_refine;
  cfg.setup = setup;
  cfg.objective = all_measures_objective(n);
  return cfg;
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

/// The differential: the refined search must certify bit-identical values,
/// violations, and truncation outcomes. Exploration-size counters are NOT
/// compared: sleep-set DPOR tree size is not monotone in the dependence
/// relation (a weaker relation can reorder backtrack insertion and grow the
/// tree — lamport-packed does at n=2), so the states-never-increase gate
/// lives in bench/explorer_scaling section 3d on its fixed bench configs.
void expect_refined_matches_unrefined(const Explorer::SetupFn& setup, int n,
                                      int depth, ExperimentRunner* runner,
                                      const std::string& what) {
  const Explorer::Result base =
      Explorer(explorer_config(setup, n, depth, /*static_refine=*/false))
          .run(runner);
  const Explorer::Result refined =
      Explorer(explorer_config(setup, n, depth, /*static_refine=*/true))
          .run(runner);
  ASSERT_EQ(base.best.size(), refined.best.size()) << what;
  const char* field[] = {"clean-entry", "exit", "cf-session", "totals"};
  for (std::size_t i = 0; i < base.best.size(); ++i) {
    expect_reports_equal(base.best[i], refined.best[i],
                         what + " / " + field[i]);
  }
  EXPECT_EQ(base.stats.violations, refined.stats.violations) << what;
  EXPECT_EQ(base.stats.truncated, refined.stats.truncated) << what;
  EXPECT_EQ(base.stats.state_budget_hit, refined.stats.state_budget_hit)
      << what;
  // The unrefined run never refines anything.
  EXPECT_EQ(base.stats.static_refined_pairs, 0u) << what;
}

TEST(SaDifferential, MutexRegistryAtN2And3) {
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
        expect_refined_matches_unrefined(mutex_setup(e->factory, n), n,
                                         depth, runner, what);
      }
    }
  }
}

TEST(SaDifferential, DetectorRegistryAtN2And3) {
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
        expect_refined_matches_unrefined(detector_setup(e->factory, n), n,
                                         depth, runner, what);
      }
    }
  }
}

TEST(SaDifferential, MutexWithCrashInjection) {
  // Crash-armed pending units are exactly what R1/R2 refine, so the crash
  // differential is the suite's sharpest probe.
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  for (const int n : {2, 3}) {
    const int depth = n == 2 ? 12 : 8;
    for (const MutexAlgorithmEntry* e :
         AlgorithmRegistry::instance().mutex_for_n(n)) {
      for (ExperimentRunner* runner : {&seq, &pool}) {
        const std::string what = e->info.name + " crash n=" +
                                 std::to_string(n) + " threads=" +
                                 std::to_string(runner->thread_count());
        SCOPED_TRACE(what);
        expect_refined_matches_unrefined(mutex_setup(e->factory, n, {2}), n,
                                         depth, runner, what);
      }
    }
  }
}

TEST(SaDifferential, DetectorWithCrashInjection) {
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
        expect_refined_matches_unrefined(detector_setup(e->factory, n, {1}),
                                         n, depth, runner, what);
      }
    }
  }
}

TEST(SaDifferential, RefinementCounterPopulatedAndThreadInvariant) {
  const MutexFactory peterson =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const auto cfg = explorer_config(mutex_setup(peterson, 2), 2, 14,
                                   /*static_refine=*/true);
  const Explorer::Result a = Explorer(cfg).run(&seq);
  const Explorer::Result b = Explorer(cfg).run(&pool);
  // At the root both processes are NotStarted: R1 synthesizes their first
  // units (distinct flag registers), so refined pairs must fire.
  EXPECT_GT(a.stats.static_refined_pairs, 0u);
  EXPECT_EQ(a.stats.static_refined_pairs, b.stats.static_refined_pairs);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.races_detected, b.stats.races_detected);
  EXPECT_EQ(a.stats.backtrack_points, b.stats.backtrack_points);
  EXPECT_EQ(a.stats.sleep_blocked, b.stats.sleep_blocked);
}

// --- The over-approximation suite: every dynamically observed conflict is
// in the static table. ---

/// Per-register dynamic observation: which pids were seen reading/writing
/// over a battery of schedules.
struct DynamicFootprint {
  std::vector<std::uint32_t> readers;
  std::vector<std::uint32_t> writers;

  void ensure(std::size_t regs) {
    if (readers.size() < regs) {
      readers.resize(regs, 0);
      writers.resize(regs, 0);
    }
  }

  void record(const Sim& sim) {
    for (const TraceEvent& ev : sim.trace().events()) {
      if (ev.kind != TraceEvent::Kind::Access || ev.pid < 0) {
        continue;
      }
      ensure(static_cast<std::size_t>(ev.access.reg) + 1);
      const std::uint32_t bit = 1u << static_cast<unsigned>(ev.pid);
      if (ev.access.is_write()) {
        writers[static_cast<std::size_t>(ev.access.reg)] |= bit;
      }
      if (!ev.access.is_write() || ev.access.is_read()) {
        readers[static_cast<std::size_t>(ev.access.reg)] |= bit;
      }
    }
  }
};

/// Dry-runs a battery of schedules (one solo run per pid, then randomized
/// schedules over several seeds) and asserts every observed conflicting
/// pair is in the model's may-conflict table.
void expect_overapproximates(const StaticModel::SetupFn& setup, int n,
                             const std::string& what) {
  const StaticModel model = StaticModel::analyze(setup, n);
  DynamicFootprint obs;
  const auto run_one = [&](Scheduler& sched) {
    Sim sim;
    const std::shared_ptr<void> owner = setup(sim);
    try {
      (void)drive(sim, sched, RunLimits{4096});
    } catch (const MutualExclusionViolation&) {
      // Broken subjects (SelfishDetector-style): the partial trace still
      // counts as dynamic observation.
    }
    obs.record(sim);
  };
  for (Pid p = 0; p < n; ++p) {
    SoloScheduler solo(p);
    run_one(solo);
  }
  for (const std::uint64_t seed :
       {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    RandomScheduler rnd(seed);
    run_one(rnd);
  }
  for (RegId r = 0; r < static_cast<RegId>(obs.readers.size()); ++r) {
    const std::uint32_t touch = obs.readers[static_cast<std::size_t>(r)] |
                                obs.writers[static_cast<std::size_t>(r)];
    for (Pid a = 0; a < n; ++a) {
      for (Pid b = a + 1; b < n; ++b) {
        const std::uint32_t abit = 1u << static_cast<unsigned>(a);
        const std::uint32_t bbit = 1u << static_cast<unsigned>(b);
        const bool both = (touch & abit) != 0 && (touch & bbit) != 0;
        const std::uint32_t w = obs.writers[static_cast<std::size_t>(r)];
        if (both && (w & (abit | bbit)) != 0) {
          EXPECT_TRUE(model.may_conflict(r, a, b))
              << what << ": observed conflict on register " << r
              << " between pids " << a << " and " << b
              << " missing from the static table";
        }
      }
    }
  }
}

TEST(SaOverApproximation, MutexRegistry) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    SCOPED_TRACE(e->info.name);
    expect_overapproximates(mutex_setup(e->factory, 2), 2, e->info.name);
  }
}

TEST(SaOverApproximation, MutexRegistryWithCrashInjection) {
  for (const MutexAlgorithmEntry* e :
       AlgorithmRegistry::instance().mutex_for_n(2)) {
    SCOPED_TRACE(e->info.name + " crash");
    expect_overapproximates(mutex_setup(e->factory, 2, {2}), 2,
                            e->info.name + " crash");
  }
}

TEST(SaOverApproximation, NamingRegistry) {
  for (const int n : {2, 3}) {
    for (const NamingAlgorithmEntry* e :
         AlgorithmRegistry::instance().naming_algorithms()) {
      if (e->info.max_n != 0 && n > e->info.max_n) {
        continue;
      }
      if (e->info.pow2_n_only && !bounds::is_power_of_two(n)) {
        continue;
      }
      const NamingFactory make = e->factory;
      const std::string what = e->info.name + " n=" + std::to_string(n);
      SCOPED_TRACE(what);
      expect_overapproximates(
          [make, n](Sim& sim) -> std::shared_ptr<void> {
            return setup_naming(sim, make, n);
          },
          n, what);
    }
  }
}

TEST(SaOverApproximation, DetectorRegistry) {
  for (const int n : {2, 3}) {
    for (const DetectorAlgorithmEntry* e :
         AlgorithmRegistry::instance().detector_algorithms()) {
      const std::string what = e->info.name + " n=" + std::to_string(n);
      SCOPED_TRACE(what);
      expect_overapproximates(detector_setup(e->factory, n), n, what);
    }
  }
}

// --- The static model itself. ---

TEST(SaStaticModel, PetersonFootprint) {
  const MutexFactory peterson =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const StaticModel model =
      StaticModel::analyze(mutex_setup(peterson, 2), 2);
  EXPECT_EQ(model.nprocs(), 2);
  EXPECT_GT(model.register_count(), 0);
  EXPECT_GT(model.units_collected(), 0u);
  for (Pid p = 0; p < 2; ++p) {
    // Peterson's first unit is the flag write: known, a real access, a
    // write.
    const FirstUnit& fu = model.first_unit(p);
    EXPECT_TRUE(fu.known);
    EXPECT_FALSE(fu.yield);
    EXPECT_TRUE(fu.wrote);
    EXPECT_GE(fu.reg, 0);
    // The session driver enters Entry before the flag write posts.
    EXPECT_FALSE(fu.prologue_quiet);
    const SoloOutcome& solo = model.solo_outcome(p);
    EXPECT_TRUE(solo.completed);
    EXPECT_TRUE(solo.entered_entry);
    EXPECT_TRUE(solo.entered_exit);
    EXPECT_GT(solo.units, 0u);
    EXPECT_GE(solo.max_width_accessed, 1);
  }
  // The two first units hit distinct per-process flags.
  EXPECT_NE(model.first_unit(0).reg, model.first_unit(1).reg);
  // Out-of-range queries answer conservatively.
  EXPECT_TRUE(model.write_may_change_section(
      static_cast<RegId>(model.register_count())));
  EXPECT_TRUE(model.may_conflict(static_cast<RegId>(model.register_count()),
                                 0, 1));
}

TEST(SaDependence, StaticModelRefinesUnstartedAndCrashUnits) {
  const MutexFactory peterson =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const auto setup = mutex_setup(peterson, 2);
  const StaticModel model = StaticModel::analyze(setup, 2);

  // R1 gate: the mutex session driver enters Entry during the prologue, so
  // a registry mutex's unstarted pend stays unknown even with the model —
  // a section-changing prologue is observationally dependent with every
  // concurrently measured step, which the pending-side relation cannot
  // express (see por/dependence.h).
  {
    Sim sim;
    const std::shared_ptr<void> owner = setup(sim);
    EXPECT_TRUE(model.first_unit(0).known);
    EXPECT_FALSE(model.first_unit(0).prologue_quiet);
    const NextStep plain = next_step_of(sim, 0);
    EXPECT_FALSE(plain.known);
    const NextStep refined = next_step_of(sim, 0, &model);
    EXPECT_FALSE(refined.known);
  }

  // A raw section-quiet model: the body's first action IS the posted
  // write, nothing changes sections before it. R1 applies here.
  const StaticModel::SetupFn quiet_setup =
      [](Sim& sim) -> std::shared_ptr<void> {
    const RegId r = sim.memory().add_register("quiet.r", 8);
    for (int p = 0; p < 2; ++p) {
      sim.spawn("q" + std::to_string(p),
                [r](ProcessContext& ctx) -> Task<void> {
                  co_await ctx.write(r, 1);
                  (void)co_await ctx.read(r);
                });
    }
    return nullptr;
  };
  const StaticModel quiet_model = StaticModel::analyze(quiet_setup, 2);

  // R1: a NotStarted quiet-prologue process is unknown dynamically, known
  // statically; the first access's continuation may still change sections.
  {
    Sim sim;
    const std::shared_ptr<void> owner = quiet_setup(sim);
    ASSERT_TRUE(quiet_model.first_unit(0).known);
    ASSERT_TRUE(quiet_model.first_unit(0).prologue_quiet);
    const NextStep plain = next_step_of(sim, 0);
    EXPECT_FALSE(plain.known);
    const NextStep refined = next_step_of(sim, 0, &quiet_model);
    EXPECT_TRUE(refined.known);
    EXPECT_TRUE(refined.statically_known);
    EXPECT_FALSE(refined.yield);
    EXPECT_TRUE(refined.wrote);
    EXPECT_EQ(refined.reg, quiet_model.first_unit(0).reg);
    EXPECT_TRUE(refined.may_change_section);
  }

  // R1 + armed crash before the first unit: the quiet prologue followed by
  // the immediate crash provably emits nothing — section-quiet yield.
  {
    Sim sim;
    const std::shared_ptr<void> owner = quiet_setup(sim);
    sim.crash_after(0, 0);
    const NextStep refined = next_step_of(sim, 0, &quiet_model);
    EXPECT_TRUE(refined.known);
    EXPECT_TRUE(refined.statically_known);
    EXPECT_TRUE(refined.yield);
    EXPECT_FALSE(refined.may_change_section);
  }

  // The same crash arming stays unknown under the section-changing
  // prologue: the Entry change the prologue emits is real.
  {
    Sim sim;
    const std::shared_ptr<void> owner = setup(sim);
    sim.crash_after(0, 0);
    const NextStep refined = next_step_of(sim, 0, &model);
    EXPECT_FALSE(refined.known);
  }

  // R2: a Runnable process with an armed crash emits only the Crash
  // terminal event — known, yield, section-quiet.
  {
    Sim sim;
    const std::shared_ptr<void> owner = setup(sim);
    sim.crash_after(0, 1);
    sim.step(0);  // first access executes; the crash is now pending
    ASSERT_TRUE(sim.crash_pending(0));
    const NextStep plain = next_step_of(sim, 0);
    EXPECT_FALSE(plain.known);
    const NextStep refined = next_step_of(sim, 0, &model);
    EXPECT_TRUE(refined.known);
    EXPECT_TRUE(refined.statically_known);
    EXPECT_TRUE(refined.yield);
    EXPECT_FALSE(refined.may_change_section);
  }
}

TEST(SaDependence, RefinedPairCounterCountsOnlyStaticWins) {
  StepSummary quiet_write;  // section-quiet write of register 3 by pid 0
  quiet_write.pid = 0;
  quiet_write.accessed = true;
  quiet_write.reg = 3;
  quiet_write.wrote = true;

  NextStep dynamic_pend;  // dynamically captured pend on another register
  dynamic_pend.known = true;
  dynamic_pend.reg = 5;
  NextStep static_pend = dynamic_pend;  // same shape, statically synthesized
  static_pend.statically_known = true;

  std::uint64_t count = 0;
  // Independent either way, but only the static synthesis is a refinement:
  // the dynamic capture would have answered independent unrefined too.
  EXPECT_FALSE(dependent(quiet_write, dynamic_pend, &count));
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(dependent(quiet_write, static_pend, &count));
  EXPECT_EQ(count, 1u);

  // A section-changing executed unit against a section-quiet pend: only a
  // static section-quiet fact (may_change_section=false) lets the pair
  // through, so that independence is counted as refined as well.
  StepSummary section_step;
  section_step.pid = 0;
  section_step.section_changed = true;
  NextStep quiet_pend;
  quiet_pend.known = true;
  quiet_pend.reg = 5;
  quiet_pend.may_change_section = false;
  count = 0;
  EXPECT_FALSE(dependent(section_step, quiet_pend, &count));
  EXPECT_EQ(count, 1u);

  // Dependent pairs never count.
  NextStep same_reg = static_pend;
  same_reg.reg = 3;
  count = 0;
  EXPECT_TRUE(dependent(quiet_write, same_reg, &count));
  EXPECT_EQ(count, 0u);
}

// --- Study plumbing: the spec flag, the JSON counter. ---

TEST(SaStudy, StaticRefineFlagFlowsIntoStudyJson) {
  StudySpec base = StudySpec::of("peterson-2p")
                       .kind(StudyKind::Mutex)
                       .n(2)
                       .worst_case(SearchStrategy::Exhaustive)
                       .depth(12);
  StudySpec refined = base;
  refined.static_refine();
  // The fluent flag survives a later limits() call (like the reduction
  // policy), so builder order does not matter.
  ExploreLimits relimit;
  relimit.max_depth = 12;
  refined.limits(relimit);
  EXPECT_TRUE(refined.search.limits.static_refine);
  EXPECT_EQ(refined.search.limits.reduction, ReductionPolicy::SourceDpor);

  const StudyResult a = run_study(base);
  const StudyResult b = run_study(refined);
  EXPECT_EQ(a.static_refined_pairs, 0u);
  EXPECT_GT(b.static_refined_pairs, 0u);
  // Value preservation end-to-end through the study pipeline.
  expect_reports_equal(a.wc, b.wc, "wc totals");
  expect_reports_equal(a.wc_entry, b.wc_entry, "wc entry");
  expect_reports_equal(a.wc_exit, b.wc_exit, "wc exit");
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_LE(b.states_visited, a.states_visited);

  const std::string json = to_json(b);
  EXPECT_NE(json.find("\"static_refined_pairs\": "), std::string::npos);
  EXPECT_EQ(study_from_json(json).static_refined_pairs,
            b.static_refined_pairs);
}

// --- The lint fixtures: one deliberately broken algorithm per rule. ---

/// A well-behaved single-register base; fixtures override what they break.
class FixtureMutex : public MutexAlgorithm {
 public:
  explicit FixtureMutex(RegisterFile& mem) {
    r_ = mem.add_bit("fixture.r");
  }
  Task<void> enter(ProcessContext& ctx, int) override {
    co_await ctx.write(r_, 1);
  }
  Task<void> exit(ProcessContext& ctx, int) override {
    co_await ctx.write(r_, 0);
  }
  Task<Value> try_enter(ProcessContext& ctx, int slot, RegId) override {
    co_await enter(ctx, slot);
    co_return 1;
  }
  [[nodiscard]] int capacity() const override { return 8; }
  [[nodiscard]] int atomicity() const override { return 1; }
  [[nodiscard]] std::string algorithm_name() const override {
    return "fixture";
  }

 protected:
  RegId r_;
};

MutexAlgorithmEntry fixture_entry(std::string name, MutexFactory factory) {
  return MutexAlgorithmEntry{AlgorithmInfo::named(std::move(name)),
                             std::move(factory)};
}

bool has_rule(const std::vector<LintDiagnostic>& diags,
              const std::string& rule, LintSeverity sev) {
  for (const LintDiagnostic& d : diags) {
    if (d.rule == rule && d.severity == sev) {
      return true;
    }
  }
  return false;
}

TEST(SaLint, CleanFixturePasses) {
  const auto diags = lint_mutex(fixture_entry(
      "fixture-clean", [](RegisterFile& mem, int) {
        return std::make_unique<FixtureMutex>(mem);
      }));
  EXPECT_FALSE(has_errors(diags));
  EXPECT_TRUE(diags.empty());
}

TEST(SaLint, DeadRegisterWarns) {
  class DeadReg final : public FixtureMutex {
   public:
    explicit DeadReg(RegisterFile& mem) : FixtureMutex(mem) {
      (void)mem.add_bit("fixture.never_touched");
    }
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-dead-register", [](RegisterFile& mem, int) {
        return std::make_unique<DeadReg>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "dead-register", LintSeverity::Warning));
  EXPECT_FALSE(has_errors(diags));  // a warning, not an error
}

TEST(SaLint, AtomicityMismatchErrors) {
  class WideReg final : public FixtureMutex {
   public:
    explicit WideReg(RegisterFile& mem) : FixtureMutex(mem) {
      wide_ = mem.add_register("fixture.wide", 4);
    }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.write(wide_, 9);  // 4-bit write under declared l = 1
      co_await ctx.write(r_, 1);
    }

   private:
    RegId wide_;
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-atomicity", [](RegisterFile& mem, int) {
        return std::make_unique<WideReg>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "atomicity-mismatch", LintSeverity::Error));
}

TEST(SaLint, FieldOverlapErrors) {
  class OverlappingFields final : public FixtureMutex {
   public:
    explicit OverlappingFields(RegisterFile& mem) : FixtureMutex(mem) {
      packed_ = mem.add_register("fixture.packed", 4);
    }
    Task<void> enter(ProcessContext& ctx, int) override {
      co_await ctx.write_field(packed_, 0, 2, 1);
      co_await ctx.write(r_, 1);
    }
    Task<void> exit(ProcessContext& ctx, int) override {
      co_await ctx.write_field(packed_, 1, 2, 1);  // overlaps [0,2) at bit 1
      co_await ctx.write(r_, 0);
    }
    [[nodiscard]] int atomicity() const override { return 4; }

   private:
    RegId packed_;
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-field-overlap", [](RegisterFile& mem, int) {
        return std::make_unique<OverlappingFields>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "field-overlap", LintSeverity::Error));
}

TEST(SaLint, CapacityMetadataErrors) {
  // Declared max_n above what the built instance supports.
  class Cap2 final : public FixtureMutex {
   public:
    explicit Cap2(RegisterFile& mem) : FixtureMutex(mem) {}
    [[nodiscard]] int capacity() const override { return 2; }
  };
  MutexAlgorithmEntry shrunk = fixture_entry(
      "fixture-capacity", [](RegisterFile& mem, int) {
        return std::make_unique<Cap2>(mem);
      });
  shrunk.info.max_n = 4;
  EXPECT_TRUE(has_rule(lint_mutex(shrunk), "capacity-metadata",
                       LintSeverity::Error));

  // pow2 flag on a non-power-of-two declared capacity (constructed
  // directly — registration itself rejects this shape, which
  // RegistryValidation below covers).
  MutexAlgorithmEntry pow2 = fixture_entry(
      "fixture-pow2", [](RegisterFile& mem, int) {
        return std::make_unique<FixtureMutex>(mem);
      });
  pow2.info.max_n = 6;
  pow2.info.pow2_n_only = true;
  EXPECT_TRUE(has_rule(lint_mutex(pow2), "capacity-metadata",
                       LintSeverity::Error));
}

TEST(SaLint, SectionProtocolErrors) {
  class StuckEnter final : public FixtureMutex {
   public:
    explicit StuckEnter(RegisterFile& mem) : FixtureMutex(mem) {}
    Task<void> enter(ProcessContext& ctx, int) override {
      for (;;) {
        co_await ctx.read(r_);  // spins forever, even solo
      }
    }
  };
  const auto diags = lint_mutex(fixture_entry(
      "fixture-stuck", [](RegisterFile& mem, int) {
        return std::make_unique<StuckEnter>(mem);
      }));
  EXPECT_TRUE(has_rule(diags, "section-protocol", LintSeverity::Error));
}

TEST(SaLint, RegistryIsErrorFree) {
  // The CI gate in test form: warnings allowed, errors never.
  const std::vector<LintDiagnostic> diags = lint_registry();
  for (const LintDiagnostic& d : diags) {
    EXPECT_NE(d.severity, LintSeverity::Error) << d.format();
  }
}

}  // namespace
}  // namespace cfc
