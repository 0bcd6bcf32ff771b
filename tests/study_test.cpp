// The unified Study/Campaign engine: differential equivalence against the
// legacy per-problem drivers (which now forward here — plus an independent
// from-first-principles reference), campaign dedup/interleaving semantics,
// thread-count invariance down to byte-identical canonical JSON, and the
// repaired detector legacy-overload result type.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/naming_complexity.h"
#include "analysis/study.h"
#include "core/algorithm_registry.h"
#include "core/streaming_measures.h"
#include "sched/sched.h"

namespace cfc {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

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

// --- Differential: the study path reproduces an independent
// from-first-principles measurement (solo runs + streaming accumulator,
// written out longhand here, no shared engine code). ---

TEST(StudyDifferential, MutexCfMatchesFirstPrinciplesReference) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const int n = 8;

  ComplexityReport ref_session;
  ComplexityReport ref_entry;
  ComplexityReport ref_exit;
  for (Pid pid = 0; pid < n; ++pid) {
    Sim sim;
    sim.set_access_policy(AccessPolicy::RegistersOnly);
    MeasureAccumulator acc(n);
    sim.add_sink(acc);
    auto alg = setup_mutex(sim, make, n, 1);
    SoloScheduler solo(pid);
    // A solo run ends with SchedulerStopped (the other processes never
    // start); only budget exhaustion signals failure.
    ASSERT_NE(drive(sim, solo), RunOutcome::BudgetExhausted);
    ref_session = ref_session.max_with(acc.contention_free_session_max(pid));
    ref_entry = ref_entry.max_with(acc.clean_entry_max(pid));
    ref_exit = ref_exit.max_with(acc.exit_max(pid));
  }

  const StudyResult r = run_study(StudySpec::of("lamport-fast")
                                      .kind(StudyKind::Mutex)
                                      .n(n)
                                      .policy(AccessPolicy::RegistersOnly)
                                      .contention_free());
  ASSERT_TRUE(r.has_cf);
  EXPECT_FALSE(r.has_wc);
  expect_reports_equal(r.cf, ref_session, "session");
  expect_reports_equal(r.cf_entry, ref_entry, "entry");
  expect_reports_equal(r.cf_exit, ref_exit, "exit");
  EXPECT_EQ(r.subject, "lamport-fast");
}

// --- Differential: the legacy adapters and the study path agree bit for
// bit on every kind (same seeds, any thread count). ---

TEST(StudyDifferential, LegacyDriversMatchStudyPath) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  ExperimentRunner seq(1);
  ExperimentRunner pool(4);

  for (ExperimentRunner* runner : {&seq, &pool}) {
    // Mutex cf.
    const MutexFactory kessels = registry.mutex("kessels-tree").factory;
    const MutexCfResult legacy_cf = measure_mutex_contention_free(
        kessels, 8, AccessPolicy::RegistersOnly, 0, runner);
    const StudyResult study_cf =
        run_study(StudySpec::of("kessels-tree")
                      .kind(StudyKind::Mutex)
                      .n(8)
                      .policy(AccessPolicy::RegistersOnly)
                      .contention_free(),
                  runner);
    expect_reports_equal(legacy_cf.session, study_cf.cf, "mutex cf");
    expect_reports_equal(legacy_cf.entry, study_cf.cf_entry, "mutex entry");
    expect_reports_equal(legacy_cf.exit, study_cf.cf_exit, "mutex exit");
    EXPECT_EQ(legacy_cf.measured_atomicity, study_cf.measured_atomicity);

    // Mutex wc (exhaustive, certified).
    WorstCaseSearchOptions exhaustive;
    exhaustive.strategy = SearchStrategy::Exhaustive;
    exhaustive.limits.max_depth = 14;
    const MutexFactory peterson = registry.mutex("peterson-2p").factory;
    const MutexWcSearchResult legacy_wc =
        search_mutex_worst_case(peterson, 2, 1, exhaustive, runner);
    const StudyResult study_wc = run_study(StudySpec::of("peterson-2p")
                                               .kind(StudyKind::Mutex)
                                               .n(2)
                                               .worst_case(exhaustive),
                                           runner);
    expect_reports_equal(legacy_wc.entry, study_wc.wc_entry, "wc entry");
    expect_reports_equal(legacy_wc.exit, study_wc.wc_exit, "wc exit");
    EXPECT_EQ(legacy_wc.schedules_tried, study_wc.schedules_tried);
    EXPECT_EQ(legacy_wc.states_visited, study_wc.states_visited);
    EXPECT_EQ(legacy_wc.violations, study_wc.violations);
    EXPECT_EQ(legacy_wc.certified, study_wc.certified);

    // Naming battery.
    const NamingFactory taf = registry.naming("taf-tree").factory;
    const NamingAlgMeasurement legacy_naming =
        measure_naming(taf, 8, {1, 2, 3}, runner);
    const StudyResult study_naming = run_study(StudySpec::of("taf-tree")
                                                   .kind(StudyKind::Naming)
                                                   .n(8)
                                                   .contention_free()
                                                   .worst_case()
                                                   .seeds({1, 2, 3}),
                                               runner);
    EXPECT_EQ(legacy_naming.name, study_naming.subject);
    expect_reports_equal(legacy_naming.cf, study_naming.cf, "naming cf");
    expect_reports_equal(legacy_naming.wc, study_naming.wc, "naming wc");

    // Detector cf + wc.
    const DetectorFactory splitter =
        registry.detector("splitter-tree-l2").factory;
    const ComplexityReport legacy_dcf =
        measure_detector_contention_free(splitter, 8, runner);
    WorstCaseSearchOptions random;
    random.strategy = SearchStrategy::Random;
    random.seeds = {1, 2, 3, 4};
    const DetectorWcSearchResult legacy_dwc =
        search_detector_worst_case(splitter, 8, random, runner);
    const StudyResult study_detector =
        run_study(StudySpec::of("splitter-tree-l2")
                      .kind(StudyKind::Detector)
                      .n(8)
                      .contention_free()
                      .worst_case(random),
                  runner);
    expect_reports_equal(legacy_dcf, study_detector.cf, "detector cf");
    expect_reports_equal(legacy_dwc.best, study_detector.wc, "detector wc");
    EXPECT_EQ(legacy_dwc.schedules_tried, study_detector.schedules_tried);
    EXPECT_EQ(legacy_dwc.truncated, study_detector.truncated);
  }
}

// --- Campaign semantics. ---

TEST(Campaign, BatchedResultsEqualIndividualRuns) {
  // One mixed-kind campaign (cells interleaved, shared flat grid) must
  // reproduce the one-spec-at-a-time results exactly.
  const std::vector<StudySpec> specs = {
      StudySpec::of("lamport-fast")
          .kind(StudyKind::Mutex)
          .n(4)
          .policy(AccessPolicy::RegistersOnly)
          .contention_free(),
      StudySpec::of("tas-scan")
          .kind(StudyKind::Naming)
          .n(8)
          .contention_free()
          .worst_case()
          .seeds({1, 2}),
      StudySpec::of("splitter-tree-l2")
          .kind(StudyKind::Detector)
          .n(4)
          .contention_free(),
  };
  Campaign campaign;
  campaign.add(specs);
  const std::vector<StudyResult> batched = campaign.run();
  ASSERT_EQ(batched.size(), specs.size());

  const StudyJsonOptions no_timing{.include_timing = false};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const StudyResult single = run_study(specs[i]);
    EXPECT_EQ(to_json(batched[i], no_timing), to_json(single, no_timing))
        << "spec " << i;
  }
}

TEST(Campaign, DeduplicatesIdenticalRegistryMeasurements) {
  const StudySpec spec = StudySpec::of("lamport-fast")
                             .kind(StudyKind::Mutex)
                             .n(4)
                             .policy(AccessPolicy::RegistersOnly)
                             .contention_free();
  Campaign campaign;
  campaign.add(spec);
  campaign.add(spec);  // identical request: must share the task
  // A third spec differing only in sample normalization (sample_pids=0 and
  // sample_pids=n measure the same pids) also dedups.
  StudySpec normalized = spec;
  normalized.sample_pids(4);
  campaign.add(normalized);

  CampaignStats stats;
  const std::vector<StudyResult> results = campaign.run(nullptr, &stats);
  EXPECT_EQ(stats.specs, 3u);
  EXPECT_EQ(stats.tasks_planned, 1u);
  EXPECT_EQ(stats.tasks_deduplicated, 2u);
  EXPECT_EQ(stats.cells, 4u);  // one solo run per pid, shared by all specs

  const StudyJsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(to_json(results[0], no_timing), to_json(results[1], no_timing));
  EXPECT_EQ(to_json(results[0], no_timing), to_json(results[2], no_timing));
}

TEST(Campaign, AdhocFactoriesAreNeverDeduplicated) {
  const MutexFactory lamport =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  StudySpec adhoc = StudySpec::of("custom-label")
                        .kind(StudyKind::Mutex)
                        .n(2)
                        .contention_free();
  adhoc.factory(lamport);
  Campaign campaign;
  campaign.add(adhoc);
  campaign.add(adhoc);
  CampaignStats stats;
  const std::vector<StudyResult> results = campaign.run(nullptr, &stats);
  EXPECT_EQ(stats.tasks_planned, 2u);
  EXPECT_EQ(stats.tasks_deduplicated, 0u);
  EXPECT_EQ(results[0].subject, "custom-label");
}

TEST(Campaign, ThreadCountsProduceByteIdenticalJson) {
  // The acceptance bar: a mixed campaign serialized canonically (timing
  // excluded) is byte-identical between the sequential reference engine
  // and a thread pool.
  Campaign campaign;
  campaign.add(StudySpec::of("kessels-tree")
                   .kind(StudyKind::Mutex)
                   .n(8)
                   .policy(AccessPolicy::RegistersOnly)
                   .contention_free()
                   .worst_case(SearchStrategy::Random)
                   .seeds({1, 2, 3, 4}));
  campaign.add(StudySpec::of("tas-read-search")
                   .kind(StudyKind::Naming)
                   .n(16)
                   .contention_free()
                   .worst_case()
                   .seeds({1, 2, 3}));
  campaign.add(StudySpec::of("splitter-tree-l2")
                   .kind(StudyKind::Detector)
                   .n(8)
                   .contention_free()
                   .worst_case(SearchStrategy::Random)
                   .seeds({5, 6}));

  ExperimentRunner seq(1);
  ExperimentRunner pool(4);
  const std::vector<StudyResult> a = campaign.run(&seq);
  const std::vector<StudyResult> b = campaign.run(&pool);
  const StudyJsonOptions no_timing{.include_timing = false};
  EXPECT_EQ(to_json(a, no_timing), to_json(b, no_timing));
}

TEST(Campaign, RandomSearchesRunOneCellPerSeed) {
  // The seeded sampler, pinned to the timing-free JSON
  // (tests/golden/random_campaign.json) it wrote when it still ran inside
  // the Explorer, except states_visited, which counts scheduler picks and
  // not the start-only units of the schedule log (seed 1's cut run makes
  // its 60 picks): a crash-injected mutex whose 60-pick budget cuts seed 1
  // (p0's crash at its sixth access leaves the others spinning) while
  // seeds 2-4 complete, and a detector at the default budget. Each seed is
  // a campaign cell of its own, reduced in seed order.
  Campaign campaign;
  campaign.add(StudySpec::of("lamport-fast")
                   .kind(StudyKind::Mutex)
                   .n(3)
                   .worst_case(SearchStrategy::Random)
                   .seeds({1, 2, 3, 4})
                   .crash({5, 0})
                   .budget(60));
  campaign.add(StudySpec::of("splitter-tree-l2")
                   .kind(StudyKind::Detector)
                   .n(4)
                   .worst_case(SearchStrategy::Random)
                   .seeds({5, 6, 7}));
  // The golden file ends with a trailing newline.
  const std::string pinned =
      read_file(std::string(CFC_SOURCE_DIR) +
                "/tests/golden/random_campaign.json");
  const StudyJsonOptions no_timing{.include_timing = false};
  for (const int threads : {1, 4}) {
    ExperimentRunner runner(threads);
    CampaignStats stats;
    const std::vector<StudyResult> results = campaign.run(&runner, &stats);
    EXPECT_EQ(to_json(results, no_timing) + "\n", pinned)
        << "threads=" << threads;
    EXPECT_EQ(stats.cells, 7u);
  }
  // Seed 1 alone: its run is cut by the budget after exactly 60 picks.
  const StudyResult cut = run_study(StudySpec::of("lamport-fast")
                                        .kind(StudyKind::Mutex)
                                        .n(3)
                                        .worst_case(SearchStrategy::Random)
                                        .seeds({1})
                                        .crash({5, 0})
                                        .budget(60));
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.states_visited, 60u);
}

TEST(Campaign, NamingWcOnlyMasksContentionFree) {
  const StudyResult r = run_study(StudySpec::of("tas-scan")
                                      .kind(StudyKind::Naming)
                                      .n(8)
                                      .worst_case()
                                      .seeds({1}));
  EXPECT_TRUE(r.has_wc);
  EXPECT_FALSE(r.has_cf);
  EXPECT_EQ(r.cf.steps, 0);
  EXPECT_EQ(r.measured_atomicity, 0);
  EXPECT_GE(r.wc.steps, 7);  // n-1 for tas-scan
}

TEST(Campaign, ResolutionErrorsSurfaceOnTheCallingThread) {
  EXPECT_THROW(
      (void)run_study(
          StudySpec::of("no-such-algorithm").kind(StudyKind::Mutex).n(2)),
      std::out_of_range);
  // Capacity violation: peterson-2p at n=3.
  EXPECT_THROW((void)run_study(StudySpec::of("peterson-2p")
                                   .kind(StudyKind::Mutex)
                                   .n(3)
                                   .contention_free()),
               std::invalid_argument);
}

// --- The reduction policy at the study level. ---

TEST(StudyReduction, ExhaustiveDefaultsToOffAndSurfacesCounters) {
  // StudySpec::worst_case(Exhaustive) selects the unreduced, wave-shared
  // search; the reduction identity and counters surface in the result
  // (and its canonical JSON), and the certified values match source-DPOR's
  // — the POR differential suite proves that wholesale, this spot-checks
  // the study integration.
  const auto spec = [] {
    return StudySpec::of("peterson-2p")
        .kind(StudyKind::Mutex)
        .n(2)
        .worst_case(SearchStrategy::Exhaustive)
        .depth(14);
  };
  const StudyResult r = run_study(spec());
  EXPECT_EQ(r.wc_reduction, ReductionPolicy::Off);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(r.races_detected, 0u);
  EXPECT_GT(r.work_items, 0u);
  EXPECT_GT(r.restore_marks, 0u);
  EXPECT_GT(r.cache_hits, 0u);
  EXPECT_NE(to_json(r).find("\"policy\": \"off\""), std::string::npos);

  const StudyResult dpor =
      run_study(spec().reduction(ReductionPolicy::SourceDpor));
  EXPECT_EQ(dpor.wc_reduction, ReductionPolicy::SourceDpor);
  EXPECT_GT(dpor.races_detected, 0u);
  EXPECT_GT(dpor.backtrack_points, 0u);
  EXPECT_NE(to_json(dpor).find("\"policy\": \"source-dpor\""),
            std::string::npos);
  expect_reports_equal(dpor.wc_entry, r.wc_entry, "entry vs source-dpor");
  expect_reports_equal(dpor.wc_exit, r.wc_exit, "exit vs source-dpor");
  EXPECT_EQ(dpor.certified, r.certified);

  // Distinct reduction policies must not deduplicate into one task; the
  // default and an explicit `off` are one policy, so they must.
  const struct {
    ReductionPolicy paired;
    std::size_t planned;
    std::size_t deduplicated;
  } pairs[] = {{ReductionPolicy::SourceDpor, 2, 0},
               {ReductionPolicy::Off, 1, 1}};
  for (const auto& pair : pairs) {
    SCOPED_TRACE(name(pair.paired));
    Campaign campaign;
    campaign.add(spec());
    campaign.add(spec().reduction(pair.paired));
    CampaignStats stats;
    (void)campaign.run(nullptr, &stats);
    EXPECT_EQ(stats.tasks_planned, pair.planned);
    EXPECT_EQ(stats.tasks_deduplicated, pair.deduplicated);
  }
}

}  // namespace
}  // namespace cfc
