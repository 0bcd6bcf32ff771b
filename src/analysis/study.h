#ifndef CFC_ANALYSIS_STUDY_H
#define CFC_ANALYSIS_STUDY_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/explorer.h"
#include "core/contention_detection.h"
#include "core/measures.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sim.h"

namespace cfc {

/// The unified Study/Campaign API: one declarative front door for every
/// measurement driver the paper's framework defines — contention-free
/// measurement and worst-case schedule search, for mutual exclusion, naming
/// and contention detection alike. The per-problem entry points in
/// analysis/experiment.h and analysis/naming_complexity.h are thin
/// forwarding adapters over this layer.
///
/// Determinism contract (inherited from the experiment engine): a study's
/// independent cells are fanned across an ExperimentRunner and reduced in a
/// fixed order, so every StudyResult is bit-identical for every thread
/// count; `ExperimentRunner seq(1)` is the reference sequential engine.
/// Only StudyResult::wall_ms is nondeterministic, and the canonical JSON
/// serializer can exclude it (StudyJsonOptions::include_timing).

/// Which of the paper's three problems a study measures.
enum class StudyKind : std::uint8_t { Mutex, Naming, Detector };

[[nodiscard]] const char* name(StudyKind k);

/// How a worst-case search walks the schedule space.
enum class SearchStrategy : std::uint8_t {
  /// Every interleaving within the depth bound — a *certified* bound over
  /// all schedules of at most max_depth picks (hashed-state fidelity). Runs
  /// the schedule-space Explorer.
  Exhaustive,
  /// Seeded random schedules — the legacy sampler. A lower bound only.
  Random,
};

[[nodiscard]] const char* name(SearchStrategy s);

/// How to search for worst cases: the strategy plus its budgets. The
/// Exhaustive strategy runs the schedule-space Explorer (DFS with
/// mark-based backtracking and visited-state pruning) in one campaign
/// cell. Random is the legacy seeded sampler and runs no Explorer: each
/// seed is its own campaign cell, one Sim driven by a RandomScheduler, and
/// the cells reduce in seed order. (Naming studies instead run the fixed
/// adversary battery — sequential, round-robin, the Theorem 6 lockstep
/// adversary — plus one random schedule per seed; strategy and limits are
/// ignored.)
struct WorstCaseSearchOptions {
  SearchStrategy strategy = SearchStrategy::Random;
  /// Random: one run per seed, each `budget_per_run` picks long.
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint64_t budget_per_run = 200'000;
  /// Exhaustive: the DFS budgets (including limits.reduction, the
  /// partial-order-reduction policy). A Random search must leave the
  /// reduction Off: Campaign::run rejects it with std::invalid_argument.
  ExploreLimits limits;
  /// Crash injection, applied after the subject's setup: process p crashes
  /// at its crash_after[p]-th access attempt (Sim::crash_after). An empty
  /// vector injects nothing; entries past n-1 are ignored by the sim.
  /// Part of the measurement identity, so it feeds the campaign dedup key.
  std::vector<std::uint64_t> crash_after;
};

/// Declarative description of one study: a subject (an AlgorithmRegistry
/// name, or an ad-hoc factory with a display label) plus the measurements
/// to run on it. Built fluently:
///
///   StudySpec::of("peterson-2p")
///       .kind(StudyKind::Mutex)
///       .n(2)
///       .contention_free()
///       .worst_case(SearchStrategy::Exhaustive)
///       .depth(20);
///
/// The fluent methods return *this, so specs compose inline and can also be
/// grown incrementally. Fields are public for the engine and for tests;
/// prefer the fluent surface when building specs.
struct StudySpec {
  /// Registry key of the subject, or a display label when an ad-hoc
  /// factory is set. Resolution happens at Campaign::run time.
  std::string subject_name;
  StudyKind study_kind = StudyKind::Mutex;
  int procs = 2;
  /// Mutex worst-case search: entry/exit sessions per process.
  int mutex_sessions = 1;
  /// Mutex contention-free measurement: simulator access policy.
  AccessPolicy access = AccessPolicy::Unrestricted;
  /// Mutex contention-free measurement: how many processes get their own
  /// solo run (0 = all n). Tree algorithms have uniform per-process cost,
  /// so sampling loses nothing there.
  int cf_pid_sample = 0;
  bool want_cf = false;
  bool want_wc = false;
  WorstCaseSearchOptions search;
  /// Ad-hoc subjects: exactly the factory matching `study_kind` may be
  /// set; it overrides registry lookup (and is never deduplicated across
  /// campaign specs — only registry subjects are).
  MutexFactory adhoc_mutex;
  NamingFactory adhoc_naming;
  DetectorFactory adhoc_detector;
  /// Observability wiring (trace() / progress()). Not part of the
  /// measurement identity: excluded from the campaign dedup key, and the
  /// engine guarantees identical results with it on or off.
  std::string trace_path;
  bool want_progress = false;
  std::string progress_path;  ///< empty = human heartbeat to stderr
  int progress_interval_ms = 500;

  [[nodiscard]] static StudySpec of(std::string subject);

  StudySpec& kind(StudyKind k);
  StudySpec& n(int nprocs);
  StudySpec& sessions(int s);
  StudySpec& policy(AccessPolicy p);
  StudySpec& sample_pids(int max_pids);
  StudySpec& contention_free();
  StudySpec& worst_case();
  /// Selects the strategy and keeps the reduction policy, so a certified
  /// Exhaustive search runs the unreduced, wave-shared search
  /// (ReductionPolicy::Off) unless reduction() or a full options struct
  /// picks source-dpor.
  StudySpec& worst_case(SearchStrategy s);
  StudySpec& worst_case(const WorstCaseSearchOptions& options);
  /// The partial-order-reduction policy of the DFS strategies.
  StudySpec& reduction(ReductionPolicy policy);
  StudySpec& seeds(std::vector<std::uint64_t> s);
  /// Crash injection for the worst-case search (per-pid access thresholds;
  /// see WorstCaseSearchOptions::crash_after).
  StudySpec& crash(std::vector<std::uint64_t> after);
  StudySpec& budget(std::uint64_t per_run);
  /// Observability (src/obs/): record a Chrome trace-event / Perfetto
  /// trace of the campaign run to `path`. Purely observational — never
  /// part of the dedup key, never changes any study value; the campaign
  /// honors the first non-empty path among its specs (an already-running
  /// outer tracer wins).
  StudySpec& trace(std::string path);
  /// Observability (src/obs/): emit periodic progress heartbeats while
  /// the campaign runs — JSONL to `path`, or the human format to stderr
  /// when `path` is empty. Observational only, like trace().
  StudySpec& progress(std::string path = {}, int interval_ms = 500);
  StudySpec& depth(int max_depth);
  StudySpec& factory(MutexFactory f);
  StudySpec& factory(NamingFactory f);
  StudySpec& factory(DetectorFactory f);
};

/// The reduction counters of a worst-case search, as one table: X(field,
/// "json_key", stats_member, required). The StudyResult fields, the
/// canonical JSON emission order inside the "reduction" object (after
/// policy/requested), the parser (non-required keys are optional, so
/// payloads written before a counter existed keep parsing as zero), and
/// the ExploreStats copy in the study engine are all generated from this
/// list — adding a counter is one line here plus its ExploreStats source.
#define CFC_STUDY_REDUCTION_COUNTERS(X)                                   \
  X(races_detected, "races_detected", races_detected, true)               \
  X(backtrack_points, "backtrack_points", backtrack_points, true)         \
  X(sleep_blocked, "sleep_blocked", sleep_blocked, true)                  \
  X(cache_hits, "cache_hits", pruned_visited, false)                      \
  X(work_items, "work_items", work_items, false)                          \
  X(restore_marks, "restore_marks", restore_marks, false)

/// The uniform result of one study. Absent measurements are flagged off and
/// zero-valued. Semantics per kind:
///
///  * Mutex: cf is the paper's contention-free session (entry + exit, max
///    over processes), refined by cf_entry / cf_exit; wc_entry / wc_exit
///    are the clean-entry and exit window maxima found by the search and
///    wc is their sum (the paper's worst-case complexity).
///  * Naming: cf is the sequential-schedule max over processes; wc the max
///    over the adversary battery; entry/exit refinements are zero.
///  * Detector: cf is the solo-run max over processes; wc the whole-run
///    max found; entry/exit refinements are zero.
struct StudyResult {
  std::string subject;  ///< resolved algorithm name
  StudyKind kind = StudyKind::Mutex;
  int n = 0;
  int sessions = 1;

  bool has_cf = false;
  ComplexityReport cf;
  ComplexityReport cf_entry;
  ComplexityReport cf_exit;
  int measured_atomicity = 0;

  bool has_wc = false;
  SearchStrategy wc_strategy = SearchStrategy::Random;
  /// The partial-order-reduction policy the search ran under (DFS
  /// strategies; Random reports Off), serialized as both "policy" and
  /// "requested". Counters: races the source-DPOR race detector found over
  /// executed traces, backtrack points it inserted (source-set + cut-point
  /// placements) and enabled branches the sleep sets skipped (all three 0
  /// under Off, the certified default), and subtrees the visited caches
  /// pruned (under SourceDpor: the sleep-set-aware SleepCache hits of
  /// stateful DPOR).
  ReductionPolicy wc_reduction = ReductionPolicy::Off;
  std::uint64_t races_detected = 0;
  std::uint64_t backtrack_points = 0;
  std::uint64_t sleep_blocked = 0;
  std::uint64_t cache_hits = 0;
  /// The parallel DFS: work items the planner emitted and rewind
  /// marks the engines captured at branching nodes. Thread-count
  /// invariant, like every counter here (the deliberately thread-DEPENDENT
  /// counters — steals, sims_built — are excluded from study results, so
  /// the canonical JSON stays byte-identical at every thread count).
  std::uint64_t work_items = 0;
  std::uint64_t restore_marks = 0;
  ComplexityReport wc;
  ComplexityReport wc_entry;
  ComplexityReport wc_exit;
  std::uint64_t schedules_tried = 0;
  /// Exhaustive: DFS nodes entered. Random: scheduler picks summed over
  /// the seeds (start-only units of the schedule log are not picks).
  std::uint64_t states_visited = 0;
  /// Mutual-exclusion violations found (DFS strategies; violating
  /// schedules are excluded from the maxima). Nonzero means the algorithm
  /// is unsafe — the complexity certification is then over the safe
  /// schedules only.
  std::uint64_t violations = 0;
  /// Some run was cut off (budget or depth bound): the values may
  /// under-report anything beyond the explored space.
  bool truncated = false;
  /// Exhaustive only: the whole bounded schedule space was covered
  /// (no max_states cut) — the values are the exact maxima over it.
  bool certified = false;
  /// The parallel frontier split was clamped below the requested depth by
  /// the cell cap (ExploreStats::frontier_clamped). Advisory — coverage is
  /// unaffected — but surfaced so the coarser fan-out is machine-readable.
  bool frontier_clamped = false;

  /// Wall-clock measurement time attributed to this study: the summed
  /// durations of its cells (a shared, deduplicated measurement counts
  /// fully for every spec that uses it). Nondeterministic — excluded from
  /// the canonical JSON when StudyJsonOptions::include_timing is false.
  double wall_ms = 0.0;
  /// Phase breakdown of the campaign run this study rode in (the optional
  /// "timing" object of cfc.study.v1): planning (subject resolution,
  /// dedup, grid build), cell execution (== wall_ms, the per-spec summed
  /// cell durations), and the merge (reductions + result assembly).
  /// plan_ms/merge_ms are campaign-wide phases, attributed fully to every
  /// study of the run. Nondeterministic, gated like wall_ms.
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double merge_ms = 0.0;
};

/// Aggregate counters of one Campaign::run, for observability and tests.
struct CampaignStats {
  std::size_t specs = 0;
  std::size_t tasks_planned = 0;       ///< unique measurement tasks run
  std::size_t tasks_deduplicated = 0;  ///< spec requests served by an
                                       ///< identical earlier task
  std::size_t cells = 0;               ///< schedulable cells fanned out
  /// Wall-clock duration of each cell of the flat grid, in grid (round-
  /// robin interleave) order — cell_wall_ms.size() == cells. The
  /// per-cell timing truth behind the progress heartbeat and the
  /// checkpoint/resume planning in ROADMAP's campaign-service item.
  std::vector<double> cell_wall_ms;
  double plan_ms = 0.0;   ///< resolve/dedup/grid-build phase
  double merge_ms = 0.0;  ///< reduce + result-assembly phase
};

/// A batch of studies executed as one flat cell grid: every spec's
/// independent cells (per-pid solo runs, per-schedule adversary runs,
/// whole searches) are interleaved round-robin across specs and fanned
/// over ONE ExperimentRunner::parallel_for — no per-spec barriers — then
/// reduced per spec in a fixed order. Identical measurement requests from
/// different specs (same registry subject, kind, n, and measurement
/// parameters, seeds included) are deduplicated: the cells run once and
/// every requesting spec shares the reduced result. Results are returned
/// in spec insertion order and are bit-identical for every thread count.
class Campaign {
 public:
  Campaign() = default;

  Campaign& add(StudySpec spec);
  Campaign& add(std::vector<StudySpec> specs);

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<StudySpec>& specs() const { return specs_; }

  /// Runs every study. `runner == nullptr` uses the shared hardware-sized
  /// pool; `stats`, when non-null, receives the plan/dedup counters.
  [[nodiscard]] std::vector<StudyResult> run(
      ExperimentRunner* runner = nullptr, CampaignStats* stats = nullptr) const;

 private:
  std::vector<StudySpec> specs_;
};

/// Convenience: a one-spec campaign.
[[nodiscard]] StudyResult run_study(const StudySpec& spec,
                                    ExperimentRunner* runner = nullptr);

/// --- The canonical JSON serialization (schema "cfc.study.v1"). ---

struct StudyJsonOptions {
  /// Emit the nondeterministic timing fields (the "timing" phase object
  /// and wall_ms). Switch off to compare serialized results byte-for-byte
  /// across thread counts or hosts.
  bool include_timing = true;
};

[[nodiscard]] std::string to_json(const StudyResult& r,
                                  const StudyJsonOptions& opts = {});
[[nodiscard]] std::string to_json(const std::vector<StudyResult>& results,
                                  const StudyJsonOptions& opts = {});

/// Parses a single serialized StudyResult (the exact schema to_json
/// emits). Throws std::invalid_argument on malformed input. wall_ms parses
/// to 0.0 when absent.
[[nodiscard]] StudyResult study_from_json(const std::string& json);

}  // namespace cfc

#endif  // CFC_ANALYSIS_STUDY_H
