#ifndef CFC_ANALYSIS_EXPLORER_H
#define CFC_ANALYSIS_EXPLORER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "analysis/experiment_runner.h"
#include "core/streaming_measures.h"
#include "sched/sim.h"

namespace cfc {

/// How the DFS reduces the schedule tree (src/por/). Both
/// policies certify the same objective maxima — the reduction only skips
/// schedules whose values are provably duplicated by an explored one —
/// which the POR differential suite asserts for every registry algorithm.
enum class ReductionPolicy : std::uint8_t {
  /// No reduction: every interleaving within the depth bound (the
  /// unreduced reference search). The same planner/work-item walk as
  /// SourceDpor, minus the sleep transfer, the race detector and the
  /// cut-point insertions.
  Off,
  /// Source-DPOR (por/source_dpor.h): full sleep sets under the
  /// measurement-aware dependence relation (por/dependence.h — register
  /// conflicts + section-change adjacency, which makes the cf-session /
  /// clean-entry / exit window objectives trace-invariant), with
  /// race-driven source-set backtracking instead of full sibling
  /// branching. The default for certified Exhaustive searches built
  /// through StudySpec. Composes with the sleep-set-aware visited cache
  /// (stateful DPOR) when ExploreLimits::prune_visited is on.
  SourceDpor,
};

[[nodiscard]] const char* name(ReductionPolicy p);

/// Parses "off" | "source-dpor" (the bench --reduction flag's and the
/// study JSON's vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<ReductionPolicy> reduction_policy_from(
    std::string_view s);

/// Budgets for a DFS exploration.
struct ExploreLimits {
  /// Scheduler picks per path (depth of the interleaving tree); >= 0.
  int max_depth = 48;
  /// DFS node budget *per engine run* — per planner walk and per work
  /// item; 0 = unlimited. Exceeding it cuts the search (result no longer
  /// certified; ExploreStats::truncated).
  std::uint64_t max_states = 0;
  /// Visited-state pruning (on by default): one cache for the planner's
  /// whole walk, and one per work item. Keys combine core/state_fingerprint
  /// with the objective digest. Under SourceDpor the cache is the
  /// SleepCache, where a stored visit covers a revisit that sleeps on a
  /// superset of its branches (stateful DPOR). Unreduced, every sleep mask
  /// is 0, a visit is its key alone, and the items also share keys across
  /// waves (see Explorer).
  bool prune_visited = true;
  /// The partial-order reduction applied to the search (src/por/; see
  /// ReductionPolicy). Off by default at this layer; the Study layer
  /// defaults its certified Exhaustive searches to SourceDpor. Under
  /// SourceDpor prune_visited selects the *sleep-set-aware* cache
  /// (stateful DPOR): a revisit is skipped only when a stored visit's sleep
  /// set is a subset of the current one, and every skip still runs the
  /// bounded-horizon cut-point insertions (SourceDpor::note_cut) at the
  /// pruned node, so the path-dependent backtrack insertions the skipped
  /// subtree owes the current path are conservatively re-placed.
  ReductionPolicy reduction = ReductionPolicy::Off;
};

/// Every u64 counter of ExploreStats, one row each — the single
/// enumeration behind the table-driven ExploreStats::merge. A counter
/// added here merges without further edits; whether it joins the study
/// JSON stays a separate, deliberate decision
/// (CFC_STUDY_REDUCTION_COUNTERS in study.h).
#define CFC_EXPLORE_STATS_COUNTERS(X) \
  X(states_visited)                   \
  X(runs_completed)                   \
  X(runs_truncated)                   \
  X(pruned_visited)                   \
  X(violations)                       \
  X(races_detected)                   \
  X(backtrack_points)                 \
  X(sleep_blocked)                    \
  X(restores)                         \
  X(value_replayed_steps)             \
  X(restore_marks)                    \
  X(work_items)                       \
  X(steals)                           \
  X(sims_built)                       \
  X(visited_bytes)                    \
  X(visited_live_bytes)

struct ExploreStats {
  std::uint64_t states_visited = 0;  ///< DFS nodes entered (planner + items)
  std::uint64_t runs_completed = 0;  ///< leaves with no runnable process
  std::uint64_t runs_truncated = 0;  ///< leaves cut by depth or state budget
  std::uint64_t pruned_visited = 0;  ///< subtrees skipped by the state cache
  std::uint64_t violations = 0;      ///< MutualExclusionViolations found
  /// --- Reduction counters (zero when reduction == Off). ---
  std::uint64_t races_detected = 0;   ///< SourceDpor: races found in traces
  std::uint64_t backtrack_points = 0; ///< SourceDpor: source-set insertions
  std::uint64_t sleep_blocked = 0;    ///< enabled branches skipped asleep
  std::uint64_t restores = 0;        ///< sibling backtracks performed
  /// Units re-fed from the recorded value log by restores
  /// (Sim::rewind_to_mark): coroutine resumption with recorded values, no
  /// register traffic, no measurement events — the restore cost model.
  std::uint64_t value_replayed_steps = 0;
  std::uint64_t restore_marks = 0;   ///< RewindMarks captured at branching nodes
  /// --- Parallel DFS counters. ---
  /// Work items the planner emitted (horizon subtrees fanned over the
  /// worker pool). Thread-count invariant, like every counter above.
  std::uint64_t work_items = 0;
  /// Work items a worker claimed from another worker's queue. The ONE
  /// deliberately thread-dependent counter (with sims_built, which counts
  /// the planner's Sim plus one per pool worker): it reports scheduler
  /// behaviour, not search shape, and is excluded from the study JSON and
  /// from the bit-identity gates.
  std::uint64_t steals = 0;
  /// Sim constructions + setup executions, counted where each Sim is
  /// built: one per DFS engine (restores rewind in place).
  std::uint64_t sims_built = 0;
  /// Bytes reserved by the planner's cache and, unreduced, by the table
  /// the waves share.
  std::uint64_t visited_bytes = 0;
  /// Bytes of *live* entries of those two (occupied slots + live spill
  /// nodes); visited_bytes reports reserved capacity, including the spill
  /// freelist — the bench memory column shows both.
  std::uint64_t visited_live_bytes = 0;
  /// True iff some path was cut off before terminating: the objective max
  /// is certified only over the explored bounded space. (For waiting
  /// algorithms, whose schedule space is infinite, this is unavoidable.)
  bool truncated = false;
  /// True iff an engine run hit max_states: the *bounded* space itself was
  /// not fully covered, so the result is not certified even within the
  /// bounds.
  bool state_budget_hit = false;
  /// True iff the planner horizon was clamped below its fixed depth of 4
  /// (or max_depth, if smaller) by the 4096-prefix cap (n^f would exceed
  /// it).
  /// Advisory — the search is still complete, just with a coarser parallel
  /// fan-out — but machine-readable here and in the study JSON instead of
  /// only a one-shot stderr warning.
  bool frontier_clamped = false;

  void merge(const ExploreStats& o);
};

/// The measurement fields an exploration maximizes.
struct ExploreObjective {
  /// Evaluated at every leaf (completed or truncated run); the explorer
  /// keeps the index-wise max_with over all leaves. The vector's arity must
  /// be fixed across calls, and eval must be *monotone along a run*
  /// (extending a run never decreases any field — true for the streaming
  /// window maxima and for whole-run totals); visited-state pruning relies
  /// on it. Null = pure safety exploration (no objective).
  std::function<std::vector<ComplexityReport>(const Sim&,
                                              const MeasureAccumulator&)>
      eval;
  /// Digest of the accumulator state the objective's *future* values can
  /// depend on; folded into the visited-state key so pruning never merges
  /// states with measurement-relevant different pasts. Defaults to
  /// MeasureAccumulator::digest() (always sound, weakest pruning); use
  /// window_digest() for window-maxima objectives.
  std::function<std::uint64_t(const MeasureAccumulator&)> digest;
};

/// A depth-bounded DFS over scheduler choices with configurable budgets,
/// mark-based backtracking, and visited-state pruning — the schedule-space
/// exploration engine behind the certified worst-case searches, and its
/// only search. (Seeded random sampling, a lower bound only, is not an
/// Explorer search: the study layer runs it, one Sim per seed.)
///
/// Mechanics: the explorer keeps ONE live simulation per engine (the
/// planner and each pool worker) and descends by stepping it, ordering
/// branches continue-last-pid-first so the restore-free first descent
/// walks the preemption-free spine. One recursive walk serves the planner
/// and the work items under both reduction policies; they differ only in
/// the branch set (every runnable process / every runnable, awake process
/// / one seed grown by race insertions) and in the visited cache
/// (SleepCache under source-DPOR, the mask-free VisitedKeys unreduced).
/// Coroutine frames cannot be copied, so every
/// branching node captures a Sim::RewindMark (undo-log length + per-process
/// digests, O(processes); no register values) and its MeasureAccumulator
/// snapshot (plain data) into per-depth pools. A sibling restore costs what
/// changed below the node: Sim::rewind_to_mark pops the register undo log
/// back to the mark and value-replays only the processes that acted below
/// the node from their recorded value tapes, and
/// MeasureAccumulator::rewind_to copies back only the processes whose
/// measurement state changed below it. A restore constructs no Sim; it
/// frees and re-allocates only the coroutine frames of the processes it
/// value-replays. That is the only restore — a work item
/// repositions at the run-start mark the same way — and tests check it
/// against a from-scratch oracle that rebuilds a Sim and replays the
/// schedule log step by step (tests/rewind_test.cpp).
///
/// Parallelism: a sequential planner walks the top min(4, max_depth)
/// levels (fixed, never derived from the thread count) and emits one
/// self-contained work item per horizon node; the items run on a
/// work-stealing pool over an ExperimentRunner, and per-item results
/// reduce in item order, so reports are bit-identical for every thread
/// count (steals and sims_built excepted).
///
/// Visited keys across items: unreduced with pruning, the items run in
/// waves of at most 8, item i in wave i mod ceil(items / 8) (a constant
/// size, never derived from the thread count). An item of wave k prunes
/// against its own cache and a table frozen for the wave, which holds the
/// keys of every item of waves < k that the state budget did not stop;
/// the wave's keys merge in item index order at the barrier. The table
/// has a fixed byte budget, evicted by whole waves. Source-DPOR runs all
/// its items as one wave with per-item caches only. Why sharing is sound
/// unreduced and not yet under source-DPOR: DfsEngine::plan() in
/// explorer.cpp.
class Explorer {
 public:
  /// Rebuilds the simulation under exploration and returns an owner handle
  /// for objects that must outlive it (the algorithm instance holding the
  /// register layout). Must be deterministic — it runs once per engine
  /// (the planner and each pool worker).
  using SetupFn = std::function<std::shared_ptr<void>(Sim&)>;

  struct Config {
    int nprocs = 0;             ///< processes the setup spawns
    SetupFn setup;              ///< registers + processes + sim config
    ExploreLimits limits;       ///< DFS budgets
    ExploreObjective objective;
  };

  struct Result {
    ExploreStats stats;
    /// Index-wise max_with over all evaluated leaves of objective.eval's
    /// vector; empty when no leaf was evaluated or eval is null. Reports
    /// carry truncated=true when any contributing run was cut off.
    std::vector<ComplexityReport> best;

    /// Folds `o` in: stats.merge, then the index-wise max_with of `best`
    /// (the one reduction behind work items and the study layer's seeded
    /// cells).
    void merge(const Result& o);
  };

  /// Throws std::invalid_argument on an invalid configuration. The search
  /// keeps per-process bitmasks, so it takes at most 32 processes.
  explicit Explorer(Config cfg);

  /// Runs the search: a sequential planner fans the top f levels into
  /// self-contained work items, executed by a work-stealing worker pool
  /// (wave by wave, unreduced with pruning); results merge in item index
  /// order, so everything except
  /// steals/sims_built is bit-identical at every thread count. sims_built
  /// is exactly 1 + min(work items, threads). `runner == nullptr` uses the
  /// shared pool.
  [[nodiscard]] Result run(ExperimentRunner* runner = nullptr) const;

 private:
  Config cfg_;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_EXPLORER_H
