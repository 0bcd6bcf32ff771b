#include "analysis/explorer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/sleep_cache.h"
#include "core/state_fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "por/dependence.h"
#include "por/source_dpor.h"

namespace cfc {

const char* name(ReductionPolicy p) {
  switch (p) {
    case ReductionPolicy::Off:
      return "off";
    case ReductionPolicy::SourceDpor:
      return "source-dpor";
  }
  return "unknown";
}

std::optional<ReductionPolicy> reduction_policy_from(std::string_view s) {
  if (s == "off") {
    return ReductionPolicy::Off;
  }
  if (s == "source-dpor") {
    return ReductionPolicy::SourceDpor;
  }
  return std::nullopt;
}

namespace {

/// Every u64 counter of ExploreStats, generated from
/// CFC_EXPLORE_STATS_COUNTERS in declaration order.
#define CFC_STATS_MEMBER(field) &ExploreStats::field,
constexpr std::uint64_t ExploreStats::*kStatsCounters[] = {
    CFC_EXPLORE_STATS_COUNTERS(CFC_STATS_MEMBER)};
#undef CFC_STATS_MEMBER

/// Index-wise max_with reduction of objective report vectors (the single
/// definition behind leaf accumulation and Result::merge).
void merge_best(std::vector<ComplexityReport>& best,
                const std::vector<ComplexityReport>& leaf) {
  if (leaf.empty()) {
    return;
  }
  if (best.empty()) {
    best = leaf;
    return;
  }
  const std::size_t k = std::min(best.size(), leaf.size());
  for (std::size_t i = 0; i < k; ++i) {
    best[i] = best[i].max_with(leaf[i]);
  }
}

}  // namespace

void ExploreStats::merge(const ExploreStats& o) {
  for (std::uint64_t ExploreStats::*counter : kStatsCounters) {
    this->*counter += o.*counter;
  }
  truncated = truncated || o.truncated;
  state_budget_hit = state_budget_hit || o.state_budget_hit;
  frontier_clamped = frontier_clamped || o.frontier_clamped;
}

void Explorer::Result::merge(const Result& o) {
  stats.merge(o.stats);
  merge_best(best, o.best);
}

namespace {

/// One unit of the parallel DFS: a realizable, violation-free schedule
/// prefix of planner picks (the `len` picks at offset `begin` of the
/// plan's shared prefix vector) and the sleep mask at its horizon node.
/// Self-contained — any worker can claim it, reposition its private Sim,
/// and run the subtree; race detection below the horizon is per-path
/// (vector clocks live in the worker's own SourceDpor trace), so items
/// share no mutable state.
struct WorkItem {
  std::uint32_t begin = 0;
  std::uint32_t len = 0;
  std::uint32_t sleep = 0;
};

/// One DFS engine: owns the live simulation (built once, with the engine),
/// the live accumulator, the visited cache, the recycled scratch pools
/// (per-depth branch masks, accumulator snapshots and rewind marks), and —
/// under ReductionPolicy::SourceDpor — the per-path race detector.
/// Descends by stepping the live sim; backtracks via per-depth RewindMarks
/// (Sim::rewind_to_mark).
///
/// Two entry points, one recursive walk: plan() is the sequential planner,
/// run_item() executes one planner work item. Each selects a Role;
/// walk<Role, Reduce>() owns the per-node logic both share (node
/// classification, the visited check, the continue-last-pid-first branch
/// order, the capture/restore around siblings, violation handling). The
/// role selects the branch set below the horizon; Reduce (source-DPOR)
/// adds the sleep transfer, the race detector and the cut-point
/// insertions, and is a compile-time parameter so the unreduced search
/// pays nothing for them. A worker reuses one DfsEngine — and its Sim —
/// across every item it claims.
class DfsEngine {
 public:
  explicit DfsEngine(const Explorer::Config& cfg)
      : cfg_(cfg),
        acc_(cfg.nprocs),
        backtrack_(static_cast<std::size_t>(cfg.limits.max_depth) + 1) {
    if (cfg.limits.reduction == ReductionPolicy::SourceDpor) {
      dpor_.emplace(cfg.nprocs);
    }
    build_sim();
  }

  /// Sim constructions (each runs the setup) this engine performed. Every
  /// later repositioning rewinds in place, so this stays 1.
  [[nodiscard]] std::uint64_t sims_built() const { return sims_built_; }

  /// Phase 1: walks the top `horizon` levels of the tree with FULL
  /// branching (every runnable process; under source-DPOR every runnable,
  /// awake one, with the measurement-aware sleep transfer), emitting one
  /// WorkItem per horizon node reached (prefix picks appended to
  /// `prefixes`).
  /// Runs on the calling thread only, so every counter it touches —
  /// including the planner levels' states/leaves/violations/sleep_blocked
  /// — is thread-count invariant by construction.
  ///
  /// Soundness of stopping worker race insertions at the horizon
  /// (SourceDpor::kForeignNode masks over prefix depths): full branching
  /// modulo sleep is a maximal persistent set at every planner node, and
  /// source sets only ever need a subset of a persistent set — any
  /// reordering of the prefix a subtree race could demand is already a
  /// planner branch, or asleep and therefore covered by a same-length
  /// explored reordering (the classic sleep-set argument).
  ///
  /// Soundness of sharing visited keys across the unreduced search's work
  /// items (Explorer::run's waves; ReductionPolicy::Off only). An equal key
  /// means an equal state fingerprint and an equal objective digest, so
  /// equal per-process histories (an equal remaining depth budget, hence an
  /// equal remaining subtree) and an accumulator whose future objective
  /// values are equal. Unreduced, every sleep mask is 0 and no race ever
  /// inserts a branch, so a node's subtree is all of its schedules within
  /// the depth bound and owes nothing to the path that reached it. An item
  /// that ran to completion explored the whole subtree of every key it
  /// stored (or found it covered, by its own cache or by an earlier wave's
  /// item, by induction on the wave order), and its leaves merge into the
  /// result like every other item's. So a later item that meets one of
  /// those keys skips a subtree whose every value is already merged. An
  /// item cut by max_states left subtrees unfinished and publishes nothing.
  /// Source-DPOR is left out: a subtree there depends on its path (the
  /// sleep mask and the race insertions it owes the path, foreign-depth
  /// ones included), and no publication rule for that is proved yet.
  void plan(int horizon, std::vector<Pid>& prefixes,
            std::vector<WorkItem>& items, Explorer::Result& out) {
    out_ = &out;
    begin_metrics();
    horizon_ = horizon;
    prefixes_ = &prefixes;
    items_ = &items;
    walk_from<Role::Planner>(0, /*last=*/-1, /*sleep=*/0);
    // The planner's cache lives for the whole walk (it is what makes
    // horizon-level re-convergence prune whole work items), so its
    // footprint is deterministic — account it here. Worker caches are
    // cleared per item and deliberately left out of the byte counters:
    // their reserved capacity depends on which items a worker happened to
    // claim, and every stat except steals/sims_built must stay
    // thread-count invariant.
    out.stats.visited_bytes += scache_.bytes() + keys_.bytes();
    out.stats.visited_live_bytes += cache_live_bytes();
    flush_metrics();
  }

  /// Phase 2: executes one work item. The worker restores its Sim to the
  /// run-start mark (Sim::rewind_to_mark, the same restore every sibling
  /// backtrack uses) and re-steps the prefix live (the planner proved it
  /// realizable and violation-free). Under source-DPOR, prefix units join
  /// the race detector's trace with foreign-node masks. Repositioning is
  /// part of claiming the item, not a sibling backtrack, so it counts into
  /// no restore counter. `shared` (unreduced waves only, else null) holds
  /// the keys of the items of earlier waves; it is read, never written.
  void run_item(const WorkItem& item, const std::vector<Pid>& prefixes,
                const VisitedKeys* shared, Explorer::Result& out) {
    out_ = &out;
    begin_metrics();
    sim_->rewind_to_mark(base_mark_);
    acc_ = MeasureAccumulator(cfg_.nprocs);  // sink address is stable
    // A fresh cache per item (capacity kept): cache hits must depend only
    // on the item's own subtree and the wave-frozen shared table, never on
    // which items this worker ran before — that is what keeps every
    // counter derived from the pruning identical at every thread count.
    scache_.clear();
    keys_.clear();
    shared_ = shared;
    if (dpor_) {
      dpor_->clear();
      std::fill(backtrack_.begin(), backtrack_.end(),
                SourceDpor::kForeignNode);
    }
    nodes_ = 0;
    stop_ = false;
    int depth = 0;
    Pid last = -1;
    for (std::uint32_t i = 0; i < item.len; ++i) {
      const Pid p = prefixes[item.begin + i];
      if (!sim_->runnable(p)) {
        throw std::logic_error(
            "Explorer: work-item prefix diverged from the planner's run");
      }
      sim_->step(p);
      if (dpor_) {
        dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      }
      last = p;
      ++depth;
    }
    if (shared_ != nullptr) {
      root_key_ = state_key();
    }
    walk_from<Role::Item>(depth, last, item.sleep);
    if (dpor_) {
      // Per-item flush of the race detector's counters (clear() resets
      // them): the deltas land in the item's own slot and merge in item
      // index order, keeping the totals thread-count invariant.
      out.stats.races_detected += dpor_->stats().races_detected;
      out.stats.backtrack_points += dpor_->stats().backtrack_points;
    }
    flush_metrics();
  }

  /// Appends the keys the last run_item stored to `out`, except its root:
  /// the planner already merged equal horizon states, and no other item
  /// reaches the horizon depth below its own root.
  void publish(std::vector<std::uint64_t>& out) const {
    out.reserve(out.size() + keys_.size());
    keys_.append_keys(out, root_key_);
  }

  /// Frees the worker's visited keys when its task ends a wave: the next
  /// item starts from an empty cache anyway, and an idle engine then holds
  /// no table while the wave barrier grows the shared one.
  void release_keys() { keys_.release(); }

 private:
  /// The search a walk serves, selected by the entry point.
  enum class Role : std::uint8_t {
    /// plan(): full branching down to the horizon, where it emits work
    /// items.
    Planner,
    /// run_item(): the subtree below the horizon. Unreduced, it branches
    /// like the planner. Under source-DPOR it starts from one seed branch;
    /// while the node's loop is suspended in recursion, the race detector
    /// (por/source_dpor.h) inserts, per race against the current path, a
    /// source-set process at the ancestor node that ran the raced-with
    /// unit.
    Item,
  };

  /// Dispatches the walk on the reduction policy, once per engine run.
  template <Role R>
  void walk_from(int depth, Pid last, std::uint32_t sleep) {
    if (dpor_) {
      walk<R, true>(depth, last, sleep);
    } else {
      walk<R, false>(depth, last, sleep);
    }
  }

  [[nodiscard]] static std::uint32_t bit(Pid p) {
    return 1u << static_cast<unsigned>(p);
  }

  /// The runnable processes as a mask (n <= 32).
  [[nodiscard]] std::uint32_t enabled_mask() const {
    std::uint32_t enabled = 0;
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      if (sim_->runnable(p)) {
        enabled |= bit(p);
      }
    }
    return enabled;
  }

  /// The next branch out of a nonempty mask, continue-last-pid-first: the
  /// first branch descends the live sim with no restore at all, so leading
  /// with the running process makes that free descent the preemption-free
  /// spine. Then ascending pid.
  [[nodiscard]] static Pid continue_last(std::uint32_t mask, Pid last) {
    return (last != -1 && ((mask >> last) & 1u) != 0)
               ? last
               : static_cast<Pid>(std::countr_zero(mask));
  }

  void build_sim() {
    sim_ = std::make_unique<Sim>();
    owner_ = cfg_.setup(*sim_);
    sim_->set_trace_recording(false);
    sim_->mark_rewind_base();
    sim_->capture_mark(base_mark_);
    ++sims_built_;
    sim_->add_sink(acc_);
  }

  /// Captures the node checkpoint the siblings restore to: the accumulator
  /// snapshot and the RewindMark, both held in per-depth pools, so steady
  /// state this allocates nothing.
  void capture_node(int depth) {
    ensure_pools(depth);
    const auto d = static_cast<std::size_t>(depth);
    acc_pool_[d] = acc_;
    sim_->capture_mark(mark_pool_[d]);
    ++out_->stats.restore_marks;
  }

  /// Repositions the engine at the node checkpointed by capture_node at
  /// `depth`: Sim::rewind_to_mark value-replays only the processes that
  /// acted below the node (counted in value_replayed_steps) and undoes the
  /// register writes made below it, and MeasureAccumulator::rewind_to
  /// copies back only the per-process measurement state that changed below
  /// it (the sink stays attached). The walk restores only to checkpoints
  /// of the current path, which is the contract of both rewinds.
  void restore(int depth) {
    // Rewinds are far too frequent to record individually; sample 1/256
    // so traces show representative restore costs without drowning.
    ++rewind_tick_;
    const obs::TraceSpan rewind_span(
        (rewind_tick_ & 0xffu) == 0u ? "explorer.rewind" : nullptr);
    ++out_->stats.restores;
    const auto d = static_cast<std::size_t>(depth);
    out_->stats.value_replayed_steps += sim_->rewind_to_mark(mark_pool_[d]);
    acc_.rewind_to(acc_pool_[d]);
  }

  /// Visited-cache key: state fingerprint x objective digest. The
  /// sleep-set-aware cache keeps the sleep mask as its value dimension
  /// (SleepCache subsumption), not in the key.
  [[nodiscard]] std::uint64_t state_key() const {
    std::uint64_t h = state_fingerprint(*sim_);
    if (cfg_.objective.eval) {
      h = fingerprint_combine(h, cfg_.objective.digest
                                     ? cfg_.objective.digest(acc_)
                                     : acc_.digest());
    }
    return h;
  }

  void eval_leaf(bool truncated) {
    if (!cfg_.objective.eval) {
      return;
    }
    if (truncated) {
      acc_.mark_truncated();  // cleared by the next backtrack restore
    }
    merge_best(out_->best, cfg_.objective.eval(*sim_, acc_));
  }

  void leaf_completed() {
    ++out_->stats.runs_completed;
    eval_leaf(false);
  }

  void leaf_truncated() {
    ++out_->stats.runs_truncated;
    out_->stats.truncated = true;
    eval_leaf(true);
  }

  /// Grows the per-depth scratch pools to cover `depth`.
  void ensure_pools(int depth) {
    const auto need = static_cast<std::size_t>(depth) + 1;
    while (acc_pool_.size() < need) {
      acc_pool_.emplace_back(cfg_.nprocs);
    }
    if (mark_pool_.size() < need) {
      mark_pool_.resize(need);
    }
  }

  /// Captures every process's NextStep into the flat per-depth pend pool
  /// (hot-path round 4): slot [depth*nprocs, (depth+1)*nprocs) replaces a
  /// kMaxPorProcs array in every recursion frame. Descendants only write
  /// deeper slots, so a frame's capture survives its recursive calls;
  /// frames re-derive the pointer via pend_at() after recursing, so pool
  /// growth never dangles a span.
  void capture_pendings(int depth) {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    const std::size_t base = static_cast<std::size_t>(depth) * np;
    if (pend_pool_.size() < base + np) {
      pend_pool_.resize(base + np);
    }
    NextStep* out = pend_pool_.data() + base;
    for (Pid p = 0; p < cfg_.nprocs; ++p) {
      out[static_cast<std::size_t>(p)] = next_step_of(*sim_, p);
    }
  }

  [[nodiscard]] std::span<const NextStep> pend_at(int depth) const {
    const auto np = static_cast<std::size_t>(cfg_.nprocs);
    return {pend_pool_.data() + static_cast<std::size_t>(depth) * np, np};
  }

  /// SourceDpor: placement-bucket and droppable-unit insertions for a
  /// depth-horizon cut (SourceDpor::note_cut). Uses the cut node's own
  /// pool slot — nothing else captured at this depth (the node returns
  /// without branching).
  void cut_point_insertions(int depth, std::uint32_t sleep) {
    capture_pendings(depth);
    dpor_->note_cut(enabled_mask() & ~sleep, pend_at(depth), backtrack_);
  }

  /// Node-entry outcome of classify_node: the leaf accounting shared by
  /// every role, with the depth-horizon cut distinguished so the item role
  /// can attach its cut-point insertions to it.
  enum class NodeEntry : std::uint8_t {
    Interior,  ///< explore branches
    Leaf,      ///< completed run, or cut by the state budget
    DepthCut,  ///< truncated by the depth horizon
  };

  /// Leaf and budget checks of every node entry (the single definition of
  /// the nodes_/states_visited/leaf accounting the reduced-vs-unreduced
  /// stat comparisons rely on). The nodes_ budget
  /// (ExploreLimits::max_states) is per engine run: per planner walk, per
  /// work item.
  [[nodiscard]] NodeEntry classify_node(int depth) {
    ++nodes_;
    ++out_->stats.states_visited;
    if ((nodes_ & 0x1fffu) == 0u) {
      flush_metrics();  // periodic export; one relaxed load when disabled
    }
    if (!sim_->any_runnable()) {
      leaf_completed();
      return NodeEntry::Leaf;
    }
    if (depth >= cfg_.limits.max_depth) {
      leaf_truncated();
      return NodeEntry::DepthCut;
    }
    if (cfg_.limits.max_states != 0 && nodes_ >= cfg_.limits.max_states) {
      stop_ = true;
      out_->stats.state_budget_hit = true;
      leaf_truncated();  // the cut path counts like any truncated leaf
      return NodeEntry::Leaf;
    }
    return NodeEntry::Interior;
  }

  /// The visited check: true when a stored visit covers this node, and the
  /// node's subtree is skipped. Equal fingerprint implies equal per-process
  /// histories (so equal remaining depth and equal accumulator). Under
  /// source-DPOR the SleepCache stores the sleep mask as the value, and a
  /// stored mask that is a subset of the current one means the stored
  /// subtree covered every behavior this visit could (it slept on fewer
  /// branches, so it explored more), so its leaves already contributed the
  /// same objective values. Unreduced, every sleep mask is 0 and a visit is
  /// its key alone (VisitedKeys); the items first look the key up in the
  /// shared table of earlier waves (see plan() for why that is sound).
  ///
  /// The one thing a skipped subtree still owes the *current* path is its
  /// race-driven backtrack insertions (they are path-dependent): the
  /// source-DPOR item role re-places them conservatively with the
  /// cut-point insertions, exactly as at a DepthCut. The planner owes
  /// none: every planner node full-branches over a maximal persistent
  /// set, so any prefix reordering a skipped subtree's race could demand
  /// is already a planner branch, and the planner's own backtrack masks
  /// are never consulted.
  template <Role R, bool Reduce>
  [[nodiscard]] bool seen(int depth, std::uint32_t sleep) {
    if (!cfg_.limits.prune_visited) {
      return false;
    }
    const std::uint64_t key = state_key();
    bool hit = false;
    if constexpr (Reduce) {
      hit = scache_.check_and_insert(key, sleep);
    } else {
      hit = (shared_ != nullptr && shared_->contains(key)) ||
            !keys_.insert(key);
    }
    if (!hit) {
      return false;
    }
    ++out_->stats.pruned_visited;
    if constexpr (R == Role::Item && Reduce) {
      cut_point_insertions(depth, sleep);
    }
    return true;
  }

  /// The DFS behind both entry points. A node is its depth, the last pick
  /// and its sleep mask (source-DPOR: explored or covered branches whose
  /// reorderings need no exploring here; always 0 unreduced).
  ///
  /// Per node: the planner emits a work item at the horizon; otherwise
  /// classify_node, the visited check, then the branch set (see Role) out
  /// of the runnable processes (classify_node saw at least one). Branches
  /// run continue-last-pid-first; each explored (or excluded-violating)
  /// branch joins the node's local sleep mask, which doubles as its
  /// explored mask.
  /// Under source-DPOR a child keeps asleep every sleeper whose captured
  /// next step is independent of the unit just taken (the
  /// measurement-aware sleep transfer); unreduced, a child starts awake.
  template <Role R, bool Reduce>
  void walk(int depth, Pid last, std::uint32_t sleep) {
    if constexpr (R == Role::Planner) {
      if (depth == horizon_) {
        // Stateful pruning across work items: an equal horizon state
        // already emitted under a covering cache value covers this one.
        // The horizon node itself belongs to the work item (the worker's
        // walk classifies it), keeping node accounting disjoint.
        if (!seen<R, Reduce>(depth, sleep)) {
          emit_item(sleep);
        }
        return;
      }
    }
    switch (classify_node(depth)) {
      case NodeEntry::Leaf:
        // Completed, or cut by the state budget — a budget cut leaves the
        // result uncertified anyway, so there is nothing for cut-point
        // insertions to protect.
        return;
      case NodeEntry::DepthCut:
        // Depth-bound soundness (SourceDpor::note_cut): the units
        // beyond the horizon never execute, so their races never seed the
        // reorderings that run the cut-off processes earlier. Insert each
        // enabled process's captured pending unit at its placement
        // buckets along the path instead. Sleeping processes are covered
        // by reorderings of equal length, so they are skipped. (The
        // planner never gets here: its horizon is at most max_depth.)
        if constexpr (R == Role::Item && Reduce) {
          cut_point_insertions(depth, sleep);
        }
        return;
      case NodeEntry::Interior:
        break;
    }
    if (seen<R, Reduce>(depth, sleep)) {
      return;
    }

    const auto d = static_cast<std::size_t>(depth);
    const std::uint32_t enabled = enabled_mask();
    if constexpr (Reduce) {
      out_->stats.sleep_blocked +=
          static_cast<std::uint64_t>(std::popcount(enabled & sleep));
    }
    const std::uint32_t avail = enabled & ~sleep;
    if (avail == 0) {
      // Every enabled branch is asleep: each is a reordering of an
      // explored schedule — not a leaf of the reduced tree.
      return;
    }
    bool branching = true;  // more than one branch may run: capture
    if constexpr (R == Role::Item && Reduce) {
      // The branch count is not known up front (insertions arrive later),
      // so the node always captures.
      backtrack_[d] = bit(continue_last(avail, last));
    } else {
      backtrack_[d] = avail;
      branching = std::popcount(avail) > 1;
    }
    // Node checkpoint for sibling restores (skipped for a single branch:
    // the parent restores for us).
    if (branching) {
      capture_node(depth);
    }
    if constexpr (Reduce) {
      capture_pendings(depth);
    }

    for (std::size_t b = 0; !stop_; ++b) {
      const std::uint32_t todo = backtrack_[d] & enabled & ~sleep;
      if (todo == 0) {
        break;
      }
      const Pid p = continue_last(todo, last);
      if (b > 0) {
        restore(depth);
      }
      bool violated = false;
      try {
        sim_->step(p);
      } catch (const MutualExclusionViolation&) {
        ++out_->stats.violations;
        violated = true;  // sim is poisoned; the next iteration restores it
      }
      std::size_t trace_len = 0;
      if constexpr (R == Role::Item && Reduce) {
        // Race-detect even the violating unit (its partial summary covers
        // everything that took effect): the reorderings its races demand
        // may be perfectly safe schedules.
        trace_len = dpor_->size();
        dpor_->push_step(depth, sim_->last_step_summary(), backtrack_);
      }
      if (!violated) {
        std::uint32_t child_sleep = 0;
        if constexpr (Reduce) {
          child_sleep = transfer_sleep(sleep & ~bit(p),
                                       sim_->last_step_summary(),
                                       pend_at(depth));
        }
        if constexpr (R == Role::Planner) {
          path_.push_back(p);
        }
        walk<R, Reduce>(depth + 1, p, child_sleep);
        if constexpr (R == Role::Planner) {
          path_.pop_back();
        }
      }
      if constexpr (R == Role::Item && Reduce) {
        dpor_->pop_to(trace_len);
      }
      sleep |= bit(p);
    }
  }

  /// Planner horizon: one work item for the subtree below the current
  /// path (prefix picks appended to the plan's prefix vector).
  void emit_item(std::uint32_t sleep) {
    const auto begin = static_cast<std::uint32_t>(prefixes_->size());
    prefixes_->insert(prefixes_->end(), path_.begin(), path_.end());
    items_->push_back(
        WorkItem{begin, static_cast<std::uint32_t>(path_.size()), sleep});
    ++out_->stats.work_items;
  }

  /// Starts a fresh metric epoch for the engine run about to begin (the
  /// flush cursor tracks out_->stats, which each run/plan/run_item starts
  /// from zero).
  void begin_metrics() { flushed_ = ExploreStats{}; }

  /// Exports the counter growth since the last flush into the global
  /// registry. Deltas rather than totals so per-worker shard sums equal
  /// the true totals regardless of which worker ran what; a no-op (one
  /// relaxed load) while the registry is disabled. Reads out_->stats only
  /// — the registry never feeds back into the search, so enabling it
  /// cannot change any result.
  void flush_metrics() {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (!m.enabled()) {
      return;
    }
    const ExploreStats& s = out_->stats;
    const auto bump = [&](obs::Metric id, std::uint64_t ExploreStats::*f) {
      m.add(id, s.*f - flushed_.*f);
      flushed_.*f = s.*f;
    };
    bump(obs::Metric::states_visited, &ExploreStats::states_visited);
    bump(obs::Metric::cache_hits, &ExploreStats::pruned_visited);
    bump(obs::Metric::sleep_blocked, &ExploreStats::sleep_blocked);
    bump(obs::Metric::restores, &ExploreStats::restores);
    bump(obs::Metric::races_detected, &ExploreStats::races_detected);
    bump(obs::Metric::backtrack_points, &ExploreStats::backtrack_points);
    bump(obs::Metric::restore_marks, &ExploreStats::restore_marks);
    m.set_max(obs::Metric::visited_live_bytes, cache_live_bytes());
  }

  const Explorer::Config& cfg_;
  Explorer::Result* out_ = nullptr;
  std::unique_ptr<Sim> sim_;
  std::shared_ptr<void> owner_;
  MeasureAccumulator acc_;
  /// Bytes of live entries in the visited cache.
  [[nodiscard]] std::size_t cache_live_bytes() const {
    return scache_.live_bytes() + keys_.live_bytes();
  }

  /// The visited cache (see seen()): scache_ under source-DPOR, keys_
  /// unreduced (every sleep mask is 0). Planner: one cache across the
  /// whole walk. Worker: cleared per item.
  SleepCache scache_;
  VisitedKeys keys_;
  /// Worker, unreduced waves only: the frozen keys of earlier waves.
  const VisitedKeys* shared_ = nullptr;
  std::uint64_t root_key_ = 0;  ///< the current item's root key (publish)
  std::vector<Pid> path_;  ///< planner: picks along the current path
  int horizon_ = 0;                       ///< planner: work-item depth
  std::vector<Pid>* prefixes_ = nullptr;  ///< planner: prefix storage
  std::vector<WorkItem>* items_ = nullptr;  ///< planner: emitted items
  /// SourceDpor only: flat per-depth pending captures (capture_pendings /
  /// pend_at), one contiguous vector instead of a kMaxPorProcs array per
  /// recursion frame.
  std::vector<NextStep> pend_pool_;
  std::vector<MeasureAccumulator> acc_pool_;  ///< per-depth node snapshots
  std::vector<Sim::RewindMark> mark_pool_;    ///< per-depth rewind marks
  Sim::RewindMark base_mark_;  ///< the run start run_item() restores to
  std::uint64_t nodes_ = 0;
  std::uint64_t sims_built_ = 0;   ///< see sims_built()
  std::uint64_t rewind_tick_ = 0;  ///< restore() sampling counter
  ExploreStats flushed_;  ///< metric-flush cursor (see flush_metrics)
  bool stop_ = false;
  /// SourceDpor only: the race detector over the current path.
  std::optional<SourceDpor> dpor_;
  /// Per-depth node branch masks; under source-DPOR the race detector
  /// inserts into them (item prefix depths hold the foreign-node
  /// sentinel).
  std::vector<std::uint32_t> backtrack_;
};

}  // namespace

Explorer::Explorer(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nprocs < 1) {
    throw std::invalid_argument("Explorer: nprocs must be >= 1");
  }
  if (!cfg_.setup) {
    throw std::invalid_argument("Explorer: setup callback is required");
  }
  if (cfg_.limits.max_depth < 0) {
    throw std::invalid_argument("Explorer: limits.max_depth must be >= 0");
  }
  if (cfg_.nprocs > kMaxPorProcs) {
    // The DFS keeps per-node process masks (branch sets, sleep sets).
    throw std::invalid_argument("Explorer: nprocs must be <= 32");
  }
}

namespace {

/// Hard cap on the planner fan-out; n^f is clamped under it.
constexpr std::size_t kPrefixCap = 4096;
/// The planner horizon every DFS asks for (never derived from the thread
/// count, so results are bit-identical for every thread count).
constexpr int kFrontierDepth = 4;
/// Work items per wave of the unreduced search: the items of one wave run
/// in parallel against a table frozen at the wave's start, so the size
/// bounds both the parallelism of the search and the re-convergence it
/// loses. A constant, never derived from the thread count.
constexpr std::size_t kWaveItems = 8;
/// Byte budget of the shared table's slot array. It holds at most
/// kSharedTableBytes / 16 keys, so the array (at most 70% full) stays
/// within the budget.
constexpr std::size_t kSharedTableBytes = std::size_t{16} << 20;
constexpr std::size_t kSharedTableKeys = kSharedTableBytes / 16;

/// Planner horizon f: the planner fans the top f = min(kFrontierDepth,
/// max_depth) levels out into at most n^f work items, capped so wide
/// process counts cannot explode — or overflow — the item count. Depends
/// only on (n, max_depth): thread-count invariant. A clamp below the
/// requested depth logs a one-shot warning AND reports through `clamped`
/// so ExploreStats::frontier_clamped (and the study JSON) make the
/// coarser fan-out machine-readable.
int frontier_split_depth(int nprocs, const ExploreLimits& limits,
                         bool& clamped) {
  const int want_f = std::min(kFrontierDepth, limits.max_depth);
  // Division instead of multiplication: overflow-proof for any nprocs.
  const std::size_t max_prefixes =
      kPrefixCap / static_cast<std::size_t>(nprocs);
  std::size_t prefixes = 1;
  int f = 0;
  while (f < want_f && prefixes <= max_prefixes) {
    prefixes *= static_cast<std::size_t>(nprocs);
    ++f;
  }
  if (f < want_f) {
    clamped = true;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "cfc: Explorer frontier depth clamped from %d to %d "
                   "(%d^%d prefixes would exceed the %zu-prefix cap)\n",
                   want_f, f, nprocs, want_f, kPrefixCap);
    }
  }
  return f;
}

/// What the waves of one search share: the plan, the per-item result
/// slots, and one engine per pool task, built on first use and kept
/// across waves.
struct WaveContext {
  const Explorer::Config& cfg;
  const std::vector<WorkItem>& items;
  const std::vector<Pid>& prefixes;
  std::vector<Explorer::Result>& slots;
  std::vector<std::unique_ptr<DfsEngine>> engines;
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> sims_built{0};
};

/// Runs the items of one wave on the pool, each into its own slot, pruning
/// against `shared` when set; when `staged` is set, an item the state
/// budget did not stop stages its keys in (*staged)[i]. Every task builds
/// its engine, so the pool builds min(items, threads) Sims; after the
/// `last` wave each task tallies and frees its engine, after any other
/// wave it frees the engine's visited keys.
void run_wave(ExperimentRunner& eng, WaveContext& ctx,
              const std::vector<std::size_t>& wave, const VisitedKeys* shared,
              std::vector<std::vector<std::uint64_t>>* staged, bool last) {
  const std::size_t workers = ctx.engines.size();
  const std::size_t none = ctx.items.size();
  struct Queue {
    std::vector<std::size_t> items;
    std::atomic<std::size_t> next{0};
  };
  std::vector<Queue> queues(workers);
  {
    const std::size_t per = wave.size() / workers;
    const std::size_t rem = wave.size() % workers;
    std::size_t next_item = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t take = per + (w < rem ? 1 : 0);
      for (std::size_t k = 0; k < take; ++k) {
        queues[w].items.push_back(wave[next_item++]);
      }
    }
  }
  eng.parallel_for(workers, [&](std::size_t w) {
    std::unique_ptr<DfsEngine>& engine = ctx.engines[w];
    if (!engine) {
      engine = std::make_unique<DfsEngine>(ctx.cfg);
    }
    Explorer::Result local;  // worker-local: one hot cache line per worker
    std::uint64_t local_steals = 0;
    for (;;) {
      std::size_t idx = none;
      Queue& own = queues[w];
      const std::size_t pos = own.next.fetch_add(1, std::memory_order_relaxed);
      if (pos < own.items.size()) {
        idx = own.items[pos];
      } else {
        for (std::size_t off = 1; off < queues.size() && idx == none; ++off) {
          Queue& victim = queues[(w + off) % queues.size()];
          const std::size_t vpos =
              victim.next.fetch_add(1, std::memory_order_relaxed);
          if (vpos < victim.items.size()) {
            idx = victim.items[vpos];
            ++local_steals;
          }
        }
      }
      if (idx == none) {
        break;  // every queue drained
      }
      local.stats = ExploreStats{};
      local.best.clear();
      {
        const obs::TraceSpan item_span("explorer.item");
        engine->run_item(ctx.items[idx], ctx.prefixes, shared, local);
      }
      if (staged != nullptr && !local.stats.state_budget_hit) {
        engine->publish((*staged)[idx]);
      }
      ctx.slots[idx].stats = local.stats;
      ctx.slots[idx].best.swap(local.best);
    }
    ctx.steals.fetch_add(local_steals, std::memory_order_relaxed);
    if (last) {
      ctx.sims_built.fetch_add(engine->sims_built(),
                               std::memory_order_relaxed);
      engine.reset();
    } else {
      engine->release_keys();
    }
  });
}

/// The wave barrier: merges the keys the wave's items staged into `shared`
/// in item index order, and frees the staging. Eviction is by whole waves:
/// when the wave would push the table past kSharedTableKeys, every earlier
/// wave is dropped first, and a wave larger than the whole budget is not
/// published at all. Eviction only loses pruning, never coverage. The table
/// grows once, to hold every staged key, before the merge: growing key by
/// key would rehash through each size in between, with the old and the new
/// array both live (the first wave stages the most keys).
void publish_wave(const std::vector<std::size_t>& wave,
                  std::vector<std::vector<std::uint64_t>>& staged,
                  VisitedKeys& shared) {
  std::size_t incoming = 0;
  for (const std::size_t i : wave) {
    incoming += staged[i].size();
  }
  if (shared.size() + incoming > kSharedTableKeys) {
    shared.clear();
  }
  const bool fits = incoming <= kSharedTableKeys;
  if (fits) {
    shared.reserve(shared.size() + incoming);
  }
  for (const std::size_t i : wave) {
    if (fits) {
      for (const std::uint64_t key : staged[i]) {
        shared.insert(key);
      }
    }
    std::vector<std::uint64_t>().swap(staged[i]);
  }
}

}  // namespace

Explorer::Result Explorer::run(ExperimentRunner* runner) const {
  bool clamped = false;
  const int f = frontier_split_depth(cfg_.nprocs, cfg_.limits, clamped);

  // Phase 1 — sequential planner: full-branching walk (mod sleep) of the
  // top f levels, emitting one self-contained work item per horizon node.
  // Everything the planner counts is thread-count invariant because only
  // the calling thread runs it.
  std::vector<Pid> prefixes;  // every item's picks, back to back
  std::vector<WorkItem> items;
  Explorer::Result planner_slot;
  {
    const obs::TraceSpan plan_span("explorer.plan");
    DfsEngine planner(cfg_);
    planner.plan(f, prefixes, items, planner_slot);
    planner_slot.stats.sims_built += planner.sims_built();
  }
  {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (m.enabled()) {
      m.add(obs::Metric::work_items, items.size());
      m.set_max(obs::Metric::slab_bytes, prefixes.capacity() * sizeof(Pid));
    }
  }

  // Phase 2 — work-stealing execution: items are dealt in contiguous
  // blocks into per-worker queues; a worker drains its own queue first
  // (fetch_add claims), then sweeps the other queues for leftovers. Each
  // worker owns one private Sim + DfsEngine reused across its items and
  // accumulates each item into a worker-LOCAL result, published to the
  // item's shared slot once at item end: the per-node stat increments were
  // previously direct writes through the slots array, whose adjacent
  // ~200-byte entries share cache lines — under the old round-robin deal
  // every neighbour belonged to a different worker, and the resulting
  // false sharing on the hottest counters (states_visited bumps on every
  // DFS node) cost more than the parallelism bought back (the measured
  // threads=4 < threads=1 regression on the scaling bench). The slot
  // merge below runs in item index order — the totals cannot depend on
  // which worker ran what, only `steals` and sims_built (each engine's
  // own Sim constructions, tallied once per worker like steals, so a
  // worker whose queue was stolen empty still reports its Sim) reflect the
  // pool size.
  //
  // The unreduced search with pruning runs its items in waves of
  // kWaveItems, each wave dealt as above, and the engines stay with their
  // pool tasks across waves. Every other search runs one wave.
  const bool share = cfg_.limits.reduction == ReductionPolicy::Off &&
                     cfg_.limits.prune_visited;
  const std::size_t waves =
      share ? (items.size() + kWaveItems - 1) / kWaveItems : 1;
  std::vector<Explorer::Result> slots(items.size());
  std::vector<std::vector<std::uint64_t>> staged(share ? items.size() : 0);
  VisitedKeys shared;
  WaveContext ctx{cfg_, items, prefixes, slots, {}};
  if (!items.empty()) {
    ExperimentRunner& eng = runner_or_shared(runner);
    ctx.engines.resize(std::min(
        items.size(),
        static_cast<std::size_t>(std::max(1, eng.thread_count()))));
    std::vector<std::size_t> wave;
    for (std::size_t k = 0; k < waves; ++k) {
      // Item i joins wave i mod waves: planner-order neighbours re-converge
      // most, so they land in consecutive waves, where the later one reads
      // the earlier one's keys.
      wave.clear();
      for (std::size_t i = k; i < items.size(); i += waves) {
        wave.push_back(i);
      }
      // The last wave's keys would have no reader: it stages nothing.
      const bool publish = share && k + 1 < waves;
      run_wave(eng, ctx, wave, share ? &shared : nullptr,
               publish ? &staged : nullptr, k + 1 == waves);
      if (publish) {
        const obs::TraceSpan merge_span("explorer.merge");
        publish_wave(wave, staged, shared);
      }
    }
  }

  Result res;
  res.stats.frontier_clamped = clamped;
  {
    const obs::TraceSpan merge_span("explorer.merge");
    res.merge(planner_slot);
    for (const Explorer::Result& slot : slots) {  // item order: deterministic
      res.merge(slot);
    }
  }
  res.stats.steals += ctx.steals.load(std::memory_order_relaxed);
  res.stats.sims_built += ctx.sims_built.load(std::memory_order_relaxed);
  res.stats.visited_bytes += shared.bytes();
  res.stats.visited_live_bytes += shared.live_bytes();
  {
    obs::MetricRegistry& m = obs::MetricRegistry::global();
    if (m.enabled()) {
      m.add(obs::Metric::steals, res.stats.steals);
    }
  }
  return res;
}

}  // namespace cfc
