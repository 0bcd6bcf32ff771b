#ifndef CFC_CORE_STREAMING_MEASURES_H
#define CFC_CORE_STREAMING_MEASURES_H

#include <algorithm>
#include <vector>

#include "core/measures.h"
#include "memory/types.h"
#include "sched/event_sink.h"

namespace cfc {

/// Sorted-unique flat set of register ids, backing the register-complexity
/// counts. A vector rather than a node-based std::set: the explorer copies
/// accumulator snapshots on every branching DFS node (and the changed
/// processes' state back on every sibling restore, MeasureAccumulator::
/// rewind_to), and vector copy-assignment reuses the destination's capacity —
/// steady-state allocation-free — where std::set would allocate one node
/// per element per copy. Windows touch few registers, so the ordered
/// insert's linear shift is cheaper than chasing tree nodes anyway.
class RegIdSet {
 public:
  void insert(RegId r) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), r);
    if (it == ids_.end() || *it != r) {
      ids_.insert(it, r);
    }
  }
  void clear() { ids_.clear(); }  // keeps capacity
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] std::vector<RegId>::const_iterator begin() const {
    return ids_.begin();
  }
  [[nodiscard]] std::vector<RegId>::const_iterator end() const {
    return ids_.end();
  }

 private:
  std::vector<RegId> ids_;
};

/// Streaming replacement for the offline trace measurement: an EventSink
/// that computes, online and per process,
///
///   * the whole-run complexity (== measure_all(trace, pid)),
///   * the max complexity over contention-free sessions
///     (== max_over_windows over contention_free_sessions),
///   * the max complexity over clean entry windows
///     (== max_over_windows over clean_entry_windows), and
///   * the max complexity over exit windows
///     (== max_over_windows over exit_windows),
///
/// replicating the window semantics of core/measures.h exactly — a
/// randomized differential test asserts equality against the trace-based
/// path. Because nothing is materialized, long random-schedule searches can
/// run with Sim trace recording disabled, dropping the per-event allocation
/// cost of the trace from the hot path.
class MeasureAccumulator final : public EventSink {
 public:
  /// `nprocs` must cover every pid that will appear in the run.
  explicit MeasureAccumulator(int nprocs);

  void on_event(const TraceEvent& ev) override;

  /// Whole-run complexity of `pid` (== measure_all on the trace).
  [[nodiscard]] ComplexityReport total(Pid pid) const;

  /// Max complexity over the paper's measurement windows of `pid`.
  [[nodiscard]] ComplexityReport contention_free_session_max(Pid pid) const;
  [[nodiscard]] ComplexityReport clean_entry_max(Pid pid) const;
  [[nodiscard]] ComplexityReport exit_max(Pid pid) const;

  /// Number of *completed* contention-free sessions of `pid` so far.
  [[nodiscard]] int contention_free_session_count(Pid pid) const;

  /// Marks the measurement as cut off (the driver stopped the run on
  /// RunOutcome::BudgetExhausted or an exploration bound): every report
  /// this accumulator returns afterwards carries `truncated = true`.
  void mark_truncated() { truncated_ = true; }
  [[nodiscard]] bool truncated() const { return truncated_; }

  /// --- State digests (visited-state pruning in analysis/explorer). ---

  /// 64-bit hash of the full measurement state: totals, window maxima, open
  /// windows, and the section table. Combine with core/state_fingerprint
  /// when an exploration objective reads whole-run totals. Note the totals
  /// grow with every access, so under this digest no two states along one
  /// path ever merge — use window_digest() for window-maxima objectives.
  [[nodiscard]] std::uint64_t digest() const;

  /// Hash of only the window-measurement state (cf-session / clean-entry /
  /// exit maxima, any open windows, the section table) — everything a
  /// window-maxima objective's future values can depend on, excluding the
  /// monotonically growing totals that would defeat pruning.
  ///
  /// This digest is also the "objective state" of the partial-order
  /// reduction's trace-invariance argument (por/dependence.h): an Access
  /// event updates only its own process's open-window counts and never
  /// reads the section table, while a SectionChange event drives every
  /// window predicate through the section table and the clean flags.
  /// Swapping two adjacent scheduler units therefore leaves this state —
  /// and with it every future window value — unchanged exactly when the
  /// units have no register conflict and at most one of them emitted a
  /// section change, which is the dependence relation the reduced
  /// certified searches commute under.
  [[nodiscard]] std::uint64_t window_digest() const;

  [[nodiscard]] int process_count() const {
    return static_cast<int>(per_pid_.size());
  }

  /// Rewinds this accumulator to `ancestor`, an earlier copy of it: the
  /// result equals copy-assignment from `ancestor` in every report and
  /// digest. Contract: `ancestor` was copied from this accumulator on the
  /// current run, and this accumulator has not been rewound past it since
  /// (the explorer restores only to snapshots of the current DFS path).
  /// Costs O(processes) plus a copy of each process's state that changed
  /// after the snapshot — not a full copy. Throws std::invalid_argument on
  /// a process-count mismatch and std::logic_error when `ancestor` counts
  /// more events than this accumulator (it cannot be an ancestor).
  void rewind_to(const MeasureAccumulator& ancestor);

 private:
  /// Incrementally built ComplexityReport: counts plus the distinct-register
  /// sets backing the register-complexity components.
  struct ReportAcc {
    ComplexityReport rep;
    RegIdSet regs;
    RegIdSet read_regs;
    RegIdSet write_regs;
    /// Order-independent multiset hash of every access added since the
    /// last reset (summed, so repetitions count). Every other field is a
    /// function of that multiset, so this single word is a sound state
    /// digest — and it makes digest() an O(1) read where iterating the
    /// register sets per explorer node would dominate the search.
    std::uint64_t multiset_hash = 0;

    void add(const Access& a);
    void reset();
    [[nodiscard]] ComplexityReport report() const;
    [[nodiscard]] std::uint64_t digest() const;
  };

  /// One measurement window currently open for a process.
  struct WindowState {
    bool open = false;
    bool clean = false;
    ReportAcc acc;
  };

  struct PerPid {
    ReportAcc total;
    WindowState cf_session;
    WindowState clean_entry;
    WindowState exit;
    ComplexityReport cf_session_max;
    ComplexityReport clean_entry_max;
    ComplexityReport exit_max;
    int cf_sessions_completed = 0;
    /// XOR-combinable digest contributions, maintained lazily: the
    /// explorer hashes the accumulator at EVERY DFS node for its
    /// visited-state key, so digest()/window_digest() must be near-reads.
    /// Event handlers only set the dirty flags (between two explorer
    /// nodes exactly one access happened, so at most one pid is dirty);
    /// the digest getters refresh flagged contributions and cache them.
    /// max_hash covers the window maxima + session count and is refreshed
    /// eagerly at window closes (rare).
    mutable std::uint64_t window_contrib = 0;
    mutable std::uint64_t total_contrib = 0;
    std::uint64_t max_hash = 0;
    mutable bool window_dirty = false;
    mutable bool total_dirty = false;
    /// events_ at this process's last real state change (the dirty flags
    /// and cached contributions above do not count): rewind_to() copies
    /// only processes stamped after the ancestor's event count.
    std::uint64_t changed_at = 0;
  };

  void on_access(const TraceEvent& ev);
  void on_section_change(const TraceEvent& ev);
  void refresh_window_contrib(Pid pid) const;
  void refresh_total_contrib(Pid pid) const;
  void refresh_max_hash(Pid pid);

  [[nodiscard]] bool others_in_remainder(Pid pid) const;
  [[nodiscard]] bool nobody_in_cs_or_exit() const;

  [[nodiscard]] const PerPid& at(Pid pid) const;
  [[nodiscard]] PerPid& at(Pid pid);

  std::vector<PerPid> per_pid_;
  std::vector<Section> section_;
  std::uint64_t section_hash_ = 0;  ///< XOR of per-pid section slots
  bool truncated_ = false;
  /// Events received so far (the clock behind PerPid::changed_at).
  std::uint64_t events_ = 0;
};

}  // namespace cfc

#endif  // CFC_CORE_STREAMING_MEASURES_H
