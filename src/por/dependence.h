#ifndef CFC_POR_DEPENDENCE_H
#define CFC_POR_DEPENDENCE_H

#include <cstdint>

#include "memory/types.h"
#include "sched/run.h"

namespace cfc {

class Sim;
class StaticModel;

/// --- The measurement-aware dependence relation. ---
///
/// Two scheduler units *commute* (are independent) when swapping them as
/// adjacent steps of a run changes neither the shared-memory state nor any
/// value the measurement objectives can ever read. The explorer's certified
/// searches maximize the streaming window objectives of
/// core/streaming_measures.h (cf-session / clean-entry / exit maxima and
/// whole-run totals), so independence here must make those objectives
/// *trace-invariant*: equal on every linearization of the same
/// Mazurkiewicz trace. The relation below guarantees that by construction:
///
///  * Register conflict. Two accesses to the same register with a write on
///    either side do not commute: the read's returned value (and hence the
///    process's whole future) or the final register value changes.
///    Disjoint-register accesses, and same-register read/read pairs,
///    commute in memory; they also commute in the accumulator, because an
///    Access event only updates its own process's totals and open-window
///    counts and never reads the section table.
///
///  * Section-change adjacency. Every window predicate is driven by
///    SectionChange events: window opens/closes fire on a process's own
///    transitions, and the clean flags read the *global* section table
///    (others_in_remainder, nobody_in_cs_or_exit). Two units that both
///    emitted section changes therefore do not commute — swapping them
///    reorders section-table reads against section-table writes and can
///    flip a window's cleanliness or its open/close interleaving. A unit
///    that emitted NO section change, however, commutes with any section
///    change: an Access event neither reads nor writes the section table,
///    and a SectionChange event neither touches register state nor any
///    other process's window accumulators. Hence the rule: two units are
///    dependent when BOTH are section-change-adjacent; a section-quiet
///    unit is dependent only through a register conflict.
///
///  * Unknown next steps. A process that has not started, or whose next
///    step fires the injected stopping failure, has an unknowable next
///    unit: it is conservatively dependent with everything.
///
/// The mutual-exclusion invariant is also trace-invariant under this
/// relation: a violation (two processes simultaneously in Critical) is a
/// property of the section-event subsequence, whose internal order the
/// relation never commutes — so every linearization of a violating trace
/// violates, and excluding the class exactly mirrors the unreduced
/// explorer's exclusion of each violating schedule.
///
/// Executed units carry full information (StepSummary, captured from
/// Sim::last_step_summary()); a *pending* unit is known only up to its
/// posted access (NextStep below) — whether executing it would emit a
/// section change is unknowable in advance, so the executed-vs-pending
/// form conservatively assumes the pending side may change sections.
///
/// --- Static refinement (src/sa/). ---
///
/// The sa/ footprint pass dry-runs the configured model ahead of the
/// search and records per-register / per-pid facts the search can trust.
/// next_step_of's StaticModel overload folds three refinements into the
/// NextStep it returns, so every consumer of the pending-side relations
/// (sleep transfer, cut-point placement, initial-set selection) refines
/// uniformly through the field values alone:
///
///  * R1 — unstarted first units with a section-quiet prologue. A
///    NotStarted process's first scheduler unit is its deterministic
///    prologue (which performs no shared access — the prologue ends
///    exactly at the first access request) plus that first access. The
///    prologue's code path cannot depend on any shared value, so the
///    statically recorded first access is exact, and the otherwise-
///    unknown pend becomes a known access pend. The refinement applies
///    ONLY when the prologue is provably section-quiet
///    (FirstUnit::prologue_quiet): a prologue that changes sections (the
///    mutex session driver entering Entry) is observationally dependent
///    with every concurrently measured step — swapping the two flips the
///    measured step's window cleanliness — and the pending side of this
///    relation has no vocabulary for "changes sections BEFORE its
///    access". With a quiet prologue the refined pend carries exactly
///    the information a dynamic Runnable capture would (reg/wrote exact,
///    continuation section changes unknowable, may_change_section stays
///    true), so it inherits the certified baseline's soundness. The
///    crash_after = 0 variant (quiet prologue + immediate crash) is
///    additionally marked never-change-section: the unit provably emits
///    nothing but the Crash terminal.
///
///  * R2 — armed crash units. A runnable process whose injected crash
///    threshold has been reached executes, as its next unit, only the
///    Crash terminal event: no access is performed, no section change is
///    emitted, and the section table is untouched. The unit commutes with
///    everything (program order aside): a known local yield that never
///    changes sections.
///
///  * R3 — section-quiet plain writes. When every write unit the pass
///    collected on a register ran section-quiet, a pending plain Write on
///    that register is marked never-change-section. A write unit's
///    continuation is value-independent — the write's local code path is
///    fixed at post time — so per program point the fact is stable; the
///    pass's coverage of contended-only write sites is what the
///    over-approximation suite and the bit-identity differential gate.
///    Reads are NEVER refined this way: a read's continuation branches on
///    the value it returns, and solo/perturbed dry-runs cannot enumerate
///    every contended value (e.g. a turn-read that only enters the
///    critical section under contention). Bit ops are excluded for the
///    same reason (their continuations branch on the returned bit).
///
/// The counter overloads report each pair the refinement actually flips —
/// refined-independent where the unrefined relation would have answered
/// dependent — into `*refined_pairs` (the static_refined_pairs counter).

/// What is known about a process's NEXT scheduler unit before it runs:
/// the posted pending access, or nothing (unstarted / crash-armed).
struct NextStep {
  bool known = false;  ///< started, not crash-armed, suspended at an access
  bool yield = false;  ///< a local step: posts no shared-memory access
  RegId reg = -1;      ///< valid iff known && !yield
  bool wrote = false;  ///< the posted access can modify the register
  /// Whether executing the unit may emit a section change. True unless a
  /// static fact (R2/R3 above) proves the unit section-quiet.
  bool may_change_section = true;
  /// The pend was synthesized from static facts (R1/R2): without the
  /// StaticModel this process's next unit would be unknown. Drives the
  /// refined-pair counters; never consulted by the relation itself.
  bool statically_known = false;
};

/// Captures `pid`'s NextStep from a live simulation (unknown when the
/// process is not runnable, not yet started, or crash-armed).
[[nodiscard]] NextStep next_step_of(const Sim& sim, Pid pid);

/// The statically refined capture: the dynamic NextStep above, plus the
/// R1/R2/R3 refinements when `statics` is non-null (nullptr reproduces
/// the dynamic capture exactly).
[[nodiscard]] NextStep next_step_of(const Sim& sim, Pid pid,
                                    const StaticModel* statics);

/// Executed-vs-executed dependence (the race detector's relation): full
/// information on both sides.
[[nodiscard]] bool dependent(const StepSummary& a, const StepSummary& b);

/// Executed-vs-pending dependence (the sleep-set transfer relation): the
/// pending side's section adjacency is unknowable in general, so this is
/// `dependent(taken, pend-with-worst-case-adjacency)` — dependent whenever
/// the executed unit changed sections (unless the pend is statically
/// section-quiet), or on a register conflict.
[[nodiscard]] bool dependent(const StepSummary& taken, const NextStep& pend);

/// As above; additionally bumps `*refined_pairs` (when non-null) for every
/// independent answer the unrefined relation would have called dependent.
[[nodiscard]] bool dependent(const StepSummary& taken, const NextStep& pend,
                             std::uint64_t* refined_pairs);

}  // namespace cfc

#endif  // CFC_POR_DEPENDENCE_H
