#include "por/dependence.h"

#include "sa/static_summary.h"
#include "sched/sim.h"

namespace cfc {

NextStep next_step_of(const Sim& sim, Pid pid) {
  NextStep info;
  if (sim.status(pid) != ProcStatus::Runnable || sim.crash_pending(pid)) {
    return info;  // unknown next unit: dependent with everything
  }
  const std::optional<PendingAccess> pa = sim.pending(pid);
  if (!pa.has_value()) {
    return info;
  }
  info.known = true;
  info.yield = pa->local_yield;
  if (!info.yield) {
    info.reg = pa->reg;
    // One counted unit is one atomic access: everything but a plain
    // register read can modify its target (bit ops are conservatively
    // writes unless BitOp::Read, mirroring Access::is_write()).
    info.wrote = !(pa->kind == AccessKind::Read ||
                   (pa->kind == AccessKind::Bit && pa->bit_op == BitOp::Read));
  }
  return info;
}

NextStep next_step_of(const Sim& sim, Pid pid, const StaticModel* statics) {
  NextStep info = next_step_of(sim, pid);
  if (statics == nullptr) {
    return info;
  }
  if (info.known) {
    // R3: a pending plain Write on a register whose collected write units
    // all ran section-quiet cannot change sections. Reads and bit ops are
    // never refined — their continuations branch on the returned value,
    // which the pass cannot enumerate (see the header's soundness note).
    if (!info.yield) {
      const std::optional<PendingAccess> pa = sim.pending(pid);
      if (pa.has_value() && pa->kind == AccessKind::Write &&
          !statics->write_may_change_section(info.reg)) {
        info.may_change_section = false;
      }
    }
    return info;
  }
  if (sim.status(pid) == ProcStatus::Runnable && sim.crash_pending(pid)) {
    // R2: the armed crash unit emits only the Crash terminal event — no
    // access, no section change; it commutes with every other unit.
    info.known = true;
    info.yield = true;
    info.may_change_section = false;
    info.statically_known = true;
    return info;
  }
  if (sim.status(pid) == ProcStatus::NotStarted) {
    const FirstUnit& fu = statics->first_unit(pid);
    if (!fu.known || !fu.prologue_quiet) {
      // R1 requires a section-quiet prologue. A prologue that changes
      // sections (the mutex session driver entering Entry) is
      // observationally dependent with every concurrently measured step —
      // its section change flips that step's window cleanliness when the
      // two swap — and the register+section relation cannot express that
      // on the pending side. Keep the unit unknown (dependent with
      // everything), exactly like the dynamic capture.
      return info;
    }
    if (sim.crash_pending(pid)) {
      // crash_after = 0: the unit is the (provably section-quiet)
      // prologue followed by the immediate crash — no shared access, no
      // section change.
      info.known = true;
      info.yield = true;
      info.may_change_section = false;
      info.statically_known = true;
      return info;
    }
    // R1: quiet prologue + statically recorded first access. The access's
    // continuation may still change sections, so may_change_section stays
    // conservative — the refined pend carries exactly the information
    // quality of a dynamic Runnable capture.
    info.known = true;
    info.yield = fu.yield;
    info.reg = fu.reg;
    info.wrote = fu.wrote;
    info.statically_known = true;
  }
  return info;
}

bool dependent(const StepSummary& a, const StepSummary& b) {
  if (a.pid == b.pid) {
    return true;  // program order
  }
  if (a.section_changed && b.section_changed) {
    return true;  // both touch the section table the window predicates read
  }
  if (a.accessed && b.accessed && a.reg == b.reg && (a.wrote || b.wrote)) {
    return true;  // register conflict
  }
  return false;
}

bool dependent(const StepSummary& taken, const NextStep& pend) {
  return dependent(taken, pend, nullptr);
}

bool dependent(const StepSummary& taken, const NextStep& pend,
               std::uint64_t* refined_pairs) {
  if (!pend.known) {
    return true;
  }
  if (taken.section_changed && pend.may_change_section) {
    // The pending unit might change sections too once it runs; assume the
    // worst and keep the pair ordered.
    return true;
  }
  if (taken.accessed && !pend.yield && taken.reg == pend.reg &&
      (taken.wrote || pend.wrote)) {
    return true;
  }
  // Independent. The unrefined relation would have answered dependent when
  // the pend was synthesized statically (it would be unknown), or when the
  // executed unit changed sections (only a static section-quiet fact lets
  // the pair through in that case) — those are the refined pairs.
  if (refined_pairs != nullptr &&
      (pend.statically_known || taken.section_changed)) {
    ++*refined_pairs;
  }
  return false;
}

}  // namespace cfc
