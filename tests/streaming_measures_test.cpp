// Differential test of the streaming measurement sink: a MeasureAccumulator
// attached to a simulation must report exactly what the offline trace-based
// functions in core/measures.h compute over the recorded trace — totals,
// contention-free sessions, clean entry windows, and exit windows — on
// randomized schedules across algorithm families, with and without crash
// injection. MeasureAccumulator::rewind_to is differential-tested against
// copy-assignment on randomized event streams.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/measures.h"
#include "core/streaming_measures.h"
#include "mutex/mutex_algorithm.h"
#include "naming/naming_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

void expect_reports_equal(const ComplexityReport& streaming,
                          const ComplexityReport& traced,
                          const std::string& what) {
  EXPECT_EQ(streaming.steps, traced.steps) << what;
  EXPECT_EQ(streaming.registers, traced.registers) << what;
  EXPECT_EQ(streaming.read_steps, traced.read_steps) << what;
  EXPECT_EQ(streaming.write_steps, traced.write_steps) << what;
  EXPECT_EQ(streaming.read_registers, traced.read_registers) << what;
  EXPECT_EQ(streaming.write_registers, traced.write_registers) << what;
  EXPECT_EQ(streaming.atomicity, traced.atomicity) << what;
}

/// Runs the sim (trace recording on AND accumulator attached) and compares
/// every streaming quantity to the trace-based reference, per pid.
void compare_all_measures(Sim& sim, const MeasureAccumulator& acc, int n,
                          const std::string& what) {
  const Trace& trace = sim.trace();
  for (Pid pid = 0; pid < n; ++pid) {
    const std::string who = what + " pid=" + std::to_string(pid);
    expect_reports_equal(acc.total(pid), measure_all(trace, pid),
                         who + " total");
    const auto cf_sessions = contention_free_sessions(trace, pid, n);
    expect_reports_equal(acc.contention_free_session_max(pid),
                         max_over_windows(trace, pid, cf_sessions),
                         who + " cf-session");
    EXPECT_EQ(acc.contention_free_session_count(pid),
              static_cast<int>(cf_sessions.size()))
        << who;
    expect_reports_equal(
        acc.clean_entry_max(pid),
        max_over_windows(trace, pid, clean_entry_windows(trace, pid, n)),
        who + " clean-entry");
    expect_reports_equal(
        acc.exit_max(pid),
        max_over_windows(trace, pid, exit_windows(trace, pid)),
        who + " exit");
  }
}

TEST(StreamingMeasures, MatchesTraceOnRandomMutexSchedules) {
  const auto& registry = AlgorithmRegistry::instance();
  const std::vector<std::string> algorithms = {
      "lamport-fast", "thm3-exact-l2", "kessels-tree", "peterson-tree"};
  for (const std::string& name : algorithms) {
    const MutexAlgorithmEntry& entry = registry.mutex(name);
    for (const int n : {2, 4, 8}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Sim sim;
        MeasureAccumulator acc(n);
        sim.add_sink(acc);
        auto alg = setup_mutex(sim, entry.factory, n, /*sessions=*/2);
        RandomScheduler rnd(seed);
        drive(sim, rnd, RunLimits{100'000});
        compare_all_measures(
            sim, acc, n,
            name + " n=" + std::to_string(n) + " seed=" +
                std::to_string(seed));
      }
    }
  }
}

TEST(StreamingMeasures, MatchesTraceOnSoloSessions) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n, "thm3")) {
    for (Pid pid = 0; pid < n; pid += 3) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_mutex(sim, entry->factory, n, /*sessions=*/1);
      SoloScheduler solo(pid);
      drive(sim, solo);
      compare_all_measures(sim, acc, n, entry->info.name + " solo");
      EXPECT_EQ(acc.contention_free_session_count(pid), 1)
          << entry->info.name;
    }
  }
}

TEST(StreamingMeasures, MatchesTraceOnNamingRunsWithCrashes) {
  const auto& registry = AlgorithmRegistry::instance();
  const int n = 8;
  for (const NamingAlgorithmEntry* entry : registry.naming_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Sim sim;
      MeasureAccumulator acc(n);
      sim.add_sink(acc);
      auto alg = setup_naming(sim, entry->factory, n);
      // Crash two processes at different depths; wait-freedom keeps the
      // rest running, and measurement must agree either way.
      sim.crash_after(1, seed % 3);
      sim.crash_after(5, 1 + seed % 2);
      RandomScheduler rnd(seed);
      drive(sim, rnd, RunLimits{100'000});
      compare_all_measures(
          sim, acc, n, entry->info.name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(StreamingMeasures, AgreesWithTraceWhenRecordingDisabled) {
  // Two identical runs driven by the same seed: one with the trace, one
  // streaming-only (recording off). The streaming run must see the same
  // events — sequence numbering does not depend on materialization.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  const int n = 4;

  Sim traced;
  auto alg1 = setup_mutex(traced, factory, n, 2);
  RandomScheduler rnd1(99);
  drive(traced, rnd1, RunLimits{50'000});

  Sim streaming;
  streaming.set_trace_recording(false);
  MeasureAccumulator acc(n);
  streaming.add_sink(acc);
  auto alg2 = setup_mutex(streaming, factory, n, 2);
  RandomScheduler rnd2(99);
  drive(streaming, rnd2, RunLimits{50'000});

  EXPECT_TRUE(streaming.trace().empty());
  EXPECT_EQ(streaming.next_seq(), traced.next_seq());
  for (Pid pid = 0; pid < n; ++pid) {
    expect_reports_equal(acc.total(pid), measure_all(traced.trace(), pid),
                         "recording-off pid=" + std::to_string(pid));
  }
}

void expect_same_accumulator(const MeasureAccumulator& a,
                             const MeasureAccumulator& b,
                             const std::string& what) {
  ASSERT_EQ(a.process_count(), b.process_count()) << what;
  EXPECT_EQ(a.digest(), b.digest()) << what;
  EXPECT_EQ(a.window_digest(), b.window_digest()) << what;
  EXPECT_EQ(a.truncated(), b.truncated()) << what;
  for (Pid pid = 0; pid < a.process_count(); ++pid) {
    const std::string who = what + " pid=" + std::to_string(pid);
    expect_reports_equal(a.total(pid), b.total(pid), who + " total");
    expect_reports_equal(a.contention_free_session_max(pid),
                         b.contention_free_session_max(pid),
                         who + " cf-session");
    expect_reports_equal(a.clean_entry_max(pid), b.clean_entry_max(pid),
                         who + " clean-entry");
    expect_reports_equal(a.exit_max(pid), b.exit_max(pid), who + " exit");
    EXPECT_EQ(a.total(pid).truncated, b.total(pid).truncated) << who;
    EXPECT_EQ(a.contention_free_session_count(pid),
              b.contention_free_session_count(pid))
        << who;
  }
}

/// Seeded randomized differential of MeasureAccumulator::rewind_to against
/// copy-assignment: a synthetic event stream (accesses on a few registers,
/// section changes between arbitrary sections — so other processes'
/// cf-session and clean-entry `clean` flags flip — and terminal events)
/// drives `acc`; snapshots are pushed on a stack (the current path's
/// checkpoints) at random points, and at others `acc` rewinds to a random
/// stacked snapshot while a reference is copy-assigned from it. Digests
/// are read at random points too, so rewinds meet both fresh and stale
/// cached digest contributions.
TEST(StreamingMeasures, RewindToAncestorMatchesCopyAssignment) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    const int n = 2 + static_cast<int>(seed % 5);
    MeasureAccumulator acc(n);
    MeasureAccumulator ref(n);
    std::vector<MeasureAccumulator> stack{acc};
    std::vector<Section> section(static_cast<std::size_t>(n),
                                 Section::Remainder);
    std::vector<std::vector<Section>> section_stack{section};
    Seq seq = 0;
    int rewinds = 0;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t roll = rng() % 100;
      const auto pid = static_cast<Pid>(rng() % static_cast<std::uint64_t>(n));
      TraceEvent ev;
      ev.seq = seq++;
      ev.pid = pid;
      if (roll < 50) {
        ev.kind = TraceEvent::Kind::Access;
        ev.access.seq = ev.seq;
        ev.access.pid = pid;
        ev.access.reg = static_cast<RegId>(rng() % 6);
        ev.access.kind =
            (rng() % 2 == 0) ? AccessKind::Read : AccessKind::Write;
        ev.access.width = 1 + static_cast<int>(rng() % 4);
      } else if (roll < 75) {
        ev.kind = TraceEvent::Kind::SectionChange;
        Section& cur = section[static_cast<std::size_t>(pid)];
        ev.from = cur;
        ev.to = static_cast<Section>(rng() % 6);
        cur = ev.to;
      } else if (roll < 77) {
        ev.kind = (rng() % 2 == 0) ? TraceEvent::Kind::Crash
                                   : TraceEvent::Kind::Finish;
      } else if (roll < 85) {
        stack.push_back(acc);
        section_stack.push_back(section);
        continue;
      } else if (roll < 95) {
        const std::size_t k = rng() % stack.size();
        const auto keep = static_cast<std::ptrdiff_t>(k + 1);
        stack.erase(stack.begin() + keep, stack.end());
        section_stack.erase(section_stack.begin() + keep,
                            section_stack.end());
        acc.rewind_to(stack[k]);
        ref = stack[k];
        section = section_stack[k];
        ++rewinds;
        expect_same_accumulator(acc, ref,
                                "seed=" + std::to_string(seed) + " op=" +
                                    std::to_string(op));
        continue;
      } else if (roll < 98) {
        (void)acc.digest();  // refresh cached contributions
        continue;
      } else {
        acc.mark_truncated();
        ref.mark_truncated();
        continue;
      }
      acc.on_event(ev);
      ref.on_event(ev);
    }
    EXPECT_GT(rewinds, 100);
    expect_same_accumulator(acc, ref, "seed=" + std::to_string(seed));
  }
}

TEST(StreamingMeasures, RewindToRejectsNonAncestors) {
  MeasureAccumulator acc(2);
  EXPECT_THROW(acc.rewind_to(MeasureAccumulator(3)), std::invalid_argument);
  MeasureAccumulator later = acc;
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::SectionChange;
  ev.pid = 0;
  ev.to = Section::Entry;
  later.on_event(ev);
  EXPECT_THROW(acc.rewind_to(later), std::logic_error);
}

TEST(StreamingMeasures, SinkCanBeRemoved) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 8);
  MeasureAccumulator acc(1);
  sim.add_sink(acc);
  sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write(r, 1);
    co_await ctx.write(r, 2);
  });
  sim.step(0);
  sim.remove_sink(acc);
  sim.step(0);
  EXPECT_EQ(acc.total(0).steps, 1);          // only the first access seen
  EXPECT_EQ(sim.trace().access_count(), 2u);  // the trace saw both
}

}  // namespace
}  // namespace cfc
