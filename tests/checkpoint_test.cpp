// Checkpoint/fork fidelity: a simulation forked mid-schedule must be
// indistinguishable from a from-scratch replay of the same schedule —
// including crash injection and multi-grain field writes — and the
// incremental memory fingerprint must agree with a freshly recomputed one.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/state_fingerprint.h"
#include "mutex/mutex_algorithm.h"
#include "sched/sched.h"

namespace cfc {
namespace {

struct CrashPlan {
  Pid pid;
  std::uint64_t after_accesses;
};

/// A deterministic rebuild callback for a mutex configuration with crash
/// injection; `keep` holds every built algorithm alive for the sims' sake.
SimBuilder mutex_builder(const MutexFactory& factory, int n, int sessions,
                         std::vector<CrashPlan> crashes) {
  auto keep =
      std::make_shared<std::vector<std::unique_ptr<MutexAlgorithm>>>();
  return [factory, n, sessions, crashes, keep](Sim& sim) {
    keep->push_back(setup_mutex(sim, factory, n, sessions));
    for (const CrashPlan& c : crashes) {
      sim.crash_after(c.pid, c.after_accesses);
    }
  };
}

/// From-scratch reference replay: applies a schedule log unit by unit to a
/// freshly built simulation (with sinks and invariant checks fully live).
void apply_units(Sim& sim, const std::vector<SimCheckpoint::Unit>& units) {
  for (const SimCheckpoint::Unit& u : units) {
    if (u.start_only) {
      sim.ensure_started(u.pid);
    } else {
      sim.step(u.pid);
    }
  }
}

void expect_same_state(const Sim& a, const Sim& b) {
  ASSERT_EQ(a.process_count(), b.process_count());
  EXPECT_EQ(a.next_seq(), b.next_seq());
  EXPECT_EQ(a.memory().fingerprint(), b.memory().fingerprint());
  EXPECT_EQ(a.memory().snapshot(), b.memory().snapshot());
  EXPECT_EQ(state_fingerprint(a), state_fingerprint(b));
  for (Pid p = 0; p < a.process_count(); ++p) {
    EXPECT_EQ(a.status(p), b.status(p)) << "pid " << p;
    EXPECT_EQ(a.section(p), b.section(p)) << "pid " << p;
    EXPECT_EQ(a.output(p), b.output(p)) << "pid " << p;
    EXPECT_EQ(a.access_count(p), b.access_count(p)) << "pid " << p;
    EXPECT_EQ(a.process_digest(p), b.process_digest(p)) << "pid " << p;
  }
}

/// The satellite scenario: run a prefix, checkpoint, diverge two branches
/// from the same checkpoint, and differential-test each branch against a
/// from-scratch replay of its full schedule log.
void fork_and_diverge(const MutexFactory& factory, int n, int sessions,
                      const std::vector<CrashPlan>& crashes,
                      std::uint64_t prefix_seed) {
  const SimBuilder rebuild = mutex_builder(factory, n, sessions, crashes);

  Sim original;
  rebuild(original);
  RandomScheduler prefix_rnd(prefix_seed);
  drive(original, prefix_rnd, RunLimits{40});
  const SimCheckpoint cp = original.checkpoint();

  for (const std::uint64_t branch_seed : {prefix_seed + 100, prefix_seed + 200}) {
    std::unique_ptr<Sim> branch = Sim::fork(cp, rebuild);
    RandomScheduler branch_rnd(branch_seed);
    drive(*branch, branch_rnd, RunLimits{60});

    Sim scratch;
    rebuild(scratch);
    apply_units(scratch, branch->schedule_log());
    expect_same_state(*branch, scratch);
  }
}

TEST(Checkpoint, ForkAndDivergeMatchesScratchReplay) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("thm3-exact-l2").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fork_and_diverge(factory, 4, 2, {}, seed);
  }
}

TEST(Checkpoint, ForkFidelityUnderCrashInjection) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-fast").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fork_and_diverge(factory, 4, 2, {{0, seed % 5}, {2, 1 + seed % 3}},
                     seed);
  }
}

TEST(Checkpoint, ForkFidelityWithMultiGrainFieldWrites) {
  // lamport-packed stores several logical registers in one word via
  // write_field: sub-word stores must fingerprint and replay exactly.
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("lamport-packed").factory;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fork_and_diverge(factory, 4, 2, {{1, 2 + seed % 4}}, seed);
  }
}

TEST(Checkpoint, ForkVerifiesMemoryFingerprint) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const SimBuilder rebuild = mutex_builder(factory, 2, 1, {});
  Sim sim;
  rebuild(sim);
  RandomScheduler rnd(7);
  drive(sim, rnd, RunLimits{10});
  SimCheckpoint cp = sim.checkpoint();
  cp.memory_fingerprint ^= 1;  // corrupt: replay must refuse
  EXPECT_THROW((void)Sim::fork(cp, rebuild), std::logic_error);
}

TEST(Checkpoint, ForkSuppressesSinksDuringReplayThenReattaches) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  const SimBuilder rebuild = mutex_builder(factory, 2, 1, {});
  Sim sim;
  rebuild(sim);
  RandomScheduler rnd(3);
  drive(sim, rnd, RunLimits{8});
  const Seq at_fork = sim.next_seq();

  std::unique_ptr<Sim> forked = Sim::fork(sim.checkpoint(), rebuild);
  EXPECT_TRUE(forked->trace().empty());  // the prefix is not re-materialized
  EXPECT_EQ(forked->next_seq(), at_fork);

  TraceRecorder post;
  forked->add_sink(post);
  RandomScheduler cont(4);
  drive(*forked, cont, RunLimits{5});
  // The re-attached sink sees exactly the post-fork events, numbered
  // continuously after the prefix.
  ASSERT_FALSE(post.trace().empty());
  EXPECT_GE(post.trace().events().front().seq, at_fork);
}

TEST(Checkpoint, ForkThenDriveResumesIdenticallyToUninterruptedRun) {
  const MutexFactory factory =
      AlgorithmRegistry::instance().mutex("kessels-tree").factory;
  const SimBuilder rebuild = mutex_builder(factory, 4, 1, {});

  Sim uninterrupted;
  rebuild(uninterrupted);
  RandomScheduler rnd_full(42);
  const RunOutcome full = drive(uninterrupted, rnd_full, RunLimits{100});

  Sim first_half;
  rebuild(first_half);
  RandomScheduler rnd_split(42);
  drive(first_half, rnd_split, RunLimits{40});
  const std::unique_ptr<Sim> resumed =
      Sim::fork(first_half.checkpoint(), rebuild);
  // The same scheduler object continues: it only observes runnability,
  // which the fork reproduces, so the pick stream is unchanged.
  const RunOutcome rest = drive(*resumed, rnd_split, RunLimits{60});
  EXPECT_EQ(full, rest);
  expect_same_state(uninterrupted, *resumed);
}

}  // namespace
}  // namespace cfc
