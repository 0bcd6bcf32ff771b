// Multi-grain memory access (Section 1.3 / [MS93]): sub-word field stores
// in the simulator, and the packed Lamport variant built on them.
#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "mutex/lamport_fast.h"
#include "mutex/lamport_packed.h"
#include "sched/sched.h"

namespace cfc {
namespace {

TEST(FieldStore, WritesOnlyTheField) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16, 0xABCD);
  const Pid p = sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write_field(r, 4, 8, 0xEF);  // bits [4,12)
  });
  run_to_completion(sim, p);
  EXPECT_EQ(sim.memory().peek(r), 0xAEFDu);
}

TEST(FieldStore, FullWidthFieldEqualsPlainWrite) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 8, 0xFF);
  const Pid p = sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write_field(r, 0, 8, 0x12);
  });
  run_to_completion(sim, p);
  EXPECT_EQ(sim.memory().peek(r), 0x12u);
}

TEST(FieldStore, CountsAsOneStep) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 16);
  const Pid p = sim.spawn("p", [r](ProcessContext& ctx) -> Task<void> {
    co_await ctx.write_field(r, 0, 8, 1);
    co_await ctx.write_field(r, 8, 8, 2);
  });
  run_to_completion(sim, p);
  EXPECT_EQ(sim.access_count(p), 2u);
  EXPECT_EQ(sim.memory().peek(r), 0x0201u);
  const auto accs = sim.trace().accesses_of(p);
  ASSERT_EQ(accs.size(), 2u);
  EXPECT_TRUE(accs[0].is_write());
  EXPECT_FALSE(accs[0].is_read());
}

TEST(FieldStore, BoundsChecked) {
  Sim sim;
  const RegId r = sim.memory().add_register("r", 8);
  {
    const Pid p = sim.spawn("p1", [r](ProcessContext& ctx) -> Task<void> {
      co_await ctx.write_field(r, 4, 8, 1);  // [4,12) exceeds width 8
    });
    EXPECT_THROW(sim.step(p), std::invalid_argument);
  }
  {
    const Pid p = sim.spawn("p2", [r](ProcessContext& ctx) -> Task<void> {
      co_await ctx.write_field(r, 0, 4, 16);  // 16 needs 5 bits
    });
    EXPECT_THROW(sim.step(p), std::invalid_argument);
  }
}

TEST(FieldStore, InterleavedFieldsDoNotClobberEachOther) {
  // Two processes each own half of a word; arbitrary interleavings of
  // their field stores never lose updates (the atomicity guarantee that
  // makes packing sound).
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Sim sim;
    const RegId r = sim.memory().add_register("r", 16);
    auto writer = [r](int shift) {
      return [r, shift](ProcessContext& ctx) -> Task<void> {
        for (Value v = 1; v <= 5; ++v) {
          co_await ctx.write_field(r, shift, 8, v);
        }
      };
    };
    sim.spawn("lo", writer(0));
    sim.spawn("hi", writer(8));
    RandomScheduler rnd(seed);
    drive(sim, rnd);
    EXPECT_EQ(sim.memory().peek(r), 0x0505u) << "seed " << seed;
  }
}

// --- LamportPacked: the paper's 7 steps over only 2 registers. ---

TEST(LamportPacked, ContentionFreeSevenStepsTwoRegisters) {
  for (int n : {1, 2, 8, 64, 1000}) {
    const MutexCfResult r = measure_mutex_contention_free(
        LamportPacked::factory(), n, AccessPolicy::RegistersOnly,
        /*max_pids=*/6);
    EXPECT_EQ(r.session.steps, 7) << "n=" << n;
    EXPECT_EQ(r.session.registers, 2) << "n=" << n;
    EXPECT_EQ(r.entry.steps, 5) << "n=" << n;
    EXPECT_EQ(r.exit.steps, 2) << "n=" << n;
  }
}

TEST(LamportPacked, AtomicityIsDoubled) {
  for (int n : {3, 8, 100}) {
    const MutexCfResult packed = measure_mutex_contention_free(
        LamportPacked::factory(), n, AccessPolicy::Unrestricted,
        /*max_pids=*/2);
    const MutexCfResult plain = measure_mutex_contention_free(
        LamportFast::factory(), n, AccessPolicy::Unrestricted,
        /*max_pids=*/2);
    EXPECT_EQ(packed.measured_atomicity, 2 * plain.measured_atomicity);
  }
}

// Cross-check: the packed and unpacked variants make identical scheduling
// decisions in solo runs (same step count at every point).
TEST(LamportPacked, SoloTraceShapeMatchesUnpacked) {
  Sim packed_sim;
  auto packed = setup_mutex(packed_sim, LamportPacked::factory(), 8, 1);
  SoloScheduler solo_p(2);
  drive(packed_sim, solo_p);

  Sim plain_sim;
  auto plain = setup_mutex(plain_sim, LamportFast::factory(), 8, 1);
  SoloScheduler solo_q(2);
  drive(plain_sim, solo_q);

  const auto a = packed_sim.trace().accesses_of(2);
  const auto b = plain_sim.trace().accesses_of(2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].is_write(), b[i].is_write()) << "access " << i;
  }
}

}  // namespace
}  // namespace cfc
