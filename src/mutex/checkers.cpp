#include "mutex/checkers.h"

#include "core/adversary.h"
#include "sched/sched.h"

namespace cfc {

bool deadlock_free_under_fair_schedules(const MutexFactory& make, int n,
                                        int sessions,
                                        const std::vector<std::uint64_t>& seeds,
                                        std::uint64_t budget) {
  // One run: `prefix` picks of a RandomScheduler(seed), then `finish`,
  // which must bring every process to completion within the budget.
  const auto finishes = [&](std::uint64_t seed, std::uint64_t prefix,
                            Scheduler& finish) {
    Sim sim;
    auto alg = setup_mutex(sim, make, n, sessions);
    RandomScheduler rnd(seed);
    drive(sim, rnd, RunLimits{prefix});
    return drive(sim, finish, RunLimits{budget}) == RunOutcome::AllDone;
  };
  RoundRobinScheduler rr;
  if (!finishes(0, 0, rr)) {
    return false;
  }
  for (const std::uint64_t seed : seeds) {
    RandomScheduler rnd(seed);
    RoundRobinScheduler after_prefix;
    if (!finishes(seed, 0, rnd) ||
        !finishes(seed, seed % 25, after_prefix)) {
      return false;
    }
  }
  return true;
}

bool completes_solo_sessions(const MutexFactory& make, int n,
                             std::uint64_t budget) {
  Sim sim;
  auto alg = setup_mutex(sim, make, n, 1);
  return run_sequentially(sim, budget);
}

}  // namespace cfc
