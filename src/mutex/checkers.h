#ifndef CFC_MUTEX_CHECKERS_H
#define CFC_MUTEX_CHECKERS_H

#include <cstdint>
#include <vector>

#include "mutex/mutex_algorithm.h"

namespace cfc {

/// Liveness under fair scheduling (deadlock freedom, and for these
/// algorithms starvation freedom in practice): every process completes all
/// its sessions under round-robin and under each seeded random schedule.
/// Each seed also drives one run of `seed % 25` random picks that
/// round-robin must then finish: fair scheduling completes from a
/// preempted state, not only from the initial one. `budget` bounds the
/// steps of every finishing run.
[[nodiscard]] bool deadlock_free_under_fair_schedules(
    const MutexFactory& make, int n, int sessions,
    const std::vector<std::uint64_t>& seeds,
    std::uint64_t budget = 1'000'000);

/// Runs every process through one contention-free session one after the
/// other and returns true iff all complete (weak deadlock freedom).
[[nodiscard]] bool completes_solo_sessions(const MutexFactory& make, int n,
                                           std::uint64_t budget = 100'000);

}  // namespace cfc

#endif  // CFC_MUTEX_CHECKERS_H
