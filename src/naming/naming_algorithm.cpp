#include "naming/naming_algorithm.h"

#include <stdexcept>

namespace cfc {

Task<void> naming_driver(ProcessContext& ctx, NamingAlgorithm& alg) {
  ctx.set_section(Section::Working);
  const Value name = co_await alg.claim(ctx);
  ctx.set_output(static_cast<int>(name));
  ctx.set_section(Section::Done);
}

std::unique_ptr<NamingAlgorithm> setup_naming(Sim& sim,
                                              const NamingFactory& make,
                                              int n) {
  if (sim.process_count() != 0) {
    throw std::invalid_argument("setup_naming requires an empty sim");
  }
  std::unique_ptr<NamingAlgorithm> alg = make(sim.memory(), n);
  if (alg->capacity() < n) {
    throw std::invalid_argument("naming capacity below process count");
  }
  sim.set_model(alg->model());
  for (int i = 0; i < n; ++i) {
    NamingAlgorithm* a = alg.get();
    // Identical bodies: no slot/index reaches the algorithm.
    sim.spawn(std::string("n").append(std::to_string(i)),
              [a](ProcessContext& ctx) { return naming_driver(ctx, *a); });
  }
  return alg;
}

}  // namespace cfc
