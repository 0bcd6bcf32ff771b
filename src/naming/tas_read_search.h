#ifndef CFC_NAMING_TAS_READ_SEARCH_H
#define CFC_NAMING_TAS_READ_SEARCH_H

#include <vector>

#include "naming/naming_algorithm.h"

namespace cfc {

/// Theorem 4.4: naming with read + test-and-set — contention-free step
/// complexity log n (tight by Theorem 5). Its worst case is not n - 1:
/// exhaustive searches measured 5 steps at n=4 and 6 at n=5, which fits
/// ceil(log2(n-1)) + n - 1 (the binary-search reads, then the linear
/// test-and-set fallback). The read+tas Table 2 cell's worst-case n - 1
/// comes from TasScan, whose test-and-set-only model the read+tas model
/// contains.
///
/// Same n - 1 bit array as TasScan. A process first binary-searches (with
/// plain reads) for the least-numbered bit that still reads 0 — in a
/// contention-free (sequential) run the set bits form a prefix, so the
/// search is exact and costs ceil(log2(n-1)) reads. The final search step
/// is a test-and-set on the candidate; if it returns 1 (possible only under
/// contention, when the array is not a clean prefix), the process falls
/// back to the linear scan from that position.
class TasReadSearch final : public NamingAlgorithm {
 public:
  TasReadSearch(RegisterFile& mem, int n);

  Task<Value> claim(ProcessContext& ctx) override;
  [[nodiscard]] int capacity() const override { return n_; }
  [[nodiscard]] int name_space() const override { return n_; }
  [[nodiscard]] Model model() const override {
    return Model::read_test_and_set();
  }
  [[nodiscard]] std::string algorithm_name() const override {
    return "tas-read-search";
  }

  [[nodiscard]] static NamingFactory factory();

 private:
  int n_;
  std::vector<RegId> bits_;
};

}  // namespace cfc

#endif  // CFC_NAMING_TAS_READ_SEARCH_H
