#ifndef CFC_MUTEX_LAMPORT_TREE_H
#define CFC_MUTEX_LAMPORT_TREE_H

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mutex/lamport_fast.h"
#include "mutex/mutex_algorithm.h"

namespace cfc {

/// Arity policy for the Theorem 3 tree (see DESIGN.md, substitutions).
enum class TreeArity : std::uint8_t {
  /// Node arity 2^l - 1: every register is at most l bits wide, so the
  /// measured atomicity is exactly the advertised l. The depth (and with it
  /// the constants) can exceed ceil(log n / l) slightly for small l.
  ExactAtomicity,
  /// Node arity 2^l, the paper's literal construction: the depth is exactly
  /// ceil(log n / l) and the 7/3 constants match the theorem exactly, but
  /// Lamport's y register must hold 2^l ids plus "empty" and is therefore
  /// l+1 bits wide (the paper glosses this sentinel).
  PaperLiteral,
};

/// Theorem 3: a 2^l-ary tree of Lamport fast-mutex instances. For every
/// 1 <= l <= log n this yields a deadlock-free mutual exclusion algorithm
/// with atomicity ~l, contention-free step complexity 7*ceil(log n / l) and
/// contention-free register complexity 3*ceil(log n / l).
///
/// Process i enters at the leaf group floor(i / k) and climbs; it advances
/// a level each time it wins the Lamport instance it shares with its group,
/// holding the critical section when it wins the root. Exit executes the
/// exit code of every node on the path, root to leaf (reverse acquisition
/// order). The paper's leaf-to-root order is unsafe: after the leaf
/// release a same-group successor can enter an upper node under the
/// exiting process's local id before that process has exited it.
class LamportTree final : public MutexAlgorithm {
 public:
  LamportTree(RegisterFile& mem, int n, int l,
              TreeArity arity_policy = TreeArity::ExactAtomicity,
              const std::string& tag = "lamtree");

  Task<void> enter(ProcessContext& ctx, int slot) override;
  Task<void> exit(ProcessContext& ctx, int slot) override;
  Task<Value> try_enter(ProcessContext& ctx, int slot,
                        RegId abort_bit) override;

  [[nodiscard]] int capacity() const override { return n_; }
  [[nodiscard]] int atomicity() const override { return atomicity_; }
  [[nodiscard]] std::string algorithm_name() const override;

  /// Levels a process traverses.
  [[nodiscard]] int depth() const { return depth_; }
  /// Node arity k (2^l or 2^l - 1 depending on the policy).
  [[nodiscard]] int arity() const { return arity_; }

  [[nodiscard]] static MutexFactory factory(int l, TreeArity arity_policy =
                                                       TreeArity::ExactAtomicity);

 private:
  struct PathStep {
    MutexAlgorithm* node = nullptr;
    int local_id = 0;
  };

  [[nodiscard]] std::vector<PathStep> path_of(int slot) const;

  int n_;
  int l_;
  int arity_;
  int depth_;
  int atomicity_ = 1;
  TreeArity policy_;
  std::map<std::pair<int, int>, std::unique_ptr<LamportFast>> nodes_;
};

/// The paper's Theorem 3 algorithm for a requested atomicity l:
///  * l >= 2 — LamportTree with the chosen arity policy;
///  * l == 1 with ExactAtomicity — a Peterson tournament (all bits, 4/3
///    constants, still within Theorem 3's 7/3 bounds);
///  * l == 1 with PaperLiteral — a binary LamportTree (atomicity 2).
[[nodiscard]] MutexFactory theorem3_factory(
    int l, TreeArity arity_policy = TreeArity::ExactAtomicity);

}  // namespace cfc

#endif  // CFC_MUTEX_LAMPORT_TREE_H
