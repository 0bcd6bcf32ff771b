#include "mutex/lamport_tree.h"

#include <algorithm>
#include <stdexcept>

#include "mutex/tournament.h"

#include "core/algorithm_registry.h"

namespace cfc {

LamportTree::LamportTree(RegisterFile& mem, int n, int l,
                         TreeArity arity_policy, const std::string& tag)
    : n_(n), l_(l), policy_(arity_policy) {
  if (n < 1) {
    throw std::invalid_argument("LamportTree needs n >= 1");
  }
  if (l < 1 || l > 30) {
    throw std::invalid_argument("LamportTree atomicity out of range");
  }
  arity_ = (policy_ == TreeArity::PaperLiteral) ? (1 << l) : ((1 << l) - 1);
  if (arity_ < 2) {
    throw std::invalid_argument(
        "LamportTree arity below 2; use theorem3_factory for l = 1");
  }
  // Depth: smallest D with arity^D >= max(n, 2).
  depth_ = 0;
  std::uint64_t span = 1;
  while (span < static_cast<std::uint64_t>(std::max(n_, 2))) {
    span *= static_cast<std::uint64_t>(arity_);
    depth_ += 1;
  }
  // Allocate the nodes on any process's path: node (level, group).
  for (int slot = 0; slot < n_; ++slot) {
    int contender = slot;
    for (int level = 0; level < depth_; ++level) {
      const int group = contender / arity_;
      const auto key = std::make_pair(level, group);
      if (nodes_.count(key) == 0) {
        const std::string node_tag = tag + ".L" + std::to_string(level) +
                                     "." + std::to_string(group);
        nodes_.emplace(key,
                       std::make_unique<LamportFast>(mem, arity_, node_tag));
      }
      contender = group;
    }
  }
  for (const auto& [key, node] : nodes_) {
    atomicity_ = std::max(atomicity_, node->atomicity());
  }
}

std::vector<LamportTree::PathStep> LamportTree::path_of(int slot) const {
  if (slot < 0 || slot >= n_) {
    throw std::invalid_argument("LamportTree slot out of range");
  }
  std::vector<PathStep> path;
  path.reserve(static_cast<std::size_t>(depth_));
  int contender = slot;
  for (int level = 0; level < depth_; ++level) {
    const int group = contender / arity_;
    PathStep step;
    step.node = nodes_.at({level, group}).get();
    step.local_id = contender % arity_;
    path.push_back(step);
    contender = group;
  }
  return path;
}

Task<void> LamportTree::enter(ProcessContext& ctx, int slot) {
  for (const PathStep& step : path_of(slot)) {
    co_await step.node->enter(ctx, step.local_id);
  }
}

Task<Value> LamportTree::try_enter(ProcessContext& ctx, int slot,
                                   RegId abort_bit) {
  const std::vector<PathStep> path = path_of(slot);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Value ok =
        co_await path[i].node->try_enter(ctx, path[i].local_id, abort_bit);
    if (ok == 0) {
      for (std::size_t j = i; j > 0; --j) {
        co_await path[j - 1].node->exit(ctx, path[j - 1].local_id);
      }
      co_return 0;
    }
  }
  co_return 1;
}

Task<void> LamportTree::exit(ProcessContext& ctx, int slot) {
  // Release root -> leaf (reverse acquisition order), like
  // TournamentMutex. The paper's leaf-to-root phrasing is unsafe here
  // too: once the leaf node is released, a same-group successor can win
  // it and enter an upper Lamport node under the SAME local id as the
  // exiting process, which has not yet run its exit code there. Random
  // schedules at n=16 and n=64 find the double critical section
  // (TournamentExitOrder.LamportTreeReleasesRootToLeaf).
  const std::vector<PathStep> path = path_of(slot);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    co_await it->node->exit(ctx, it->local_id);
  }
}

std::string LamportTree::algorithm_name() const {
  const char* mode =
      (policy_ == TreeArity::PaperLiteral) ? "paper" : "exact-l";
  return "lamport-tree(l=" + std::to_string(l_) + "," + mode + ")";
}

MutexFactory LamportTree::factory(int l, TreeArity arity_policy) {
  return [l, arity_policy](RegisterFile& mem, int n) {
    return std::make_unique<LamportTree>(mem, n, l, arity_policy);
  };
}

MutexFactory theorem3_factory(int l, TreeArity arity_policy) {
  if (l < 1) {
    throw std::invalid_argument("atomicity must be >= 1");
  }
  if (l == 1 && arity_policy == TreeArity::ExactAtomicity) {
    // A bits-only binary tournament: 4 entry+exit accesses and 3 registers
    // per level, within Theorem 3's 7/3 bounds at atomicity exactly 1.
    return TournamentMutex::peterson_tree();
  }
  return LamportTree::factory(l, arity_policy);
}

namespace {
/// Registers the Theorem 3 family at every atomicity 1 <= l <= 8, in both
/// arity policies, so benches can enumerate the (l, policy) grid from the
/// registry instead of hard-coding it.
const struct Theorem3Registrar {
  Theorem3Registrar() {
    for (int l = 1; l <= 8; ++l) {
      AlgorithmRegistry::instance().add_mutex(
          AlgorithmInfo::named("thm3-paper-l" + std::to_string(l))
              .desc("Theorem 3 tree, paper-literal arity 2^l at l=" +
                    std::to_string(l) +
                    ": cf complexity exactly 7/3 * ceil(log n / l)")
              .atomicity(l)
              .tag("thm3")
              .tag("thm3-paper"),
          theorem3_factory(l, TreeArity::PaperLiteral));
      AlgorithmRegistry::instance().add_mutex(
          AlgorithmInfo::named("thm3-exact-l" + std::to_string(l))
              .desc("Theorem 3 tree, arity 2^l - 1 at l=" +
                    std::to_string(l) + ": measured atomicity exactly l")
              .atomicity(l)
              .tag("thm3")
              .tag("thm3-exact"),
          theorem3_factory(l, TreeArity::ExactAtomicity));
    }
  }
} kTheorem3Registrar;
}  // namespace

}  // namespace cfc
