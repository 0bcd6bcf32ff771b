#include "mutex/tournament.h"

#include <algorithm>
#include <stdexcept>

#include "mutex/kessels.h"
#include "mutex/peterson.h"

#include "core/algorithm_registry.h"

namespace cfc {

TournamentMutex::TournamentMutex(RegisterFile& mem, int n,
                                 const NodeFactory& node_factory,
                                 std::string node_kind, const std::string& tag,
                                 ReleaseOrder release_order)
    : n_(n), node_kind_(std::move(node_kind)), release_order_(release_order) {
  if (n < 1) {
    throw std::invalid_argument("TournamentMutex needs n >= 1");
  }
  leaves_ = 1;
  depth_ = 0;
  while (leaves_ < std::max(n, 2)) {
    leaves_ *= 2;
    depth_ += 1;
  }
  // Heap layout: internal nodes 1..leaves_-1; index 0 unused.
  nodes_.resize(static_cast<std::size_t>(leaves_));
  for (int v = 1; v < leaves_; ++v) {
    nodes_[static_cast<std::size_t>(v)] =
        node_factory(mem, tag + ".n" + std::to_string(v));
    atomicity_ = std::max(atomicity_,
                          nodes_[static_cast<std::size_t>(v)]->atomicity());
  }
}

std::vector<TournamentMutex::PathStep> TournamentMutex::path_of(
    int slot) const {
  if (slot < 0 || slot >= n_) {
    throw std::invalid_argument("tournament slot out of range");
  }
  std::vector<PathStep> path;
  path.reserve(static_cast<std::size_t>(depth_));
  int v = leaves_ + slot;  // leaf in heap coordinates
  while (v > 1) {
    PathStep step;
    step.side = v & 1;
    step.node = nodes_[static_cast<std::size_t>(v / 2)].get();
    path.push_back(step);
    v /= 2;
  }
  return path;
}

Task<void> TournamentMutex::enter(ProcessContext& ctx, int slot) {
  // Climb leaf -> root, acquiring each node as this subtree's champion.
  for (const PathStep& step : path_of(slot)) {
    co_await step.node->enter(ctx, step.side);
  }
}

Task<Value> TournamentMutex::try_enter(ProcessContext& ctx, int slot,
                                       RegId abort_bit) {
  const std::vector<PathStep> path = path_of(slot);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Value ok = co_await path[i].node->try_enter(ctx, path[i].side,
                                                      abort_bit);
    if (ok == 0) {
      // Back out of the nodes already held, deepest-release-last.
      for (std::size_t j = i; j > 0; --j) {
        co_await path[j - 1].node->exit(ctx, path[j - 1].side);
      }
      co_return 0;
    }
  }
  co_return 1;
}

Task<void> TournamentMutex::exit(ProcessContext& ctx, int slot) {
  // Release root -> leaf (reverse acquisition order). The paper's Theorem 3
  // phrasing ("execute the exit code in all the nodes in its path from the
  // leaf to the root") is UNSAFE for Peterson/Kessels nodes: once the leaf
  // node is released, a same-subtree successor can reach an upper node and
  // raise the shared side's intent flag, which the exiting process's later
  // release of that node then erases — admitting two winners. It is unsafe
  // for Lamport nodes too (LamportTree::exit releases root -> leaf for the
  // same reason: the successor enters the upper node under the exiting
  // process's local id). Seeded random schedules found both violations;
  // see the regression tests
  // TournamentExitOrder.LeafToRootIsUnsafeForPetersonNodes and
  // TournamentExitOrder.LamportTreeReleasesRootToLeaf.
  const std::vector<PathStep> path = path_of(slot);
  if (release_order_ == ReleaseOrder::LeafToRoot) {
    for (const PathStep& step : path) {
      co_await step.node->exit(ctx, step.side);
    }
    co_return;
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    co_await it->node->exit(ctx, it->side);
  }
}

std::string TournamentMutex::algorithm_name() const {
  return "tournament-" + node_kind_ + "(n=" + std::to_string(n_) + ")";
}

MutexFactory TournamentMutex::peterson_tree(ReleaseOrder release_order) {
  return [release_order](RegisterFile& mem, int n) {
    NodeFactory node = [](RegisterFile& m, const std::string& tag) {
      return std::make_unique<Peterson>(m, tag);
    };
    return std::make_unique<TournamentMutex>(mem, n, node, "peterson", "tree",
                                             release_order);
  };
}

MutexFactory TournamentMutex::kessels_tree(ReleaseOrder release_order) {
  return [release_order](RegisterFile& mem, int n) {
    NodeFactory node = [](RegisterFile& m, const std::string& tag) {
      return std::make_unique<Kessels>(m, tag);
    };
    return std::make_unique<TournamentMutex>(mem, n, node, "kessels", "tree",
                                             release_order);
  };
}

namespace {
const MutexRegistrar kPetersonTreeRegistrar{
    AlgorithmInfo::named("peterson-tree")
        .desc("binary tournament of Peterson nodes [PF77]: atomicity 1, "
              "4/3 contention-free constants per level")
        .tag("tournament")
        .tag("bit"),
    TournamentMutex::peterson_tree()};
const MutexRegistrar kKesselsTreeRegistrar{
    AlgorithmInfo::named("kessels-tree")
        .desc("binary tournament of Kessels arbiters [Kes82]: the paper's "
              "O(log n) worst-case register row at atomicity 1")
        .tag("tournament")
        .tag("bit"),
    TournamentMutex::kessels_tree()};
}  // namespace

}  // namespace cfc
