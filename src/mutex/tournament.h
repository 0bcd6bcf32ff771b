#ifndef CFC_MUTEX_TOURNAMENT_H
#define CFC_MUTEX_TOURNAMENT_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mutex/mutex_algorithm.h"

namespace cfc {

/// Factory for a two-process node algorithm used inside a tournament tree.
using NodeFactory = std::function<std::unique_ptr<MutexAlgorithm>(
    RegisterFile& mem, const std::string& tag)>;

/// Binary tournament-tree mutual exclusion (Peterson & Fischer [PF77]):
/// a complete binary tree whose internal nodes are independent two-process
/// mutex instances. Process i starts at leaf i and climbs to the root,
/// competing at each node as the representative of its subtree (side = the
/// corresponding bit of i); it holds the critical section when it wins the
/// root. Exit releases the nodes along the path.
///
/// With Kessels nodes this is the paper's O(log n) worst-case register
/// complexity algorithm at atomicity 1 [Kes82]; with Peterson nodes it is
/// the classic [PF77] tournament. Contention-free complexities are
/// depth * (node contention-free complexity), depth = ceil(log2 n).
/// Order in which a process releases its path's nodes on exit.
enum class ReleaseOrder : std::uint8_t {
  /// Reverse acquisition order (safe for any node algorithm; the default).
  RootToLeaf,
  /// The paper's Theorem 3 phrasing. UNSAFE for Peterson/Kessels nodes
  /// (and for Lamport nodes, see LamportTree::exit): kept selectable so
  /// the test suite can demonstrate the violation.
  LeafToRoot,
};

class TournamentMutex final : public MutexAlgorithm {
 public:
  /// Builds a tree for up to n processes with the given node algorithm.
  TournamentMutex(RegisterFile& mem, int n, const NodeFactory& node_factory,
                  std::string node_kind, const std::string& tag = "tree",
                  ReleaseOrder release_order = ReleaseOrder::RootToLeaf);

  Task<void> enter(ProcessContext& ctx, int slot) override;
  Task<void> exit(ProcessContext& ctx, int slot) override;
  Task<Value> try_enter(ProcessContext& ctx, int slot,
                        RegId abort_bit) override;

  [[nodiscard]] int capacity() const override { return n_; }
  [[nodiscard]] int atomicity() const override { return atomicity_; }
  [[nodiscard]] std::string algorithm_name() const override;

  /// Number of levels a process traverses: ceil(log2(max(n, 2))).
  [[nodiscard]] int depth() const { return depth_; }

  [[nodiscard]] static MutexFactory peterson_tree(
      ReleaseOrder release_order = ReleaseOrder::RootToLeaf);
  [[nodiscard]] static MutexFactory kessels_tree(
      ReleaseOrder release_order = ReleaseOrder::RootToLeaf);

 private:
  /// Heap-indexed internal node (1 = root, children 2v and 2v+1).
  struct PathStep {
    MutexAlgorithm* node = nullptr;
    int side = 0;
  };

  /// The nodes process `slot` plays, bottom-up (deepest first).
  [[nodiscard]] std::vector<PathStep> path_of(int slot) const;

  int n_;
  int depth_;
  int leaves_;
  int atomicity_ = 1;
  std::string node_kind_;
  ReleaseOrder release_order_;
  std::vector<std::unique_ptr<MutexAlgorithm>> nodes_;  // 1..leaves_-1
};

}  // namespace cfc

#endif  // CFC_MUTEX_TOURNAMENT_H
