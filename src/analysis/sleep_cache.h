#ifndef CFC_ANALYSIS_SLEEP_CACHE_H
#define CFC_ANALYSIS_SLEEP_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfc {

/// The visited cache of the source-DPOR search (the unreduced search's is
/// VisitedKeys, below).
///
/// Maps a state key (state fingerprint x objective digest — the mask is
/// NOT folded into the key) to the antichain of masks the state was
/// already explored under. The mask is the visit's sleep set. The
/// subsumption rule: a stored visit with sleep set S covers a new visit
/// with sleep set S' iff S is a subset of S' — under *stateful*
/// source-DPOR the stored subtree explored every branch outside S, a
/// superset of the branches outside S', and leaf objectives
/// are monotone, so every value the new visit could certify was already
/// merged by the stored one. Depth needs no explicit dimension: process
/// digests fold the full per-process unit history, so equal fingerprints
/// imply equal schedule length (equal remaining depth budget)
/// automatically.
///
/// Open addressing over a power-of-two slot array, two inline masks per
/// key, longer antichains spilled into nodes of one vector, linked by
/// index and recycled through a free list. One lookup is one hash, a
/// handful of contiguous probes, and zero allocation steady-state. clear()
/// keeps every reservation (slot array, node vector) so a worker reuses one
/// cache across the work items it claims. Each item starts from an empty
/// cache, so what it prunes never depends on which items its worker ran
/// before; the unreduced search shares visits across items only through the
/// wave-frozen VisitedKeys table (analysis/explorer.cpp), which keeps every
/// counter thread-count invariant.
class SleepCache {
 public:
  SleepCache() = default;

  /// True iff a stored visit of `key` subsumes a visit under `sleep`
  /// (some stored mask is a subset of `sleep`).
  [[nodiscard]] bool subsumed(std::uint64_t key, std::uint32_t sleep) const;

  /// Records a visit of `key` under `sleep`, dropping stored supersets
  /// (they are subsumed by the new, wider exploration).
  void insert(std::uint64_t key, std::uint32_t sleep);

  /// subsumed() + insert() in one probe — the explorer's per-node call.
  bool check_and_insert(std::uint64_t key, std::uint32_t sleep);

  /// Drops every entry but keeps the reserved capacity (slot array and
  /// spill node vector) for reuse.
  void clear();

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const { return used_; }

  /// Bytes reserved (slot capacity + spill node capacity, free list
  /// included).
  [[nodiscard]] std::size_t bytes() const;

  /// Bytes of live entries (occupied slots + in-chain spill nodes).
  [[nodiscard]] std::size_t live_bytes() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;  ///< end of a chain

  struct SpillNode {
    std::uint32_t mask = 0;
    std::uint32_t next = kNil;  ///< index into spill_
  };

  struct Slot {
    std::uint64_t key = 0;  ///< 0 = empty (real key 0 is remapped)
    std::uint32_t inline_masks[2] = {0, 0};
    std::uint8_t inline_count = 0;  ///< masks are arbitrary: count, not
                                    ///< sentinel, marks the used slots
    std::uint32_t spill_head = kNil;  ///< index into spill_
  };

  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  void grow();
  void insert_into(Slot& slot, std::uint64_t key, std::uint32_t sleep);

  std::vector<Slot> slots_;
  std::vector<SpillNode> spill_;
  std::uint32_t spill_free_ = kNil;  ///< free list through SpillNode::next
  std::size_t spill_live_ = 0;
  std::size_t used_ = 0;
};

/// A set of state keys: the visited cache of the unreduced search, where
/// every sleep mask is 0, so a visit is its key alone — one 8-byte slot
/// instead of a 24-byte SleepCache slot. The explorer also shares one
/// across the unreduced search's work items (see Explorer::run). Open
/// addressing over a power-of-two slot array, at most 70% full.
class VisitedKeys {
 public:
  [[nodiscard]] bool contains(std::uint64_t key) const;

  /// Adds `key`; false when it was already stored.
  bool insert(std::uint64_t key);

  /// Drops every key but keeps the slot array for reuse.
  void clear();

  /// Grows the slot array once, straight to the size that holds `keys`
  /// keys with no further growth (a no-op when it already does).
  void reserve(std::size_t keys);

  /// Drops every key and frees the slot array.
  void release();

  /// Distinct keys stored.
  [[nodiscard]] std::size_t size() const { return used_; }

  /// Bytes reserved by the slot array.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(std::uint64_t);
  }

  /// Bytes of stored keys.
  [[nodiscard]] std::size_t live_bytes() const {
    return used_ * sizeof(std::uint64_t);
  }

  /// Appends every stored key except `except` to `out`, in slot order.
  void append_keys(std::vector<std::uint64_t>& out,
                   std::uint64_t except) const;

 private:
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  void rehash(std::size_t slot_count);

  std::vector<std::uint64_t> slots_;  ///< 0 = empty (key 0 is remapped)
  std::size_t used_ = 0;
};

}  // namespace cfc

#endif  // CFC_ANALYSIS_SLEEP_CACHE_H
