#include "analysis/sleep_cache.h"

#include <algorithm>
#include <utility>

namespace cfc {

namespace {

constexpr std::size_t kInitialCapacity = 64;  // power of two

/// Key 0 marks an empty slot; remap the (astronomically unlikely)
/// fingerprint 0 to a fixed constant.
constexpr std::uint64_t normalize_key(std::uint64_t key) {
  return key == 0 ? 0x9e3779b97f4a7c15ULL : key;
}

/// The home slot of a normalized key in a power-of-two table.
constexpr std::size_t home_slot(std::uint64_t key, std::size_t slots) {
  return (key * 0x9e3779b97f4a7c15ULL) & (slots - 1);
}

/// True when one more key would push `used` keys in `slots` slots past 70%.
constexpr bool needs_growth(std::size_t used, std::size_t slots) {
  return slots == 0 || used * 10 >= slots * 7;
}

}  // namespace

std::size_t SleepCache::find_slot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(key, slots_.size());
  while (slots_[i].key != 0 && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void SleepCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Slot{});
  for (const Slot& s : old) {
    if (s.key != 0) {
      // Spill chains move with the slot: node indices survive rehash.
      slots_[find_slot(s.key)] = s;
    }
  }
}

bool SleepCache::subsumed(std::uint64_t raw_key, std::uint32_t sleep) const {
  if (slots_.empty()) {
    return false;
  }
  const std::uint64_t key = normalize_key(raw_key);
  const Slot& slot = slots_[find_slot(key)];
  if (slot.key != key) {
    return false;
  }
  for (std::uint8_t i = 0; i < slot.inline_count; ++i) {
    if ((slot.inline_masks[i] & ~sleep) == 0) {
      return true;
    }
  }
  for (std::uint32_t n = slot.spill_head; n != kNil; n = spill_[n].next) {
    if ((spill_[n].mask & ~sleep) == 0) {
      return true;
    }
  }
  return false;
}

void SleepCache::insert(std::uint64_t raw_key, std::uint32_t sleep) {
  if (needs_growth(used_, slots_.size())) {
    grow();
  }
  const std::uint64_t key = normalize_key(raw_key);
  insert_into(slots_[find_slot(key)], key, sleep);
}

bool SleepCache::check_and_insert(std::uint64_t raw_key,
                                  std::uint32_t sleep) {
  if (needs_growth(used_, slots_.size())) {
    grow();
  }
  const std::uint64_t key = normalize_key(raw_key);
  Slot& slot = slots_[find_slot(key)];
  if (slot.key == key) {
    for (std::uint8_t i = 0; i < slot.inline_count; ++i) {
      if ((slot.inline_masks[i] & ~sleep) == 0) {
        return true;
      }
    }
    for (std::uint32_t n = slot.spill_head; n != kNil; n = spill_[n].next) {
      if ((spill_[n].mask & ~sleep) == 0) {
        return true;
      }
    }
  }
  insert_into(slot, key, sleep);
  return false;
}

void SleepCache::insert_into(Slot& slot, std::uint64_t key,
                             std::uint32_t sleep) {
  if (slot.key == 0) {
    slot.key = key;
    ++used_;
  }

  // Drop stored supersets of the new mask: the new visit explores at
  // least every branch they did, so the antichain stays minimal.
  std::uint8_t kept = 0;
  for (std::uint8_t i = 0; i < slot.inline_count; ++i) {
    if ((sleep & ~slot.inline_masks[i]) != 0) {
      slot.inline_masks[kept++] = slot.inline_masks[i];
    }
  }
  slot.inline_count = kept;
  std::uint32_t* link = &slot.spill_head;
  while (*link != kNil) {
    const std::uint32_t n = *link;
    if ((sleep & ~spill_[n].mask) == 0) {
      *link = spill_[n].next;
      spill_[n].next = spill_free_;
      spill_free_ = n;
      --spill_live_;
    } else {
      link = &spill_[n].next;
    }
  }

  if (slot.inline_count < 2) {
    slot.inline_masks[slot.inline_count++] = sleep;
    return;
  }
  std::uint32_t n;
  if (spill_free_ != kNil) {
    n = spill_free_;
    spill_free_ = spill_[n].next;
  } else {
    n = static_cast<std::uint32_t>(spill_.size());
    spill_.emplace_back();
  }
  spill_[n] = SpillNode{sleep, slot.spill_head};
  slot.spill_head = n;
  ++spill_live_;
}

void SleepCache::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  spill_.clear();
  spill_free_ = kNil;
  spill_live_ = 0;
  used_ = 0;
}

std::size_t SleepCache::bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         spill_.capacity() * sizeof(SpillNode);
}

std::size_t SleepCache::live_bytes() const {
  return used_ * sizeof(Slot) + spill_live_ * sizeof(SpillNode);
}

std::size_t VisitedKeys::find_slot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(key, slots_.size());
  while (slots_[i] != 0 && slots_[i] != key) {
    i = (i + 1) & mask;
  }
  return i;
}

bool VisitedKeys::contains(std::uint64_t raw_key) const {
  if (slots_.empty()) {
    return false;
  }
  const std::uint64_t key = normalize_key(raw_key);
  return slots_[find_slot(key)] == key;
}

void VisitedKeys::rehash(std::size_t slot_count) {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(slot_count, 0);
  for (const std::uint64_t k : old) {
    if (k != 0) {
      slots_[find_slot(k)] = k;
    }
  }
}

bool VisitedKeys::insert(std::uint64_t raw_key) {
  if (needs_growth(used_, slots_.size())) {
    rehash(slots_.empty() ? kInitialCapacity : slots_.size() * 2);
  }
  const std::uint64_t key = normalize_key(raw_key);
  std::uint64_t& slot = slots_[find_slot(key)];
  if (slot != 0) {
    return false;
  }
  slot = key;
  ++used_;
  return true;
}

void VisitedKeys::clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  used_ = 0;
}

void VisitedKeys::reserve(std::size_t keys) {
  if (keys == 0) {
    return;
  }
  // insert grows when the keys already stored reach the load limit, so the
  // last of `keys` inserts sees keys - 1 stored: double until that fits,
  // landing on the size insert's own doubling would reach.
  std::size_t slot_count = slots_.empty() ? kInitialCapacity : slots_.size();
  while (needs_growth(keys - 1, slot_count)) {
    slot_count *= 2;
  }
  if (slot_count != slots_.size()) {
    rehash(slot_count);
  }
}

void VisitedKeys::release() {
  std::vector<std::uint64_t>().swap(slots_);
  used_ = 0;
}

void VisitedKeys::append_keys(std::vector<std::uint64_t>& out,
                              std::uint64_t except) const {
  const std::uint64_t skip = normalize_key(except);
  for (const std::uint64_t k : slots_) {
    if (k != 0 && k != skip) {
      out.push_back(k);
    }
  }
}

}  // namespace cfc
