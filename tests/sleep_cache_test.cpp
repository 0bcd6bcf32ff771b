// SleepCache correctness against map-based oracles: the flat
// open-addressing cache with inline/spilled antichain masks must answer
// every subsumed() query exactly like a straightforward
// unordered_map<key, vector<mask>>, across random workloads, key
// collisions on probe chains, inline overflow into the spill pool, and
// growth/rehash — on sleep masks up to the full 32-bit width. VisitedKeys,
// the mask-free key set of the unreduced search, against a std::set,
// through growth, reserve, clear and release.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/sleep_cache.h"

namespace cfc {
namespace {

/// Reference semantics for the sleep-set-aware cache: a stored mask m
/// subsumes a visit under `sleep` iff m ⊆ sleep; inserting drops stored
/// supersets of the new mask (the new, wider exploration covers them).
class SleepOracle {
 public:
  [[nodiscard]] bool subsumed(std::uint64_t key, std::uint32_t sleep) const {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    for (const std::uint32_t m : it->second) {
      if ((m & ~sleep) == 0) {
        return true;
      }
    }
    return false;
  }

  void insert(std::uint64_t key, std::uint32_t sleep) {
    std::vector<std::uint32_t>& v = map_[key];
    std::erase_if(v,
                  [&](std::uint32_t m) { return (sleep & ~m) == 0; });
    v.push_back(sleep);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> map_;
};

TEST(SleepCache, MatchesOracleOnRandomWorkload) {
  std::mt19937_64 rng(42);
  SleepCache cache;
  SleepOracle oracle;
  // Few distinct keys and narrow 8-bit masks: subset/superset relations
  // are frequent, so the antichain maintenance is exercised hard.
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 199);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, 255);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = key_dist(rng) * 0x100000001b3ULL;
    const std::uint32_t sleep = mask_dist(rng);
    ASSERT_EQ(cache.subsumed(key, sleep), oracle.subsumed(key, sleep))
        << "key " << key << " sleep " << sleep;
    if (!cache.subsumed(key, sleep)) {
      cache.insert(key, sleep);
      oracle.insert(key, sleep);
    }
  }
  EXPECT_EQ(cache.size(), oracle.size());
}

TEST(SleepCache, MatchesOracleAcrossClear) {
  // A worker reuses one cache across work items, clearing it in between:
  // every round must behave like a fresh cache, with no spill node or
  // free-list link carried over from the round before.
  std::mt19937_64 rng(42);
  SleepCache cache;
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 199);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, 255);
  for (int round = 0; round < 3; ++round) {
    cache.clear();
    SleepOracle oracle;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = key_dist(rng) * 0x100000001b3ULL;
      const std::uint32_t sleep = mask_dist(rng);
      ASSERT_EQ(cache.subsumed(key, sleep), oracle.subsumed(key, sleep))
          << "round " << round << " key " << key << " sleep " << sleep;
      if (!cache.subsumed(key, sleep)) {
        cache.insert(key, sleep);
        oracle.insert(key, sleep);
      }
    }
    EXPECT_EQ(cache.size(), oracle.size()) << "round " << round;
  }
}

TEST(SleepCache, ChainMasksUpTo31BitsMatchOracle) {
  // Masks of the form (1 << b) - 1 for b in [0, 31] form a chain under
  // inclusion and set bits up to 30, so they exercise the full 32-bit mask
  // width: a stored mask covers a new one iff it has no more bits, and
  // inserts must drop the stored masks they are a subset of.
  std::mt19937_64 rng(11);
  SleepCache cache;
  std::unordered_map<std::uint64_t, std::vector<int>> oracle;
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 149);
  std::uniform_int_distribution<int> bits_dist(0, 31);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = key_dist(rng) * 0x100000001b3ULL;
    const int b = bits_dist(rng);
    std::vector<int>& stored_bits = oracle[key];
    const bool covered = std::ranges::any_of(
        stored_bits, [b](int stored) { return stored <= b; });
    ASSERT_EQ(cache.check_and_insert(key, (1u << b) - 1u), covered)
        << "key " << key << " bits " << b;
    if (!covered) {
      std::erase_if(stored_bits, [b](int stored) { return stored >= b; });
      stored_bits.push_back(b);
    }
  }
  EXPECT_EQ(cache.size(), oracle.size());
}

TEST(SleepCache, CheckAndInsertMatchesTwoCallForm) {
  std::mt19937_64 rng(7);
  SleepCache combined;
  SleepCache split;
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 99);
  std::uniform_int_distribution<std::uint32_t> mask_dist(0, 63);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t key = key_dist(rng);
    const std::uint32_t sleep = mask_dist(rng);
    const bool was = split.subsumed(key, sleep);
    if (!was) {
      split.insert(key, sleep);
    }
    ASSERT_EQ(combined.check_and_insert(key, sleep), was);
  }
  EXPECT_EQ(combined.size(), split.size());
}

TEST(SleepCache, SubsetSubsumesAndInsertDropsSupersets) {
  SleepCache cache;
  cache.insert(1, 0b0011);
  // A stored subset covers any wider sleep mask...
  EXPECT_TRUE(cache.subsumed(1, 0b0011));
  EXPECT_TRUE(cache.subsumed(1, 0b0111));
  // ...but never a narrower one (the narrower visit explores more).
  EXPECT_FALSE(cache.subsumed(1, 0b0001));
  EXPECT_FALSE(cache.subsumed(1, 0b0110));
  // Inserting the narrower mask subsumes the stored superset.
  cache.insert(1, 0b0001);
  EXPECT_TRUE(cache.subsumed(1, 0b0001));
  EXPECT_TRUE(cache.subsumed(1, 0b0011));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SleepCache, IncomparableMasksSpillPastTheInlineSlots) {
  SleepCache cache;
  const std::uint64_t key = 77;
  // ~(1 << i) masks are pairwise incomparable: none subsumes another, so
  // 12 of them overflow the 2 inline slots into the spill pool.
  for (int i = 0; i < 12; ++i) {
    const std::uint32_t m = 0xFFFu & ~(1u << i);
    EXPECT_FALSE(cache.subsumed(key, m));
    cache.insert(key, m);
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(cache.subsumed(key, 0xFFFu & ~(1u << i)));
  }
  EXPECT_FALSE(cache.subsumed(key, 0xFFFu & ~(3u << 3)));
  EXPECT_GT(cache.live_bytes(), 0u);
  EXPECT_LE(cache.live_bytes(), cache.bytes());
  // The empty mask subsumes everything: the whole antichain collapses.
  cache.insert(key, 0);
  EXPECT_TRUE(cache.subsumed(key, 0));
  EXPECT_EQ(cache.size(), 1u);
  // The freed spill nodes are recycled for another key.
  for (int i = 0; i < 12; ++i) {
    cache.insert(key + 1, 0xFFFu & ~(1u << i));
  }
  EXPECT_TRUE(cache.subsumed(key + 1, 0xFFFu & ~(1u << 5)));
}

TEST(SleepCache, ClearKeepsReservedCapacity) {
  SleepCache cache;
  for (std::uint64_t k = 1; k <= 500; ++k) {
    for (int i = 0; i < 4; ++i) {
      cache.insert(k * 0x9e3779b9ULL, 0xFFu & ~(1u << i));
    }
  }
  const std::size_t reserved = cache.bytes();
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.live_bytes(), 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.subsumed(0x9e3779b9ULL, 0xFF));
  // Capacity (slot array + spill nodes) survives for reuse; live bytes
  // fall back to the empty slot array.
  EXPECT_EQ(cache.bytes(), reserved);
  cache.insert(123, 7);
  EXPECT_TRUE(cache.subsumed(123, 7));
  EXPECT_EQ(cache.bytes(), reserved);
}

TEST(SleepCache, SurvivesGrowthAndKeyZero) {
  SleepCache cache;
  SleepOracle oracle;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng();  // distinct keys: forces rehashes
    cache.insert(key, 0b101);
    oracle.insert(key, 0b101);
  }
  // Key 0 is remapped internally but must behave like any key.
  EXPECT_FALSE(cache.subsumed(0, 0xFFFF));
  cache.insert(0, 0b11);
  EXPECT_TRUE(cache.subsumed(0, 0b111));
  EXPECT_FALSE(cache.subsumed(0, 0b1));
  EXPECT_EQ(cache.size(), oracle.size() + 1);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(VisitedKeys, MatchesSetThroughGrowthClearAndKeyZero) {
  std::mt19937_64 rng(7);
  VisitedKeys keys;
  std::set<std::uint64_t> oracle;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5000; ++i) {
      // Key 0 first (it is remapped internally but must behave like any
      // key), then repeats from a small range among distinct keys.
      const std::uint64_t key =
          i == 0 ? 0 : (i % 7 == 0 ? rng() % 300 : rng());
      ASSERT_EQ(keys.contains(key), oracle.count(key) == 1) << key;
      EXPECT_EQ(keys.insert(key), oracle.insert(key).second) << key;
    }
    EXPECT_EQ(keys.size(), oracle.size());
    EXPECT_EQ(keys.live_bytes(), oracle.size() * sizeof(std::uint64_t));
    EXPECT_GE(keys.bytes(), keys.live_bytes());

    // append_keys lists every key once, except the one named (here 0).
    std::vector<std::uint64_t> listed;
    keys.append_keys(listed, 0);
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, std::vector<std::uint64_t>(std::next(oracle.begin()),
                                                 oracle.end()));

    const std::size_t reserved = keys.bytes();
    keys.clear();
    oracle.clear();
    EXPECT_EQ(keys.size(), 0u);
    EXPECT_EQ(keys.bytes(), reserved);
  }

  // The same set semantics through the sizing calls.
  keys.release();
  const auto insert_batch = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t key = i % 5 == 0 ? rng() % 200 : rng();
      ASSERT_EQ(keys.contains(key), oracle.count(key) == 1) << key;
      EXPECT_EQ(keys.insert(key), oracle.insert(key).second) << key;
    }
  };
  const auto expect_members = [&] {
    EXPECT_EQ(keys.size(), oracle.size());
    for (const std::uint64_t key : oracle) {
      EXPECT_TRUE(keys.contains(key)) << key;
    }
  };

  // reserve(0) allocates nothing. A reservation on an empty table sizes
  // the array as insert's own doubling would for that many keys, and the
  // inserts it covers never grow it.
  keys.reserve(0);
  EXPECT_EQ(keys.bytes(), 0u);
  keys.reserve(3000);
  const std::size_t reserved = keys.bytes();
  VisitedKeys grown;
  for (std::uint64_t k = 1; k <= 3000; ++k) {
    grown.insert(k);
  }
  EXPECT_EQ(reserved, grown.bytes());
  insert_batch(3000);
  EXPECT_EQ(keys.bytes(), reserved);
  expect_members();

  // Reserving past the current size rehashes every stored key; reserving
  // what already fits changes nothing.
  keys.reserve(keys.size() + 20000);
  EXPECT_GT(keys.bytes(), reserved);
  expect_members();
  const std::size_t regrown = keys.bytes();
  keys.reserve(10);
  EXPECT_EQ(keys.bytes(), regrown);
  insert_batch(20000);
  EXPECT_EQ(keys.bytes(), regrown);
  expect_members();

  // clear() keeps the array; key 0 still behaves like any key after it.
  keys.clear();
  oracle.clear();
  EXPECT_EQ(keys.bytes(), regrown);
  EXPECT_FALSE(keys.contains(0));
  EXPECT_TRUE(keys.insert(0));
  oracle.insert(0);
  EXPECT_FALSE(keys.insert(0));
  EXPECT_TRUE(keys.contains(0));
  insert_batch(500);
  expect_members();

  // release() frees the array; the table then grows again from empty.
  keys.release();
  oracle.clear();
  EXPECT_EQ(keys.size(), 0u);
  EXPECT_EQ(keys.bytes(), 0u);
  EXPECT_FALSE(keys.contains(0));
  EXPECT_TRUE(keys.insert(0));
  oracle.insert(0);
  insert_batch(1000);
  expect_members();
}

}  // namespace
}  // namespace cfc
