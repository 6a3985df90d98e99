#include "meta/mapping_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace chameleon::meta {
namespace {

ObjectMeta make_meta(ObjectId oid, RedState state = RedState::kEc,
                     std::uint64_t bytes = 4096) {
  ObjectMeta m;
  m.oid = oid;
  m.state = state;
  m.size_bytes = bytes;
  return m;
}

TEST(MappingTable, CreateAndGet) {
  MappingTable t;
  EXPECT_TRUE(t.create(make_meta(1)));
  EXPECT_FALSE(t.create(make_meta(1)));  // duplicate
  const auto m = t.get(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->oid, 1u);
  EXPECT_FALSE(t.get(2).has_value());
  EXPECT_TRUE(t.exists(1));
  EXPECT_FALSE(t.exists(2));
}

TEST(MappingTable, MutateInPlace) {
  MappingTable t;
  t.create(make_meta(1));
  EXPECT_TRUE(t.mutate(1, [](ObjectMeta& m) { m.state = RedState::kLateRep; }));
  EXPECT_EQ(t.get(1)->state, RedState::kLateRep);
  EXPECT_FALSE(t.mutate(99, [](ObjectMeta&) {}));
}

TEST(MappingTable, EraseRemovesObjectAndLog) {
  MappingTable t;
  t.create(make_meta(1));
  t.log_change(1, EpochLogEntry{0, RedState::kLateEc, {}, {}});
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.exists(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.log_entry_count(), 0u);
}

TEST(MappingTable, ForEachVisitsAll) {
  MappingTable t(4);
  for (ObjectId i = 0; i < 100; ++i) t.create(make_meta(i));
  std::size_t visited = 0;
  t.for_each([&](const ObjectMeta&) { ++visited; });
  EXPECT_EQ(visited, 100u);
  EXPECT_EQ(t.object_count(), 100u);
}

TEST(MappingTable, ForEachMutableChangesAll) {
  MappingTable t;
  for (ObjectId i = 0; i < 20; ++i) t.create(make_meta(i));
  t.for_each_mutable([](ObjectMeta& m) { m.popularity = 7.0; });
  t.for_each([](const ObjectMeta& m) {
    EXPECT_DOUBLE_EQ(m.popularity, 7.0);
  });
}

TEST(MappingTable, LogChangeRequiresExistingObject) {
  MappingTable t;
  EXPECT_THROW(t.log_change(5, EpochLogEntry{}), std::invalid_argument);
}

TEST(MappingTable, CompactLogsFoldsHistories) {
  MappingTable t;
  for (ObjectId i = 0; i < 10; ++i) {
    t.create(make_meta(i));
    for (Epoch e = 0; e < 5; ++e) {
      t.log_change(i, EpochLogEntry{e, RedState::kRepEwo, {}, {}});
    }
  }
  EXPECT_EQ(t.log_entry_count(), 50u);
  EXPECT_EQ(t.compact_logs(), 40u);
  EXPECT_EQ(t.log_entry_count(), 10u);
  EXPECT_EQ(t.epoch_log_size(3), 1u);
  EXPECT_EQ(t.epoch_log_size(999), 0u);
}

TEST(MappingTable, LogMemoryShrinksAfterCompaction) {
  MappingTable t;
  t.create(make_meta(1));
  for (Epoch e = 0; e < 200; ++e) {
    t.log_change(1, EpochLogEntry{e, RedState::kEc, {}, {}});
  }
  const auto before = t.log_memory_bytes();
  t.compact_logs();
  EXPECT_LT(t.log_memory_bytes(), before);
}

TEST(MappingTable, CensusCountsStatesAndBytes) {
  MappingTable t;
  t.create(make_meta(1, RedState::kRep, 100));
  t.create(make_meta(2, RedState::kRep, 200));
  t.create(make_meta(3, RedState::kEc, 50));
  t.create(make_meta(4, RedState::kLateRep, 10));
  const auto c = t.census();
  EXPECT_EQ(c.objects_in(RedState::kRep), 2u);
  EXPECT_EQ(c.bytes_in(RedState::kRep), 300u);
  EXPECT_EQ(c.objects_in(RedState::kEc), 1u);
  EXPECT_EQ(c.objects_in(RedState::kLateRep), 1u);
  EXPECT_EQ(c.total_objects(), 4u);
  EXPECT_EQ(c.total_bytes(), 360u);
}

TEST(MappingTable, CensusAndPendingSetMatchARecountAfterEveryWrite) {
  MappingTable t(4);
  Xoshiro256 rng(9);
  const auto random_state = [&rng] {
    return static_cast<RedState>(rng.next_below(6));
  };
  for (int step = 0; step < 4000; ++step) {
    const auto oid = static_cast<ObjectId>(rng.next_below(64));
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        t.create(make_meta(oid, random_state(), 1 + rng.next_below(9000)));
        break;
      case 3:
        t.erase(oid);
        break;
      case 4:
      case 5:
      case 6: {
        const RedState state = random_state();
        const std::uint64_t size = 1 + rng.next_below(9000);
        const std::uint64_t what = rng.next_below(4);
        t.mutate(oid, [&](ObjectMeta& m) {
          if (what & 1) m.state = state;
          if (what & 2) m.size_bytes = size;
        });
        break;
      }
      default: {
        const RedState state = random_state();
        t.for_each_mutable([&](ObjectMeta& m) {
          if (m.oid % 5 == 0) m.state = state;
          if (m.oid % 7 == 0) ++m.size_bytes;
        });
        break;
      }
    }
    StateCensus want;
    std::vector<ObjectId> want_pending;
    t.for_each([&](const ObjectMeta& m) {
      const auto idx = static_cast<std::size_t>(m.state);
      ++want.objects[idx];
      want.bytes[idx] += m.size_bytes;
      if (is_intermediate(m.state)) want_pending.push_back(m.oid);
    });
    std::vector<ObjectId> pending;
    t.for_each_pending([&](const ObjectMeta& m) { pending.push_back(m.oid); });
    std::sort(want_pending.begin(), want_pending.end());
    std::sort(pending.begin(), pending.end());
    const StateCensus got = t.census();
    ASSERT_EQ(got.objects, want.objects) << "step " << step;
    ASSERT_EQ(got.bytes, want.bytes) << "step " << step;
    ASSERT_EQ(pending, want_pending) << "step " << step;
  }
}

TEST(MappingTable, ShardCountOfZeroStillWorks) {
  MappingTable t(0);
  EXPECT_TRUE(t.create(make_meta(1)));
  EXPECT_TRUE(t.exists(1));
}

TEST(MappingTable, ConcurrentCreatesAreSafe) {
  MappingTable t(16);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&t, w] {
      for (ObjectId i = 0; i < 1000; ++i) {
        t.create(make_meta(static_cast<ObjectId>(w) * 10'000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.object_count(), 4000u);
}

TEST(MappingTable, ConcurrentMutationsDoNotLoseWrites) {
  MappingTable t(16);
  t.create(make_meta(1));
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&t] {
      for (int i = 0; i < 1000; ++i) {
        t.mutate(1, [](ObjectMeta& m) { m.writes_in_epoch += 1; });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.get(1)->writes_in_epoch, 4000u);
}

}  // namespace
}  // namespace chameleon::meta
