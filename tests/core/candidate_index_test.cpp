#include "core/candidate_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hpp"

namespace chameleon::core {
namespace {

meta::ObjectMeta make_object(ObjectId oid, meta::RedState state, double heat,
                             std::initializer_list<ServerId> servers) {
  meta::ObjectMeta m;
  m.oid = oid;
  m.state = state;
  m.size_bytes = 4096;
  m.popularity = heat;  // folded heat; heat_epoch stays 0
  for (const ServerId s : servers) m.src.push_back(s);
  return m;
}

TEST(CandidateIndex, IndexesStableObjectsUnderEachHost) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 5.0, {0, 1, 2}));
  table.create(make_object(2, meta::RedState::kEc, 1.0, {0, 3, 4, 5, 6, 7}));
  CandidateIndex index(table, 8, 1);
  EXPECT_EQ(index.total_candidates(), 3u + 6u);
}

TEST(CandidateIndex, SkipsIntermediateStates) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kLateRep, 9.0, {0, 1, 2}));
  table.create(make_object(2, meta::RedState::kRepEwo, 9.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);
  EXPECT_EQ(index.total_candidates(), 0u);
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table), nullptr);
}

TEST(CandidateIndex, HottestAndColdestOrder) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 1.0, {0, 1, 2}));
  table.create(make_object(2, meta::RedState::kRep, 9.0, {0, 1, 2}));
  table.create(make_object(3, meta::RedState::kRep, 5.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);

  const auto* hottest = index.take_hottest(0, kInvalidServer, table);
  ASSERT_NE(hottest, nullptr);
  EXPECT_EQ(hottest->oid, 2u);
  const auto* coldest = index.take_coldest(0, kInvalidServer, table);
  ASSERT_NE(coldest, nullptr);
  EXPECT_EQ(coldest->oid, 1u);
}

TEST(CandidateIndex, TakeConsumesCandidates) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 1.0, {0, 1, 2}));
  table.create(make_object(2, meta::RedState::kRep, 2.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table)->oid, 2u);
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table)->oid, 1u);
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table), nullptr);
}

TEST(CandidateIndex, HotAndColdCursorsShareThePool) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 1.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);
  EXPECT_NE(index.take_coldest(0, kInvalidServer, table), nullptr);
  // The single candidate is spent; the hot side must not return it again.
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table), nullptr);
}

TEST(CandidateIndex, ExcludeFiltersObjectsAlreadyOnTarget) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 9.0, {0, 1, 2}));
  table.create(make_object(2, meta::RedState::kRep, 5.0, {0, 4, 5}));
  CandidateIndex index(table, 6, 1);
  // Swapping onto server 1: object 1 already lives there, so object 2 wins.
  const auto* c = index.take_hottest(0, 1, table);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->oid, 2u);
}

TEST(CandidateIndex, RevalidatesAgainstLiveTable) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 9.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);
  // Another balancing decision moves the object into an intermediate state
  // after the index was built.
  table.mutate(1, [](meta::ObjectMeta& m) {
    m.state = meta::RedState::kRepEwo;
  });
  EXPECT_EQ(index.take_hottest(0, kInvalidServer, table), nullptr);
}

TEST(CandidateIndex, UnknownServerYieldsNothing) {
  meta::MappingTable table;
  table.create(make_object(1, meta::RedState::kRep, 1.0, {0, 1, 2}));
  CandidateIndex index(table, 4, 1);
  EXPECT_EQ(index.take_hottest(99, kInvalidServer, table), nullptr);
}

TEST(CandidateIndex, HeatComputedAtGivenEpoch) {
  meta::MappingTable table;
  auto hot_now = make_object(1, meta::RedState::kRep, 0.0, {0, 1, 2});
  hot_now.writes_in_epoch = 10;  // heat 10 at epoch 0, decays later
  table.create(hot_now);
  table.create(make_object(2, meta::RedState::kRep, 4.0, {0, 1, 2}));

  CandidateIndex at_zero(table, 4, 0);
  EXPECT_EQ(at_zero.take_hottest(0, kInvalidServer, table)->oid, 1u);

  CandidateIndex at_five(table, 4, 5);
  // Object 1's burst decayed (10/16 < 4); object 2's folded heat persists
  // because popularity represents already-folded history... which also
  // decays. Compare actual heats to be precise.
  const double h1 = table.get(1)->heat(5);
  const double h2 = table.get(2)->heat(5);
  const auto* hottest = at_five.take_hottest(0, kInvalidServer, table);
  ASSERT_NE(hottest, nullptr);
  EXPECT_EQ(hottest->oid, h1 > h2 ? 1u : 2u);
}

/// The index as a fully sorted list per server: the order chunked
/// selection must reproduce, including the live-table revalidation.
class SortedReference {
 public:
  SortedReference(const meta::MappingTable& table, ServerId server)
      : server_(server) {
    table.for_each([&](const meta::ObjectMeta& m) {
      if (meta::is_intermediate(m.state) || !m.src.contains(server)) return;
      items_.push_back({m.oid, m.heat(0), m.size_bytes, m.state});
    });
    std::sort(items_.begin(), items_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.heat < b.heat || (a.heat == b.heat && a.oid < b.oid);
              });
  }

  ObjectId take(bool hottest, ServerId exclude,
                const meta::MappingTable& table) {
    while (!items_.empty()) {
      const Candidate c = hottest ? items_.back() : items_.front();
      if (hottest) {
        items_.pop_back();
      } else {
        items_.pop_front();
      }
      const auto live = table.get(c.oid);
      if (!live || meta::is_intermediate(live->state)) continue;
      if (!live->src.contains(server_)) continue;
      if (exclude != kInvalidServer && live->src.contains(exclude)) continue;
      return c.oid;
    }
    return 0;
  }

 private:
  ServerId server_;
  std::deque<Candidate> items_;
};

TEST(CandidateIndex, ChunkedSelectionReturnsTheFullySortedSequence) {
  Xoshiro256 rng(17);
  CandidateIndex index;  // rebuilt per round, reusing its storage
  for (int round = 0; round < 60; ++round) {
    meta::MappingTable table;
    const auto objects = static_cast<ObjectId>(rng.next_below(400));
    for (ObjectId oid = 1; oid <= objects; ++oid) {
      // Few distinct heats, so the oid tie-break decides most orders.
      const double heat = static_cast<double>(rng.next_below(6));
      const auto first = static_cast<ServerId>(rng.next_below(4));
      table.create(make_object(oid, meta::RedState::kRep, heat,
                               {first, (first + 1) % 4, (first + 2) % 4}));
    }
    index.rebuild(table, 4, 0);
    std::vector<SortedReference> reference;
    for (ServerId s = 0; s < 4; ++s) reference.emplace_back(table, s);
    for (int step = 0; step < 500; ++step) {
      const auto server = static_cast<ServerId>(rng.next_below(4));
      const bool hottest = rng.next_below(2) == 0;
      const ServerId exclude = rng.next_below(4) == 0
                                   ? static_cast<ServerId>(rng.next_below(4))
                                   : kInvalidServer;
      const Candidate* got =
          hottest ? index.take_hottest(server, exclude, table)
                  : index.take_coldest(server, exclude, table);
      const ObjectId want = reference[server].take(hottest, exclude, table);
      ASSERT_EQ(got == nullptr ? 0 : got->oid, want)
          << "round " << round << " step " << step;
      // A scheduled move takes the object out of every server's pool.
      if (got != nullptr && rng.next_below(3) == 0) {
        table.mutate(got->oid, [](meta::ObjectMeta& m) {
          m.state = meta::RedState::kRepEwo;
        });
      }
    }
  }
}

}  // namespace
}  // namespace chameleon::core
