// Balancer epoch-driver tests: trigger gating, stale-transition resolution,
// compaction cadence, and Fig 8 telemetry.
#include "core/balancer.hpp"

#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

namespace chameleon::core {
namespace {

flashsim::SsdConfig small_ssd() {
  flashsim::SsdConfig cfg;
  cfg.pages_per_block = 8;
  cfg.block_count = 128;
  cfg.static_wl_delta = 0;
  return cfg;
}

struct Fixture {
  explicit Fixture(meta::RedState initial = meta::RedState::kEc)
      : cluster(12, small_ssd()), store(cluster, table, config(initial)) {}

  static kv::KvConfig config(meta::RedState initial) {
    kv::KvConfig c;
    c.initial_scheme = initial;
    return c;
  }

  /// Manufacture real wear imbalance: hammer one server's device directly.
  void wear_out(ServerId id, std::uint32_t rounds = 10) {
    auto& s = cluster.server(id);
    const auto logical = s.log().ftl().config().logical_pages();
    for (std::uint32_t round = 0; round < rounds; ++round) {
      for (std::uint32_t i = 0; i < logical / 2; ++i) {
        s.write_fragment(cluster::fragment_key(0xF000 + i, 7, 0), 4096);
      }
    }
  }

  cluster::Cluster cluster;
  meta::MappingTable table;
  kv::KvStore store;
  ChameleonOptions opts;
};

TEST(Balancer, RecordsTimelineEveryEpoch) {
  Fixture f;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  balancer.on_epoch(2);
  balancer.on_epoch(3);
  ASSERT_EQ(balancer.timeline().size(), 3u);
  EXPECT_EQ(balancer.timeline()[0].epoch, 1u);
  EXPECT_EQ(balancer.timeline()[2].epoch, 3u);
}

TEST(Balancer, NoTriggerWhenBalanced) {
  Fixture f;
  f.store.put(1, 8192, 0);
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  EXPECT_FALSE(balancer.timeline().back().arpt.triggered);
  EXPECT_FALSE(balancer.timeline().back().hcds.triggered);
}

TEST(Balancer, TriggersOnRealWearImbalance) {
  Fixture f;
  for (ObjectId oid = 1; oid <= 40; ++oid) f.store.put(oid, 16'384, 0);
  f.wear_out(3);
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  const auto& snap = balancer.timeline().back();
  EXPECT_GT(snap.erase_stddev, 0.0);
  EXPECT_TRUE(snap.arpt.triggered);
  EXPECT_TRUE(snap.hcds.triggered);
}

TEST(Balancer, FeatureSwitchesDisableAlgorithms) {
  Fixture f;
  for (ObjectId oid = 1; oid <= 10; ++oid) f.store.put(oid, 8192, 0);
  f.wear_out(2);
  f.opts.enable_arpt = false;
  f.opts.enable_hcds = false;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  EXPECT_FALSE(balancer.timeline().back().arpt.triggered);
  EXPECT_FALSE(balancer.timeline().back().hcds.triggered);
}

TEST(Balancer, StalePendingEcMaterializedEagerly) {
  Fixture f(meta::RedState::kRep);
  f.store.put(1, 16'384, 0);
  f.table.mutate(1, [&](meta::ObjectMeta& m) {
    m.state = meta::RedState::kLateEc;
    m.dst = f.store.place(1, meta::RedState::kEc);
    m.state_since = 0;
    m.last_write_epoch = 0;
  });
  // Trick: state_since(0) == last_write_epoch(0) means "a write happened at
  // scheduling time" — set last_write strictly earlier.
  f.table.mutate(1, [](meta::ObjectMeta& m) { m.state_since = 1; });

  f.opts.cold_resolve_epochs = 4;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(3);  // too early
  EXPECT_EQ(f.table.get(1)->state, meta::RedState::kLateEc);
  balancer.on_epoch(6);  // 6 - 4 >= state_since
  EXPECT_EQ(f.table.get(1)->state, meta::RedState::kEc);
  EXPECT_EQ(balancer.timeline().back().cold_materialized, 1u);
  EXPECT_GT(f.cluster.network().bytes(cluster::Traffic::kConversion), 0u);
}

TEST(Balancer, StalePendingRepCancelledInPlace) {
  Fixture f(meta::RedState::kEc);
  f.store.put(2, 16'384, 0);
  f.table.mutate(2, [&](meta::ObjectMeta& m) {
    m.state = meta::RedState::kLateRep;
    m.dst = f.store.place(2, meta::RedState::kRep);
    m.state_since = 1;
    m.last_write_epoch = 0;
  });
  f.opts.cold_resolve_epochs = 2;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(5);
  const auto m = *f.table.get(2);
  EXPECT_EQ(m.state, meta::RedState::kEc);
  EXPECT_TRUE(m.dst.empty());
  EXPECT_EQ(balancer.timeline().back().cold_cancelled, 1u);
  // Cancellation moved no bytes.
  EXPECT_EQ(f.cluster.network().bytes(cluster::Traffic::kConversion), 0u);
}

TEST(Balancer, StaleEcEwoRelocatedEagerly) {
  Fixture f(meta::RedState::kEc);
  f.store.put(3, 16'384, 0);
  const auto before = *f.table.get(3);
  ServerId replacement = 0;
  while (before.src.contains(replacement)) ++replacement;
  meta::ServerSet dst;
  dst.push_back(replacement);
  for (std::uint32_t i = 1; i < before.src.size(); ++i) {
    dst.push_back(before.src[i]);
  }
  f.table.mutate(3, [&](meta::ObjectMeta& m) {
    m.state = meta::RedState::kEcEwo;
    m.dst = dst;
    m.state_since = 1;
    m.last_write_epoch = 0;
  });
  f.opts.cold_resolve_epochs = 2;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(5);
  const auto m = *f.table.get(3);
  EXPECT_EQ(m.state, meta::RedState::kEc);
  EXPECT_EQ(m.src, dst);
  EXPECT_GT(f.cluster.network().bytes(cluster::Traffic::kSwap), 0u);
}

TEST(Balancer, RecentWriteDefersStaleResolution) {
  Fixture f(meta::RedState::kRep);
  f.store.put(4, 8192, 0);
  f.table.mutate(4, [&](meta::ObjectMeta& m) {
    m.state = meta::RedState::kLateEc;
    m.dst = f.store.place(4, meta::RedState::kEc);
    m.state_since = 1;
    m.last_write_epoch = 2;  // written after scheduling: write will resolve
  });
  f.opts.cold_resolve_epochs = 2;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(9);
  EXPECT_EQ(f.table.get(4)->state, meta::RedState::kLateEc);
}

TEST(Balancer, CompactionRunsOnCadence) {
  Fixture f;
  f.store.put(5, 8192, 0);
  for (Epoch e = 0; e < 6; ++e) {
    f.table.log_change(5, meta::EpochLogEntry{e, meta::RedState::kEc, {}, {}});
  }
  f.opts.compact_every = 4;
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  EXPECT_EQ(balancer.timeline()[0].log_entries_compacted, 0u);
  balancer.on_epoch(4);
  EXPECT_EQ(balancer.timeline()[1].log_entries_compacted, 5u);
}

TEST(Balancer, CensusReflectsStates) {
  Fixture f(meta::RedState::kEc);
  for (ObjectId oid = 1; oid <= 7; ++oid) f.store.put(oid, 8192, 0);
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(1);
  const auto& census = balancer.timeline().back().census;
  EXPECT_EQ(census.objects_in(meta::RedState::kEc), 7u);
  EXPECT_EQ(census.total_objects(), 7u);
}

TEST(Balancer, HeatsFoldedEachEpoch) {
  // Eq 1, p_k = p_{k-1}/2 + w_k, advances once per epoch, with or without
  // writes in between. The fold is lazy, so each epoch's value is read
  // through heat(): p_{e-1} plus the writes seen so far in epoch e.
  Fixture f;
  Balancer balancer(f.store, f.opts);
  const std::uint32_t writes[] = {2, 0, 3, 1, 0, 0, 5};
  double folded = 0.0;  // p_{e-1}
  for (Epoch e = 0; e < std::size(writes); ++e) {
    if (e > 0) balancer.on_epoch(e);
    for (std::uint32_t i = 0; i < writes[e]; ++i) f.store.put(6, 8192, e);
    EXPECT_EQ(f.table.get(6)->heat(e), folded + writes[e]) << "epoch " << e;
    folded = folded / 2.0 + writes[e];
  }
}

TEST(Balancer, EpochLeavesHeatToItsReaders) {
  Fixture f;
  f.store.put(6, 8192, 0);
  f.store.put(6, 8192, 0);
  Balancer balancer(f.store, f.opts);
  balancer.on_epoch(3);
  // No per-epoch fold pass: the stored recurrence is untouched, and heat()
  // reads what a fold would have stored.
  auto m = *f.table.get(6);
  EXPECT_EQ(m.heat_epoch, 0u);
  EXPECT_EQ(m.writes_in_epoch, 2u);
  const double heat = m.heat(3);
  EXPECT_EQ(heat, 0.5);  // two writes in epoch 0, then two halvings
  m.fold_heat(3);
  EXPECT_EQ(m.popularity, heat);
  EXPECT_EQ(m.writes_in_epoch, 0u);
}

}  // namespace
}  // namespace chameleon::core
