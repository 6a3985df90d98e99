#include "baselines/hybrid_rep_ec.hpp"

#include <gtest/gtest.h>

namespace chameleon::baselines {
namespace {

flashsim::SsdConfig small_ssd() {
  flashsim::SsdConfig cfg;
  cfg.pages_per_block = 8;
  cfg.block_count = 128;
  cfg.static_wl_delta = 0;
  return cfg;
}

struct Fixture {
  Fixture() : cluster(12, small_ssd()), store(cluster, table, config()) {}

  static kv::KvConfig config() {
    kv::KvConfig c;
    c.initial_scheme = meta::RedState::kRep;  // hybrid starts replicated
    return c;
  }

  cluster::Cluster cluster;
  meta::MappingTable table;
  kv::KvStore store;
  HybridOptions opts;
};

TEST(Hybrid, RecentDataStaysReplicated) {
  Fixture f;
  f.store.put(1, 16'384, 0);
  HybridRepEcPolicy policy(f.store, f.opts);
  policy.on_epoch(1);  // min_age_epochs = 2: too young
  EXPECT_EQ(f.table.get(1)->state, meta::RedState::kRep);
  EXPECT_EQ(policy.timeline()[0].conversions, 0u);
}

TEST(Hybrid, ColdDataEagerlyEncoded) {
  Fixture f;
  f.store.put(1, 16'384, 0);
  HybridRepEcPolicy policy(f.store, f.opts);
  policy.on_epoch(8);  // old and cold by now
  EXPECT_EQ(f.table.get(1)->state, meta::RedState::kEc);
  EXPECT_EQ(policy.timeline()[0].conversions, 1u);
  EXPECT_GT(f.cluster.network().bytes(cluster::Traffic::kConversion), 0u);
}

TEST(Hybrid, HotDataStaysReplicated) {
  Fixture f;
  f.store.put(2, 16'384, 0);
  f.table.mutate(2, [](meta::ObjectMeta& m) {
    m.popularity = 50.0;
    m.heat_epoch = 8;  // folded: still hot at epoch 8
  });
  HybridRepEcPolicy policy(f.store, f.opts);
  policy.on_epoch(8);
  EXPECT_EQ(f.table.get(2)->state, meta::RedState::kRep);
}

TEST(Hybrid, NeverUpgradesBackToRep) {
  Fixture f;
  f.store.put(3, 16'384, 0);
  HybridRepEcPolicy policy(f.store, f.opts);
  policy.on_epoch(8);
  ASSERT_EQ(f.table.get(3)->state, meta::RedState::kEc);
  // The object becomes hot again — hybrid (unlike ARPT) leaves it encoded.
  f.table.mutate(3, [](meta::ObjectMeta& m) {
    m.popularity = 99.0;
    m.heat_epoch = 9;
  });
  policy.on_epoch(10);
  EXPECT_EQ(f.table.get(3)->state, meta::RedState::kEc);
}

TEST(Hybrid, ConversionCapRespected) {
  Fixture f;
  for (ObjectId oid = 1; oid <= 50; ++oid) f.store.put(oid, 8192, 0);
  f.opts.max_conversions_per_epoch = 10;
  HybridRepEcPolicy policy(f.store, f.opts);
  policy.on_epoch(8);
  EXPECT_EQ(policy.timeline()[0].conversions, 10u);
  std::size_t encoded = 0;
  f.table.for_each([&](const meta::ObjectMeta& m) {
    if (m.state == meta::RedState::kEc) ++encoded;
  });
  EXPECT_EQ(encoded, 10u);
}

TEST(Hybrid, HeatFoldingHappensOnEpoch) {
  // Eq 1, p_k = p_{k-1}/2 + w_k, advances once per epoch, with or without
  // writes, and whether or not the policy converts the object. The policy's
  // epochs leave the fold to heat(): p_{e-1} plus the writes seen so far in
  // epoch e.
  Fixture f;
  HybridRepEcPolicy policy(f.store, f.opts);
  const std::uint32_t writes[] = {2, 0, 3, 1, 0, 0, 0, 5};
  double folded = 0.0;  // p_{e-1}
  for (Epoch e = 0; e < std::size(writes); ++e) {
    if (e > 0) policy.on_epoch(e);
    for (std::uint32_t i = 0; i < writes[e]; ++i) f.store.put(4, 8192, e);
    EXPECT_EQ(f.table.get(4)->heat(e), folded + writes[e]) << "epoch " << e;
    folded = folded / 2.0 + writes[e];
  }
  EXPECT_EQ(f.table.get(4)->state, meta::RedState::kEc);  // went cold
}

}  // namespace
}  // namespace chameleon::baselines
