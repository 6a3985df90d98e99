#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace chameleon::ec {
namespace {

std::vector<std::uint8_t> random_payload(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(4, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(3, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(6, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(256, 4), std::invalid_argument);
}

TEST(ReedSolomon, GeometryAccessors) {
  const ReedSolomon rs(6, 4);
  EXPECT_EQ(rs.total_shards(), 6u);
  EXPECT_EQ(rs.data_shards(), 4u);
  EXPECT_EQ(rs.parity_shards(), 2u);
  EXPECT_EQ(rs.shard_size(100), 25u);
  EXPECT_EQ(rs.shard_size(101), 26u);
}

TEST(ReedSolomon, EncodeObjectShapes) {
  const ReedSolomon rs(6, 4);
  const auto payload = random_payload(1000, 1);
  const auto shards = rs.encode_object(payload);
  ASSERT_EQ(shards.size(), 6u);
  for (const auto& s : shards) EXPECT_EQ(s.size(), 250u);
}

TEST(ReedSolomon, EncodeEmptyPayloadStillProducesShards) {
  const ReedSolomon rs(6, 4);
  const auto shards = rs.encode_object({});
  ASSERT_EQ(shards.size(), 6u);
  for (const auto& s : shards) EXPECT_EQ(s.size(), 1u);
}

TEST(ReedSolomon, SystematicDataShardsHoldPayload) {
  const ReedSolomon rs(6, 4);
  const auto payload = random_payload(997, 2);  // non-multiple of k
  const auto shards = rs.encode_object(payload);
  const auto joined = ReedSolomon::join(
      {shards[0], shards[1], shards[2], shards[3]}, payload.size());
  EXPECT_EQ(joined, payload);
}

TEST(ReedSolomon, VerifyAcceptsConsistentShards) {
  const ReedSolomon rs(6, 4);
  const auto shards = rs.encode_object(random_payload(512, 3));
  EXPECT_TRUE(rs.verify(shards));
}

TEST(ReedSolomon, VerifyRejectsCorruption) {
  const ReedSolomon rs(6, 4);
  auto shards = rs.encode_object(random_payload(512, 4));
  shards[5][10] ^= 0x01;
  EXPECT_FALSE(rs.verify(shards));
}

TEST(ReedSolomon, ReconstructWithAllDataPresent) {
  const ReedSolomon rs(6, 4);
  const auto payload = random_payload(300, 5);
  const auto shards = rs.encode_object(payload);
  std::vector<std::optional<std::vector<std::uint8_t>>> slots(6);
  for (std::size_t i = 0; i < 6; ++i) slots[i] = shards[i];
  const auto data = rs.reconstruct_data(slots);
  EXPECT_EQ(ReedSolomon::join(data, payload.size()), payload);
}

TEST(ReedSolomon, ReconstructTooFewShardsThrows) {
  const ReedSolomon rs(6, 4);
  const auto shards = rs.encode_object(random_payload(64, 6));
  std::vector<std::optional<std::vector<std::uint8_t>>> slots(6);
  slots[0] = shards[0];
  slots[1] = shards[1];
  slots[2] = shards[2];  // only 3 < k = 4 survive
  EXPECT_THROW(rs.reconstruct_data(slots), std::runtime_error);
}

TEST(ReedSolomon, ReconstructWrongSlotCountThrows) {
  const ReedSolomon rs(6, 4);
  std::vector<std::optional<std::vector<std::uint8_t>>> slots(5);
  EXPECT_THROW(rs.reconstruct_data(slots), std::invalid_argument);
}

TEST(ReedSolomon, EncodeRaggedShardsThrows) {
  const ReedSolomon rs(6, 4);
  std::vector<std::vector<std::uint8_t>> data{{1, 2}, {3, 4}, {5, 6}, {7}};
  std::vector<std::vector<std::uint8_t>> parity(2);
  EXPECT_THROW(rs.encode(data, parity), std::invalid_argument);
}

TEST(ReedSolomon, JoinTruncatesPadding) {
  const std::vector<std::vector<std::uint8_t>> data{{1, 2, 3}, {4, 0, 0}};
  EXPECT_EQ(ReedSolomon::join(data, 4),
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(ReedSolomon, JoinTooShortThrows) {
  const std::vector<std::vector<std::uint8_t>> data{{1}, {2}};
  EXPECT_THROW(ReedSolomon::join(data, 5), std::invalid_argument);
}

// The MDS property, exhaustively for RS(6,4): ANY 2 lost shards are
// recoverable. C(6,2) = 15 loss patterns.
TEST(ReedSolomon, Rs64RecoversFromEveryDoubleLoss) {
  const ReedSolomon rs(6, 4);
  const auto payload = random_payload(4096, 7);
  const auto shards = rs.encode_object(payload);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      std::vector<std::optional<std::vector<std::uint8_t>>> slots(6);
      for (std::size_t i = 0; i < 6; ++i) {
        if (i != a && i != b) slots[i] = shards[i];
      }
      const auto data = rs.reconstruct_data(slots);
      EXPECT_EQ(ReedSolomon::join(data, payload.size()), payload)
          << "lost shards " << a << "," << b;
    }
  }
}

// Property sweep over codec geometries: encode, drop m random shards,
// reconstruct, compare.
struct RsGeom {
  std::size_t n;
  std::size_t k;
};

class RsRoundTrip : public ::testing::TestWithParam<RsGeom> {};

TEST_P(RsRoundTrip, SurvivesMaxLoss) {
  const auto [n, k] = GetParam();
  const ReedSolomon rs(n, k);
  Xoshiro256 rng(n * 100 + k);
  for (int trial = 0; trial < 10; ++trial) {
    const auto payload =
        random_payload(1 + rng.next_below(5000),
                       n * 1000 + static_cast<std::size_t>(trial));
    const auto shards = rs.encode_object(payload);
    // Drop exactly m = n - k shards, chosen randomly.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    std::vector<std::optional<std::vector<std::uint8_t>>> slots(n);
    for (std::size_t i = 0; i < k; ++i) slots[order[i]] = shards[order[i]];
    const auto data = rs.reconstruct_data(slots);
    EXPECT_EQ(ReedSolomon::join(data, payload.size()), payload);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsRoundTrip,
    ::testing::Values(RsGeom{3, 2}, RsGeom{6, 4}, RsGeom{9, 6}, RsGeom{14, 10},
                      RsGeom{5, 1}),
    [](const auto& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_k" +
             std::to_string(param_info.param.k);
    });

// The tests above stay at or under 5,000 bytes; these two take RS(6,4) from
// one byte to past a mebibyte. The suite and test names date from a
// thread-pooled codec path that is gone; the byte-for-byte checks remain, now
// against a reference built from the shard-level encode().
TEST(ReedSolomonParallel, PooledEncodeMatchesSerialBytes) {
  const ReedSolomon rs(6, 4);
  for (const std::size_t payload_bytes :
       {std::size_t{1}, std::size_t{4096}, std::size_t{255 * 1024},
        std::size_t{1024 * 1024 + 13}}) {
    const auto payload = random_payload(payload_bytes, payload_bytes);
    const std::size_t shard_bytes = rs.shard_size(payload_bytes);
    std::vector<std::vector<std::uint8_t>> expected(
        6, std::vector<std::uint8_t>(shard_bytes, 0));
    for (std::size_t i = 0; i < payload_bytes; ++i) {
      expected[i / shard_bytes][i % shard_bytes] = payload[i];
    }
    std::vector<std::vector<std::uint8_t>> data(expected.begin(),
                                                expected.begin() + 4);
    std::vector<std::vector<std::uint8_t>> parity(
        2, std::vector<std::uint8_t>(shard_bytes));
    rs.encode(data, parity);
    expected[4] = parity[0];
    expected[5] = parity[1];
    const auto shards = rs.encode_object(payload);
    EXPECT_EQ(shards, expected) << payload_bytes << " bytes";
    EXPECT_TRUE(rs.verify(shards)) << payload_bytes << " bytes";
  }
}

TEST(ReedSolomonParallel, PooledReconstructMatchesSerialBytes) {
  const ReedSolomon rs(6, 4);
  for (const std::size_t payload_bytes :
       {std::size_t{1}, std::size_t{4096}, std::size_t{800 * 1024},
        std::size_t{1024 * 1024 + 13}}) {
    const auto payload = random_payload(payload_bytes, payload_bytes + 99);
    const auto shards = rs.encode_object(payload);
    // Lose two data shards so the decode matrix actually engages.
    std::vector<std::optional<std::vector<std::uint8_t>>> slots(6);
    for (std::size_t i = 2; i < 6; ++i) slots[i] = shards[i];
    const auto data = rs.reconstruct_data(slots);
    ASSERT_EQ(data.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(data[i], shards[i]) << payload_bytes << " bytes, shard " << i;
    }
    EXPECT_EQ(ReedSolomon::join(data, payload.size()), payload)
        << payload_bytes << " bytes";
  }
}

}  // namespace
}  // namespace chameleon::ec
