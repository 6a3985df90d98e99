// Codec tests for the inter-node protocol extension (ctest label `dist`):
// round-trips and malformed-input rejection for the four peer-op bodies
// (REPLICATE, STRIPE_WRITE, PEER_HEALTH, WEAR_REPORT), the stored shard and
// replica blobs, and the shard-key namespace.
#include "svc/wire.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace chameleon::svc {
namespace {

TEST(WirePeerOps, NewOpsHaveNames) {
  EXPECT_STREQ(op_name(Op::kReplicate), "replicate");
  EXPECT_STREQ(op_name(Op::kStripeWrite), "stripe_write");
  EXPECT_STREQ(op_name(Op::kPeerHealth), "peer_health");
  EXPECT_STREQ(op_name(Op::kWearReport), "wear_report");
}

TEST(WirePeerOps, PeerOpFramesRoundTripThroughDecoder) {
  // Peer ops ride ordinary frames: CRC-framed, decodable by the same
  // strict FrameDecoder every session uses.
  Frame frame{Op::kReplicate, Status::kOk, 42, {1, 2, 3}};
  std::vector<std::uint8_t> wire;
  encode_frame(frame, wire);
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeResult::kFrame);
  EXPECT_EQ(out.op, Op::kReplicate);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ReplicateBodyCodec, RoundTrip) {
  ReplicateBody body;
  body.origin_node = 0xfffffffe;
  body.key = "user:42";
  body.value = {9, 8, 7};
  std::vector<std::uint8_t> wire;
  encode_replicate_body(body, wire);
  ReplicateBody out;
  ASSERT_TRUE(decode_replicate_body(wire, out));
  EXPECT_EQ(out.origin_node, body.origin_node);
  EXPECT_EQ(out.key, body.key);
  EXPECT_EQ(out.value, body.value);
}

TEST(ReplicateBodyCodec, RejectsTruncationAtEveryByte) {
  ReplicateBody body;
  body.key = "k";
  body.value = {1, 2};
  std::vector<std::uint8_t> wire;
  encode_replicate_body(body, wire);
  ReplicateBody out;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_replicate_body(
        std::span<const std::uint8_t>(wire.data(), len), out))
        << "accepted truncation at " << len;
  }
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_replicate_body(wire, out));
}

TEST(StripeShardCodec, BodyAndBlobRoundTrip) {
  StripeShardBody body;
  body.origin_node = 3;
  body.key = "obj";
  body.meta.k = 2;
  body.meta.m = 1;
  body.meta.index = 2;
  body.meta.version = 77;
  body.meta.stripe_len = 1000;
  body.meta.stripe_crc = 0xdeadbeef;
  body.shard = std::vector<std::uint8_t>(500, 0xab);
  std::vector<std::uint8_t> wire;
  encode_stripe_shard_body(body, wire);
  StripeShardBody out;
  ASSERT_TRUE(decode_stripe_shard_body(wire, out));
  EXPECT_EQ(out.key, "obj");
  EXPECT_EQ(out.meta.k, 2u);
  EXPECT_EQ(out.meta.m, 1u);
  EXPECT_EQ(out.meta.index, 2u);
  EXPECT_EQ(out.meta.version, 77u);
  EXPECT_EQ(out.meta.stripe_len, 1000u);
  EXPECT_EQ(out.meta.stripe_crc, 0xdeadbeefu);
  EXPECT_EQ(out.shard, body.shard);

  // The stored blob (what a node keeps under the shard key) is the same
  // meta header + shard bytes.
  std::vector<std::uint8_t> blob;
  encode_shard_blob(body.meta, body.shard, blob);
  ShardMeta meta;
  std::vector<std::uint8_t> shard;
  ASSERT_TRUE(decode_shard_blob(blob, meta, shard));
  EXPECT_EQ(meta.version, 77u);
  EXPECT_EQ(shard, body.shard);
}

TEST(StripeShardCodec, RejectsBadGeometryAndFlags) {
  StripeShardBody body;
  body.key = "k";
  body.meta.k = 2;
  body.meta.m = 1;
  body.meta.index = 0;
  std::vector<std::uint8_t> good;
  encode_stripe_shard_body(body, good);
  StripeShardBody out;
  ASSERT_TRUE(decode_stripe_shard_body(good, out));

  auto corrupt = [&](auto mutate) {
    StripeShardBody b = body;
    mutate(b);
    std::vector<std::uint8_t> wire;
    encode_stripe_shard_body(b, wire);
    StripeShardBody o;
    return decode_stripe_shard_body(wire, o);
  };
  EXPECT_FALSE(corrupt([](StripeShardBody& b) { b.meta.k = 0; }));
  EXPECT_FALSE(corrupt([](StripeShardBody& b) { b.meta.index = 3; }));
  EXPECT_FALSE(corrupt([](StripeShardBody& b) { b.meta.flags = 0x7e; }));
  // A tombstone must carry stripe_len 0.
  EXPECT_FALSE(corrupt([](StripeShardBody& b) {
    b.meta.flags = kShardFlagTombstone;
    b.meta.stripe_len = 12;
  }));
}

TEST(StripeShardCodec, ShardKeysAreDistinctAndOutOfClientNamespace) {
  const std::string k0 = shard_key("obj", 0);
  const std::string k1 = shard_key("obj", 1);
  EXPECT_NE(k0, k1);
  EXPECT_NE(k0, "obj");
  EXPECT_EQ(k0.front(), '\x01');  // reserved prefix, disjoint by convention
  EXPECT_NE(shard_key("obj", 0), shard_key("other", 0));
  // No ambiguity between (key, index) pairs that concatenate alike.
  EXPECT_NE(shard_key("obj1", 2), shard_key("obj", 12));
}

TEST(ReplicaBlob, RoundTripsValueAndVersion) {
  const std::vector<std::uint8_t> value = {1, 2, 3, 255, 0, 42};
  std::vector<std::uint8_t> blob;
  encode_replica_blob(0x0123456789abcdefULL, false, value, blob);
  ReplicaBlob out;
  ASSERT_TRUE(decode_replica_blob(blob, out));
  EXPECT_EQ(out.version, 0x0123456789abcdefULL);
  EXPECT_FALSE(out.tombstone);
  EXPECT_EQ(out.value, value);
}

TEST(ReplicaBlob, TombstoneCarriesNoValue) {
  std::vector<std::uint8_t> blob;
  encode_replica_blob(9, true, {}, blob);
  EXPECT_EQ(blob.size(), 9u);
  ReplicaBlob out;
  ASSERT_TRUE(decode_replica_blob(blob, out));
  EXPECT_TRUE(out.tombstone);
  EXPECT_EQ(out.version, 9u);
  EXPECT_TRUE(out.value.empty());
}

TEST(ReplicaBlob, MalformedBlobsRejected) {
  ReplicaBlob out;
  EXPECT_FALSE(decode_replica_blob({}, out));
  const std::vector<std::uint8_t> short_blob(8, 0);
  EXPECT_FALSE(decode_replica_blob(short_blob, out));
  std::vector<std::uint8_t> bad_flags;
  encode_replica_blob(1, false, {}, bad_flags);
  bad_flags[0] = 0x80;  // unknown flag bit
  EXPECT_FALSE(decode_replica_blob(bad_flags, out));
  std::vector<std::uint8_t> fat_tombstone;
  encode_replica_blob(1, true, {}, fat_tombstone);
  fat_tombstone.push_back(7);  // tombstone with value bytes
  EXPECT_FALSE(decode_replica_blob(fat_tombstone, out));
}

TEST(ReplicaBlob, HigherVersionWinsIsWellOrdered) {
  // The read path's max-version rule needs encode/decode to preserve the
  // total order of versions; spot-check boundary values.
  for (const std::uint64_t v : {0ULL, 1ULL, 255ULL, 256ULL, ~0ULL}) {
    std::vector<std::uint8_t> blob;
    encode_replica_blob(v, false, {}, blob);
    ReplicaBlob out;
    ASSERT_TRUE(decode_replica_blob(blob, out));
    EXPECT_EQ(out.version, v);
  }
}

TEST(PeerHealthCodec, RoundTripAndExactLength) {
  PeerHealthBody body;
  body.node_id = 2;
  body.state = 1;
  std::vector<std::uint8_t> wire;
  encode_peer_health_body(body, wire);
  EXPECT_EQ(wire.size(), 5u);  // u32 node_id | u8 state
  PeerHealthBody out;
  ASSERT_TRUE(decode_peer_health_body(wire, out));
  EXPECT_EQ(out.node_id, 2u);
  EXPECT_EQ(out.state, 1u);
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_peer_health_body(wire, out));
  wire.pop_back();
  wire.back() = 3;  // no serving state has that number
  EXPECT_FALSE(decode_peer_health_body(wire, out));
  wire.pop_back();
  EXPECT_FALSE(decode_peer_health_body(wire, out));
}

TEST(WearReportCodec, RoundTripAndExactLength) {
  WearReportBody body;
  body.node_id = 1;
  body.epoch = 40;
  body.total_erases = 12345;
  body.server_erases = {100, 200, 300, 400};
  std::vector<std::uint8_t> wire;
  encode_wear_report_body(body, wire);
  WearReportBody out;
  ASSERT_TRUE(decode_wear_report_body(wire, out));
  EXPECT_EQ(out.node_id, 1u);
  EXPECT_EQ(out.epoch, 40u);
  EXPECT_EQ(out.total_erases, 12345u);
  EXPECT_EQ(out.server_erases, body.server_erases);
  wire.pop_back();
  EXPECT_FALSE(decode_wear_report_body(wire, out));
  wire.push_back(0);
  wire.push_back(0);
  EXPECT_FALSE(decode_wear_report_body(wire, out));
}

}  // namespace
}  // namespace chameleon::svc
