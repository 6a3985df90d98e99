// Versioned length-prefixed binary wire protocol for the network service
// layer (docs/SERVICE.md). Every message is one frame (version 3):
//
//   offset size field
//   0      4    magic "CHML"
//   4      1    protocol version (= kWireVersion)
//   5      1    opcode (Op)
//   6      1    status (Status; kOk on requests)
//   7      1    reserved, must be 0
//   8      8    request id (echoed verbatim in the response)
//   16     4    payload length (little-endian; bounded by max_payload)
//   20     4    deadline (milliseconds of budget granted by the sender,
//               relative to receipt; 0 = none; 0 in responses)
//   24     4    reserved, must be 0
//   28     4    CRC32C of the payload bytes
//   32     ...  payload
//
// Version 2 widened the header from 24 to 32 bytes to carry the per-request
// deadline budget (docs/SERVICE.md): a server that dequeues a request after
// its deadline lapsed sheds it with Status::kDeadlineExceeded instead of
// servicing it late. Version 3 kept that header, dropped the ring-placement
// op (so the ops after it renumbered) and shrank the PEER_HEALTH bodies.
//
// Decoding is strict and bounded: FrameDecoder validates the header fields
// *before* waiting for the payload (an oversized length is rejected from the
// first 32 bytes, so a hostile peer cannot make the server buffer unbounded
// data), checks the payload checksum, and never throws — every malformed
// input maps to a DecodeResult error that poisons the decoder, after which
// the connection must be torn down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32c.hpp"

namespace chameleon::svc {

/// CRC32C (Castagnoli) over `data`; the shared implementation lives in
/// common/crc32c.hpp so the durability layer frames with the same checksum.
inline std::uint32_t crc32c(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0) {
  return chameleon::crc32c(data, seed);
}

enum class Op : std::uint8_t {
  kPing = 0,  ///< liveness probe; empty payload both ways
  kGet,       ///< request: key; response: value bytes
  kPut,       ///< request: key + value; response: empty
  kDelete,    ///< request: key; response: empty
  kStats,     ///< request: empty; response: JSON service counters
  kMetrics,   ///< request: empty; response: Prometheus text exposition
  kDigest,    ///< request: empty; response: 16-hex-char cluster digest
  kHealth,    ///< request: empty; response: JSON readiness report
              ///< (state recovering|serving|draining + recovery counters);
              ///< answered inline in every state so probes never block
  // --- inter-node peer ops (docs/DISTRIBUTED.md) ---------------------------
  // chameleon_router sends these to its chameleon_server data nodes; every
  // server answers them.
  kReplicate,    ///< request: replicate body (origin node + key + value);
                 ///< stores a full replica under the client key
  kStripeWrite,  ///< request: stripe-shard body (EC geometry + shard bytes);
                 ///< stores one shard blob under the internal shard key
  kPeerHealth,   ///< request: empty; response: peer-health body (this
                 ///< server's node id + serving state), answered inline in
                 ///< every state: the router's liveness probe
  kWearReport,   ///< request: empty; response: wear-report body (per-flash-
                 ///< server erase counters) for cross-node wear aggregation
  kCount
};
const char* op_name(Op op);

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound,      ///< GET/DELETE of an absent key
  kRetryLater,    ///< shed by admission control or a recovering server
  kBadRequest,    ///< malformed body; do not retry
  kShuttingDown,  ///< server is draining; reconnect elsewhere/later
  kError,         ///< internal failure; payload carries a message
  kDeadlineExceeded,  ///< the request's deadline lapsed before execution;
                      ///< the server shed it without touching the store
  kCount
};
const char* status_name(Status s);

inline constexpr std::uint8_t kWireVersion = 3;
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::uint32_t kDefaultMaxPayload = 4u << 20;  ///< 4 MiB
inline constexpr std::uint32_t kMaxKeyBytes = 4096;
/// The literal magic bytes, in wire order.
inline constexpr std::uint8_t kMagic[4] = {'C', 'H', 'M', 'L'};

struct Frame {
  Op op = Op::kPing;
  Status status = Status::kOk;  ///< kOk on requests
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
  /// Deadline budget the sender grants, in milliseconds relative to receipt
  /// (relative, so no clock synchronization is assumed). 0 = no deadline.
  /// Always 0 in responses. Deliberately the last member so aggregate
  /// initialization of the classic four fields keeps working.
  std::uint32_t deadline_ms = 0;
};

/// Append the encoded frame to `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_frame(const Frame& frame);

enum class DecodeResult {
  kNeedMore,  ///< buffer holds only a partial frame; feed more bytes
  kFrame,     ///< one complete, validated frame extracted
  kBadMagic,
  kBadVersion,
  kBadOp,
  kBadStatus,
  kBadReserved,
  kOversized,  ///< payload length exceeds the decoder's max_payload
  kBadCrc,
};
const char* decode_result_name(DecodeResult r);

/// Incremental frame extractor for one connection. feed() appends raw bytes;
/// next() pops complete frames. The first malformed header or checksum
/// poisons the decoder permanently (framing is lost, so resynchronization is
/// impossible); callers must close the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> data);

  /// Extract the next frame into `out`. Returns kFrame on success, kNeedMore
  /// when the buffer ends mid-frame, or the sticky error.
  DecodeResult next(Frame& out);

  bool poisoned() const { return error_.has_value(); }
  std::size_t buffered() const { return buffer_.size() - consumed_; }
  std::uint32_t max_payload() const { return max_payload_; }
  std::uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  DecodeResult poison(DecodeResult r) {
    error_ = r;
    // Framing is lost; buffered bytes can never parse again. Drop them so a
    // poisoned session holds no dead memory while it awaits teardown.
    buffer_.clear();
    consumed_ = 0;
    return r;
  }

  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already handed out
  std::optional<DecodeResult> error_;
  std::uint64_t frames_decoded_ = 0;
};

// --- request body codecs ---------------------------------------------------
// Bodies are length-prefixed with little-endian u32 fields. Decoders are
// exact: trailing bytes after the declared fields make the body malformed
// (kBadRequest at the service layer), and every length is validated against
// the remaining payload before any read.

/// PUT body: u32 key_len | key | u32 value_len | value.
struct PutBody {
  std::string key;
  std::vector<std::uint8_t> value;
};
void encode_put_body(std::string_view key, std::span<const std::uint8_t> value,
                     std::vector<std::uint8_t>& out);
bool decode_put_body(std::span<const std::uint8_t> payload, PutBody& out);

/// GET/DELETE body: u32 key_len | key.
void encode_key_body(std::string_view key, std::vector<std::uint8_t>& out);
bool decode_key_body(std::span<const std::uint8_t> payload, std::string& out);

// --- peer-op body codecs (docs/DISTRIBUTED.md) -----------------------------
// Same conventions as the client bodies: little-endian fixed-width fields,
// exact lengths, decoders that validate before every read. All of these ride
// inside ordinary frames, so the CRC32C payload checksum already covers
// them; the stripe body additionally carries the CRC of the *original*
// object so the router can verify a reconstruction end to end.

/// REPLICATE body: u32 origin_node | u32 key_len | key | u32 value_len |
/// value. Stored under the plain client key on the receiving node.
struct ReplicateBody {
  std::uint32_t origin_node = 0;  ///< router/originating node id (diagnostic)
  std::string key;
  std::vector<std::uint8_t> value;
};
void encode_replicate_body(const ReplicateBody& body,
                           std::vector<std::uint8_t>& out);
bool decode_replicate_body(std::span<const std::uint8_t> payload,
                           ReplicateBody& out);

/// Stripe shard flags (ShardMeta::flags).
inline constexpr std::uint8_t kShardFlagTombstone = 0x01;

/// Erasure-coding geometry + integrity metadata for one stripe shard. The
/// same struct is embedded in the stored shard blob so a reader can recover
/// the stripe parameters — and the write's version — from any single shard.
/// Versions are what make reads correct across fail/rejoin: a rejoined node
/// may hold shards of an older write, and the reader reconstructs only from
/// the highest version with >= k shards. A tombstone (flags bit 0) records
/// a versioned delete; its stripe_len is 0 and it carries no shard bytes.
struct ShardMeta {
  std::uint16_t k = 0;       ///< data shards
  std::uint16_t m = 0;       ///< parity shards
  std::uint32_t index = 0;   ///< this shard's index in [0, k + m)
  std::uint64_t version = 0;  ///< router-assigned monotone write version
  std::uint8_t flags = 0;     ///< kShardFlag* bits
  std::uint64_t stripe_len = 0;  ///< original object payload bytes
  std::uint32_t stripe_crc = 0;  ///< CRC32C of the original object payload
};

/// STRIPE_WRITE body: u32 origin_node | u32 key_len | key | shard blob,
/// where the shard blob is ShardMeta (u16 k | u16 m | u32 index |
/// u64 version | u8 flags | u64 stripe_len | u32 stripe_crc) followed by
/// the raw shard bytes.
struct StripeShardBody {
  std::uint32_t origin_node = 0;
  std::string key;  ///< the *client* key; nodes store under shard_key()
  ShardMeta meta;
  std::vector<std::uint8_t> shard;
};
void encode_stripe_shard_body(const StripeShardBody& body,
                              std::vector<std::uint8_t>& out);
bool decode_stripe_shard_body(std::span<const std::uint8_t> payload,
                              StripeShardBody& out);

/// The self-describing blob a node stores for one shard (and a router reads
/// back with a plain GET of the shard key): ShardMeta header + shard bytes.
void encode_shard_blob(const ShardMeta& meta,
                       std::span<const std::uint8_t> shard,
                       std::vector<std::uint8_t>& out);
bool decode_shard_blob(std::span<const std::uint8_t> blob, ShardMeta& meta,
                       std::vector<std::uint8_t>& shard);

/// Replica blob flags (ReplicaBlob::tombstone on the wire).
inline constexpr std::uint8_t kReplicaFlagTombstone = 0x01;

/// The self-describing blob a node stores for one whole-value replica
/// (replicate mode, docs/DISTRIBUTED.md): u8 flags | u64 version
/// (little-endian) | value bytes. The router never stores a client value
/// verbatim — the version is what makes reads correct across fail/rejoin
/// (readers keep the highest version; nodes apply replica writes
/// newest-wins), and the tombstone flag is what makes deletes rejoin-safe
/// (a rejoined node cannot resurrect a deleted key). Tombstones carry no
/// value bytes: 9 bytes exactly.
struct ReplicaBlob {
  std::uint64_t version = 0;
  bool tombstone = false;
  std::vector<std::uint8_t> value;  ///< empty for tombstones
};

void encode_replica_blob(std::uint64_t version, bool tombstone,
                         std::span<const std::uint8_t> value,
                         std::vector<std::uint8_t>& out);
/// False on malformed input (short blob, unknown flags, tombstone carrying
/// value bytes).
bool decode_replica_blob(std::span<const std::uint8_t> blob, ReplicaBlob& out);

/// Internal key a stripe shard is stored under. The "\x01" prefix keeps the
/// namespace disjoint from ordinary client traffic by convention (client
/// keys are free-form bytes, but tools and tests never start keys with 0x01).
std::string shard_key(std::string_view key, std::uint32_t index);

/// PEER_HEALTH response: u32 node_id | u8 state, the answering server's node
/// id and serving state (0 = recovering, 1 = serving, 2 = draining). The
/// request payload is empty.
struct PeerHealthBody {
  std::uint32_t node_id = 0;
  std::uint8_t state = 0;
};
void encode_peer_health_body(const PeerHealthBody& body,
                             std::vector<std::uint8_t>& out);
bool decode_peer_health_body(std::span<const std::uint8_t> payload,
                             PeerHealthBody& out);

/// WEAR_REPORT response: u32 node_id | u64 epoch | u64 total_erases |
/// u32 server_count | server_count x u64 per-flash-server erase counters.
/// The request payload is empty.
struct WearReportBody {
  std::uint32_t node_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t total_erases = 0;
  std::vector<std::uint64_t> server_erases;
};
void encode_wear_report_body(const WearReportBody& body,
                             std::vector<std::uint8_t>& out);
bool decode_wear_report_body(std::span<const std::uint8_t> payload,
                             WearReportBody& out);

}  // namespace chameleon::svc
