#include "svc/wire.hpp"

#include <cstring>

namespace chameleon::svc {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kDelete: return "delete";
    case Op::kStats: return "stats";
    case Op::kMetrics: return "metrics";
    case Op::kDigest: return "digest";
    case Op::kHealth: return "health";
    case Op::kReplicate: return "replicate";
    case Op::kStripeWrite: return "stripe_write";
    case Op::kPeerHealth: return "peer_health";
    case Op::kWearReport: return "wear_report";
    case Op::kCount: break;
  }
  return "unknown";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kRetryLater: return "retry_later";
    case Status::kBadRequest: return "bad_request";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kError: return "error";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kCount: break;
  }
  return "unknown";
}

const char* decode_result_name(DecodeResult r) {
  switch (r) {
    case DecodeResult::kNeedMore: return "need_more";
    case DecodeResult::kFrame: return "frame";
    case DecodeResult::kBadMagic: return "bad_magic";
    case DecodeResult::kBadVersion: return "bad_version";
    case DecodeResult::kBadOp: return "bad_op";
    case DecodeResult::kBadStatus: return "bad_status";
    case DecodeResult::kBadReserved: return "bad_reserved";
    case DecodeResult::kOversized: return "oversized";
    case DecodeResult::kBadCrc: return "bad_crc";
  }
  return "unknown";
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + kHeaderBytes + frame.payload.size());
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame.op));
  out.push_back(static_cast<std::uint8_t>(frame.status));
  out.push_back(0);  // reserved
  put_u64(out, frame.request_id);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  put_u32(out, frame.deadline_ms);
  put_u32(out, 0);  // reserved
  put_u32(out, crc32c(frame.payload));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (error_.has_value()) return;  // poisoned: drop input
  // Compact once the consumed prefix dominates, so the buffer stays bounded
  // by one frame plus one read's worth of bytes.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

DecodeResult FrameDecoder::next(Frame& out) {
  if (error_.has_value()) return *error_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return DecodeResult::kNeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;

  // Header validation runs on the first 32 bytes alone, so a hostile length
  // field is rejected before any payload is awaited or buffered.
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    return poison(DecodeResult::kBadMagic);
  }
  if (h[4] != kWireVersion) return poison(DecodeResult::kBadVersion);
  if (h[5] >= static_cast<std::uint8_t>(Op::kCount)) {
    return poison(DecodeResult::kBadOp);
  }
  if (h[6] >= static_cast<std::uint8_t>(Status::kCount)) {
    return poison(DecodeResult::kBadStatus);
  }
  if (h[7] != 0) return poison(DecodeResult::kBadReserved);
  const std::uint32_t len = get_u32(h + 16);
  if (len > max_payload_) return poison(DecodeResult::kOversized);
  if (get_u32(h + 24) != 0) return poison(DecodeResult::kBadReserved);

  if (avail < kHeaderBytes + len) return DecodeResult::kNeedMore;
  const std::uint8_t* body = h + kHeaderBytes;
  if (crc32c({body, len}) != get_u32(h + 28)) {
    return poison(DecodeResult::kBadCrc);
  }

  out.op = static_cast<Op>(h[5]);
  out.status = static_cast<Status>(h[6]);
  out.request_id = get_u64(h + 8);
  out.deadline_ms = get_u32(h + 20);
  out.payload.assign(body, body + len);
  consumed_ += kHeaderBytes + len;
  ++frames_decoded_;
  return DecodeResult::kFrame;
}

void encode_put_body(std::string_view key, std::span<const std::uint8_t> value,
                     std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 8 + key.size() + value.size());
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  out.insert(out.end(), key.begin(), key.end());
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

bool decode_put_body(std::span<const std::uint8_t> payload, PutBody& out) {
  const std::uint8_t* p = payload.data();
  std::size_t remaining = payload.size();
  if (remaining < 4) return false;
  const std::uint32_t key_len = get_u32(p);
  p += 4;
  remaining -= 4;
  if (key_len == 0 || key_len > kMaxKeyBytes || key_len > remaining) {
    return false;
  }
  out.key.assign(reinterpret_cast<const char*>(p), key_len);
  p += key_len;
  remaining -= key_len;
  if (remaining < 4) return false;
  const std::uint32_t value_len = get_u32(p);
  p += 4;
  remaining -= 4;
  if (value_len != remaining) return false;  // trailing bytes are an error
  out.value.assign(p, p + value_len);
  return true;
}

void encode_key_body(std::string_view key, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 4 + key.size());
  put_u32(out, static_cast<std::uint32_t>(key.size()));
  out.insert(out.end(), key.begin(), key.end());
}

bool decode_key_body(std::span<const std::uint8_t> payload, std::string& out) {
  if (payload.size() < 4) return false;
  const std::uint32_t key_len = get_u32(payload.data());
  if (key_len == 0 || key_len > kMaxKeyBytes) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(key_len)) return false;
  out.assign(reinterpret_cast<const char*>(payload.data() + 4), key_len);
  return true;
}

// --- peer-op body codecs ---------------------------------------------------

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    static_cast<std::uint16_t>(p[1]) << 8);
}

/// Bounded cursor over a payload: every read checks remaining bytes first.
struct Cursor {
  const std::uint8_t* p;
  std::size_t remaining;

  explicit Cursor(std::span<const std::uint8_t> payload)
      : p(payload.data()), remaining(payload.size()) {}

  bool u16(std::uint16_t& out) {
    if (remaining < 2) return false;
    out = get_u16(p);
    p += 2;
    remaining -= 2;
    return true;
  }
  bool u32(std::uint32_t& out) {
    if (remaining < 4) return false;
    out = get_u32(p);
    p += 4;
    remaining -= 4;
    return true;
  }
  bool u64(std::uint64_t& out) {
    if (remaining < 8) return false;
    out = get_u64(p);
    p += 8;
    remaining -= 8;
    return true;
  }
  bool bytes(std::size_t n, const std::uint8_t*& out) {
    if (remaining < n) return false;
    out = p;
    p += n;
    remaining -= n;
    return true;
  }
};

bool read_key(Cursor& c, std::string& out) {
  std::uint32_t key_len = 0;
  if (!c.u32(key_len)) return false;
  if (key_len == 0 || key_len > kMaxKeyBytes) return false;
  const std::uint8_t* kp = nullptr;
  if (!c.bytes(key_len, kp)) return false;
  out.assign(reinterpret_cast<const char*>(kp), key_len);
  return true;
}

constexpr std::size_t kShardMetaBytes = 2 + 2 + 4 + 8 + 1 + 8 + 4;

void put_shard_meta(std::vector<std::uint8_t>& out, const ShardMeta& meta) {
  put_u16(out, meta.k);
  put_u16(out, meta.m);
  put_u32(out, meta.index);
  put_u64(out, meta.version);
  out.push_back(meta.flags);
  put_u64(out, meta.stripe_len);
  put_u32(out, meta.stripe_crc);
}

bool read_shard_meta(Cursor& c, ShardMeta& meta) {
  const std::uint8_t* fp = nullptr;
  if (!c.u16(meta.k) || !c.u16(meta.m) || !c.u32(meta.index) ||
      !c.u64(meta.version) || !c.bytes(1, fp)) {
    return false;
  }
  meta.flags = *fp;
  if (!c.u64(meta.stripe_len) || !c.u32(meta.stripe_crc)) return false;
  // Geometry sanity: at least one data shard, index within the stripe, and a
  // stripe that cannot exceed the frame ceiling (shards are ~len/k each, so
  // a hostile stripe_len would otherwise promise unbounded reconstruction).
  if (meta.k == 0) return false;
  if (meta.index >= static_cast<std::uint32_t>(meta.k) + meta.m) return false;
  if (meta.stripe_len > kDefaultMaxPayload) return false;
  if ((meta.flags & ~kShardFlagTombstone) != 0) return false;
  if ((meta.flags & kShardFlagTombstone) != 0 && meta.stripe_len != 0) {
    return false;
  }
  return true;
}

}  // namespace

void encode_replicate_body(const ReplicateBody& body,
                           std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 12 + body.key.size() + body.value.size());
  put_u32(out, body.origin_node);
  put_u32(out, static_cast<std::uint32_t>(body.key.size()));
  out.insert(out.end(), body.key.begin(), body.key.end());
  put_u32(out, static_cast<std::uint32_t>(body.value.size()));
  out.insert(out.end(), body.value.begin(), body.value.end());
}

bool decode_replicate_body(std::span<const std::uint8_t> payload,
                           ReplicateBody& out) {
  Cursor c(payload);
  if (!c.u32(out.origin_node)) return false;
  if (!read_key(c, out.key)) return false;
  std::uint32_t value_len = 0;
  if (!c.u32(value_len)) return false;
  if (value_len != c.remaining) return false;  // trailing bytes are an error
  out.value.assign(c.p, c.p + value_len);
  return true;
}

void encode_stripe_shard_body(const StripeShardBody& body,
                              std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 8 + body.key.size() + kShardMetaBytes +
              body.shard.size());
  put_u32(out, body.origin_node);
  put_u32(out, static_cast<std::uint32_t>(body.key.size()));
  out.insert(out.end(), body.key.begin(), body.key.end());
  put_shard_meta(out, body.meta);
  out.insert(out.end(), body.shard.begin(), body.shard.end());
}

bool decode_stripe_shard_body(std::span<const std::uint8_t> payload,
                              StripeShardBody& out) {
  Cursor c(payload);
  if (!c.u32(out.origin_node)) return false;
  if (!read_key(c, out.key)) return false;
  if (!read_shard_meta(c, out.meta)) return false;
  out.shard.assign(c.p, c.p + c.remaining);  // shard bytes run to the end
  return true;
}

void encode_shard_blob(const ShardMeta& meta,
                       std::span<const std::uint8_t> shard,
                       std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + kShardMetaBytes + shard.size());
  put_shard_meta(out, meta);
  out.insert(out.end(), shard.begin(), shard.end());
}

bool decode_shard_blob(std::span<const std::uint8_t> blob, ShardMeta& meta,
                       std::vector<std::uint8_t>& shard) {
  Cursor c(blob);
  if (!read_shard_meta(c, meta)) return false;
  shard.assign(c.p, c.p + c.remaining);
  return true;
}

void encode_replica_blob(std::uint64_t version, bool tombstone,
                         std::span<const std::uint8_t> value,
                         std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 9 + value.size());
  out.push_back(tombstone ? kReplicaFlagTombstone : 0);
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(version >> shift));
  }
  out.insert(out.end(), value.begin(), value.end());
}

bool decode_replica_blob(std::span<const std::uint8_t> blob,
                         ReplicaBlob& out) {
  if (blob.size() < 9) return false;
  const std::uint8_t flags = blob[0];
  if ((flags & ~kReplicaFlagTombstone) != 0) return false;
  out.tombstone = (flags & kReplicaFlagTombstone) != 0;
  out.version = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    out.version |= static_cast<std::uint64_t>(blob[1 + i]) << (8 * i);
  }
  if (out.tombstone && blob.size() != 9) return false;
  out.value.assign(blob.begin() + 9, blob.end());
  return true;
}

std::string shard_key(std::string_view key, std::uint32_t index) {
  std::string out;
  out.reserve(key.size() + 8);
  out.push_back('\x01');
  out.push_back('s');
  out += std::to_string(index);
  out.push_back('\x01');
  out += key;
  return out;
}

void encode_peer_health_body(const PeerHealthBody& body,
                             std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 5);
  put_u32(out, body.node_id);
  out.push_back(body.state);
}

bool decode_peer_health_body(std::span<const std::uint8_t> payload,
                             PeerHealthBody& out) {
  Cursor c(payload);
  if (!c.u32(out.node_id)) return false;
  const std::uint8_t* sp = nullptr;
  if (!c.bytes(1, sp)) return false;
  out.state = *sp;
  if (out.state > 2) return false;
  return c.remaining == 0;
}

void encode_wear_report_body(const WearReportBody& body,
                             std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + 24 + 8 * body.server_erases.size());
  put_u32(out, body.node_id);
  put_u64(out, body.epoch);
  put_u64(out, body.total_erases);
  put_u32(out, static_cast<std::uint32_t>(body.server_erases.size()));
  for (std::uint64_t e : body.server_erases) put_u64(out, e);
}

bool decode_wear_report_body(std::span<const std::uint8_t> payload,
                             WearReportBody& out) {
  Cursor c(payload);
  if (!c.u32(out.node_id)) return false;
  if (!c.u64(out.epoch)) return false;
  if (!c.u64(out.total_erases)) return false;
  std::uint32_t count = 0;
  if (!c.u32(count)) return false;
  if (c.remaining != 8 * static_cast<std::size_t>(count)) return false;
  out.server_erases.clear();
  out.server_erases.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t e = 0;
    c.u64(e);
    out.server_erases.push_back(e);
  }
  return true;
}

}  // namespace chameleon::svc
