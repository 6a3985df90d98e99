#include "durability/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "durability/mapped_file.hpp"

namespace chameleon::durability {

namespace {

constexpr std::size_t kFrameHeader = 8;    // u32 len | u32 crc
constexpr std::size_t kSegmentHeader = 8 + 4 + 8 + 8 + 4;

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

FsyncPolicy fsync_policy_from_name(const std::string& name) {
  if (name == "none") return FsyncPolicy::kNone;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "always") return FsyncPolicy::kAlways;
  throw std::invalid_argument("unknown fsync policy: " + name);
}

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  std::vector<std::uint8_t> body;
  BinaryWriter w(body);
  w.u8(static_cast<std::uint8_t>(record.type));
  w.u64(record.seq);
  switch (record.type) {
    case WalRecordType::kPutSim:
      w.u64(record.oid);
      w.u64(record.bytes);
      w.u32(record.epoch);
      break;
    case WalRecordType::kPutValue:
      w.u64(record.oid);
      w.u32(record.epoch);
      w.u32(static_cast<std::uint32_t>(record.value.size()));
      w.bytes(record.value);
      break;
    case WalRecordType::kRemove:
      w.u64(record.oid);
      break;
    case WalRecordType::kEpoch:
      w.u32(record.epoch);
      break;
    case WalRecordType::kMembership:
      w.u32(record.server);
      w.u8(record.up ? 1 : 0);
      break;
  }
  std::vector<std::uint8_t> frame;
  BinaryWriter f(frame);
  f.u32(static_cast<std::uint32_t>(body.size()));
  f.u32(crc32c(std::span<const std::uint8_t>(body)));
  f.bytes(body);
  return frame;
}

WalDecode decode_wal_record(std::span<const std::uint8_t> data,
                            std::size_t offset, WalRecord* record,
                            std::size_t* next_offset) {
  if (offset + kFrameHeader > data.size()) return WalDecode::kTruncated;
  BinaryReader header(data.subspan(offset, kFrameHeader));
  const std::uint32_t len = header.u32();
  const std::uint32_t crc = header.u32();
  // An absurd length is corruption, not truncation: without this cap a
  // flipped high bit in `len` would misreport mid-log damage as a torn tail.
  constexpr std::uint32_t kMaxBody = 64u << 20;
  if (len < 9 || len > kMaxBody) return WalDecode::kCorrupt;
  if (offset + kFrameHeader + len > data.size()) return WalDecode::kTruncated;
  const auto body = data.subspan(offset + kFrameHeader, len);
  if (crc32c(body) != crc) return WalDecode::kCorrupt;
  try {
    BinaryReader r(body);
    WalRecord rec;
    const std::uint8_t type = r.u8();
    rec.seq = r.u64();
    switch (type) {
      case 1:
        rec.type = WalRecordType::kPutSim;
        rec.oid = r.u64();
        rec.bytes = r.u64();
        rec.epoch = r.u32();
        break;
      case 2: {
        rec.type = WalRecordType::kPutValue;
        rec.oid = r.u64();
        rec.epoch = r.u32();
        const std::uint32_t vlen = r.u32();
        const auto view = r.bytes(vlen);
        rec.value.assign(view.begin(), view.end());
        break;
      }
      case 3:
        rec.type = WalRecordType::kRemove;
        rec.oid = r.u64();
        break;
      case 4:
        rec.type = WalRecordType::kEpoch;
        rec.epoch = r.u32();
        break;
      case 5:
        rec.type = WalRecordType::kMembership;
        rec.server = r.u32();
        rec.up = r.u8() != 0;
        break;
      default:
        return WalDecode::kCorrupt;
    }
    if (!r.done()) return WalDecode::kCorrupt;  // trailing junk in the body
    *record = std::move(rec);
    *next_offset = offset + kFrameHeader + len;
    return WalDecode::kRecord;
  } catch (const std::runtime_error&) {
    return WalDecode::kCorrupt;  // body shorter than its type demands
  }
}

std::filesystem::path wal_segment_path(const std::filesystem::path& dir,
                                       std::uint64_t segment_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(segment_seq));
  return dir / name;
}

std::vector<std::filesystem::path> list_wal_segments(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> segments;
  if (!std::filesystem::exists(dir)) return segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == 4 + 16 + 4 && name.starts_with("wal-") &&
        name.ends_with(".log")) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) {
              return wal_segment_seq(a) < wal_segment_seq(b);
            });
  return segments;
}

std::uint64_t wal_segment_seq(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  return std::stoull(name.substr(4, 16), nullptr, 16);
}

void read_wal_segment(const std::filesystem::path& path, bool last_segment,
                      const std::function<void(const WalRecord&)>& fn,
                      WalReplayStats* stats, std::uint64_t* expected_seq) {
  const MappedFile file(path);
  const std::span<const std::uint8_t> data = file.bytes();

  if (data.size() < kSegmentHeader) {
    // A header torn mid-write can only happen to the newest segment.
    if (last_segment) {
      stats->truncated_bytes += data.size();
      stats->torn_tail = !data.empty();
      ++stats->segments;
      return;
    }
    throw std::runtime_error("wal: truncated segment header in " +
                             path.string());
  }
  BinaryReader header(data.subspan(0, kSegmentHeader));
  char magic[8];
  for (char& c : magic) c = static_cast<char>(header.u8());
  if (std::memcmp(magic, kWalMagic, 8) != 0) {
    throw std::runtime_error("wal: bad magic in " + path.string());
  }
  const std::uint32_t version = header.u32();
  if (version != kWalVersion) {
    throw std::runtime_error("wal: unsupported version " +
                             std::to_string(version) + " in " + path.string());
  }
  const std::uint64_t segment_seq = header.u64();
  header.u64();  // first_record_seq: informational; seq chain is authoritative
  const std::uint32_t header_crc =
      crc32c(data.subspan(0, kSegmentHeader - 4));
  BinaryReader crc_reader(data.subspan(kSegmentHeader - 4, 4));
  if (crc_reader.u32() != header_crc) {
    if (last_segment) {
      stats->truncated_bytes += data.size();
      stats->torn_tail = true;
      ++stats->segments;
      return;
    }
    throw std::runtime_error("wal: segment header CRC mismatch in " +
                             path.string());
  }
  if (segment_seq != wal_segment_seq(path)) {
    throw std::runtime_error("wal: segment seq does not match filename: " +
                             path.string());
  }

  ++stats->segments;
  std::size_t offset = kSegmentHeader;
  while (offset < data.size()) {
    WalRecord record;
    std::size_t next = 0;
    const WalDecode outcome = decode_wal_record(data, offset, &record, &next);
    if (outcome != WalDecode::kRecord) {
      // Any invalid frame in the LAST segment is treated as a torn tail:
      // after a kill -9 the final append may be partial, and nothing valid
      // can follow a break in the byte stream. The same break in an older
      // segment is silent data loss — fail loudly instead.
      if (last_segment) {
        stats->truncated_bytes += data.size() - offset;
        stats->torn_tail = true;
        return;
      }
      throw std::runtime_error(
          "wal: corrupt record mid-log (segment " + path.string() +
          ", offset " + std::to_string(offset) + ")");
    }
    if (*expected_seq != 0 && record.seq != *expected_seq) {
      throw std::runtime_error(
          "wal: record sequence broken in " + path.string() + ": expected " +
          std::to_string(*expected_seq) + ", got " +
          std::to_string(record.seq));
    }
    *expected_seq = record.seq + 1;
    fn(record);
    ++stats->records;
    offset = next;
  }
}

WalWriter::WalWriter(std::filesystem::path dir, FsyncPolicy policy,
                     std::uint64_t segment_bytes,
                     std::uint64_t fsync_interval_bytes)
    : dir_(std::move(dir)),
      policy_(policy),
      segment_bytes_(segment_bytes),
      fsync_interval_bytes_(fsync_interval_bytes) {}

WalWriter::~WalWriter() { close(); }

void WalWriter::open_segment(std::uint64_t segment_seq,
                             std::uint64_t first_record_seq) {
  close();
  const std::filesystem::path path = wal_segment_path(dir_, segment_seq);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) sys_fail("wal: open " + path.string());
  segment_seq_ = segment_seq;
  segment_written_ = 0;
  synced_through_ = bytes_appended_;

  std::vector<std::uint8_t> header;
  BinaryWriter w(header);
  for (const char c : kWalMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kWalVersion);
  w.u64(segment_seq);
  w.u64(first_record_seq);
  w.u32(crc32c(std::span<const std::uint8_t>(header).first(28)));
  write_all(header.data(), header.size());
  // The header must be stable before any record relies on it.
  if (policy_ != FsyncPolicy::kNone) fsync_fd();
}

std::uint64_t WalWriter::append(WalRecord record) {
  if (fd_ < 0) throw std::runtime_error("wal: append before open_segment");
  if (segment_written_ >= segment_bytes_) {
    // Rotate BEFORE the record so a segment never splits a frame.
    ++rotations_;
    open_segment(segment_seq_ + 1, next_record_seq_);
  }
  record.seq = next_record_seq_++;
  const std::vector<std::uint8_t> frame = encode_wal_record(record);
  write_all(frame.data(), frame.size());
  segment_written_ += frame.size();
  bytes_appended_ += frame.size();
  ++records_appended_;
  if (auto_fsync_) {
    switch (policy_) {
      case FsyncPolicy::kAlways:
        fsync_fd();
        break;
      case FsyncPolicy::kInterval:
        if (unsynced_bytes() >= fsync_interval_bytes_) fsync_fd();
        break;
      case FsyncPolicy::kNone:
        break;
    }
  }
  return record.seq;
}

void WalWriter::sync() {
  if (fd_ >= 0 && unsynced_bytes() > 0) fsync_fd();
}

WalWriter::SyncTicket WalWriter::begin_sync() {
  SyncTicket ticket;
  ticket.last_record_seq = last_record_seq();
  ticket.appended = bytes_appended_;
  if (fd_ >= 0 && unsynced_bytes() > 0) {
    // A dup stays valid if a rotation closes fd_ before the fsync runs; the
    // records it covers are then also synced by that close().
    ticket.fd = ::dup(fd_);
    if (ticket.fd < 0) sys_fail("wal: dup");
  }
  return ticket;
}

void WalWriter::sync_ticket(const SyncTicket& ticket) {
  const int rc = ::fsync(ticket.fd);
  const int err = errno;
  ::close(ticket.fd);
  if (rc != 0) {
    errno = err;
    sys_fail("wal: fsync");
  }
}

void WalWriter::end_sync(const SyncTicket& ticket) {
  // Clear only what the fsync covered: appends that landed after
  // begin_sync() stay unsynced. bytes_appended_ only grows and a rotation
  // moves synced_through_ to it, so max() is exact across segments.
  synced_through_ = std::max(synced_through_, ticket.appended);
  ++fsyncs_;
}

void WalWriter::close() {
  if (fd_ < 0) return;
  // A durable policy must not drop bytes at a segment boundary: rotation
  // (and group-commit mode, which defers per-record fsyncs) can leave
  // unsynced records in the outgoing segment, and sync() after rotation
  // only reaches the NEW fd.
  if (unsynced_bytes() > 0 && policy_ != FsyncPolicy::kNone) fsync_fd();
  ::close(fd_);
  fd_ = -1;
}

void WalWriter::write_all(const std::uint8_t* data, std::size_t len) {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd_, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("wal: write");
    }
    written += static_cast<std::size_t>(n);
  }
}

void WalWriter::fsync_fd() {
  if (::fsync(fd_) != 0) sys_fail("wal: fsync");
  synced_through_ = bytes_appended_;
  ++fsyncs_;
}

}  // namespace chameleon::durability
