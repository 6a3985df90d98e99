#include "durability/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "core/chameleon.hpp"
#include "durability/mapped_file.hpp"
#include "fault/digest.hpp"

namespace chameleon::durability {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void serialize_object_meta(BinaryWriter& w, const meta::ObjectMeta& m) {
  w.u64(m.oid);
  w.u64(m.size_bytes);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.u32(m.placement_version);
  w.u8(static_cast<std::uint8_t>(m.src.size()));
  for (const ServerId s : m.src) w.u32(s);
  w.u8(static_cast<std::uint8_t>(m.dst.size()));
  for (const ServerId s : m.dst) w.u32(s);
  w.u32(m.state_since);
  w.f64(m.popularity);
  w.u32(m.writes_in_epoch);
  w.u64(m.total_writes);
  w.u32(m.heat_epoch);
  w.u32(m.last_write_epoch);
}

meta::ObjectMeta deserialize_object_meta(BinaryReader& r) {
  meta::ObjectMeta m;
  m.oid = r.u64();
  m.size_bytes = r.u64();
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(meta::RedState::kEcEwo)) {
    throw std::runtime_error("checkpoint: invalid redundancy state");
  }
  m.state = static_cast<meta::RedState>(state);
  m.placement_version = r.u32();
  const std::uint8_t src_count = r.u8();
  if (src_count > 16) throw std::runtime_error("checkpoint: src overflow");
  for (std::uint8_t i = 0; i < src_count; ++i) m.src.push_back(r.u32());
  const std::uint8_t dst_count = r.u8();
  if (dst_count > 16) throw std::runtime_error("checkpoint: dst overflow");
  for (std::uint8_t i = 0; i < dst_count; ++i) m.dst.push_back(r.u32());
  m.state_since = r.u32();
  m.popularity = r.f64();
  m.writes_in_epoch = r.u32();
  m.total_writes = r.u64();
  m.heat_epoch = r.u32();
  m.last_write_epoch = r.u32();
  return m;
}

/// Streams one checkpoint file. The payload is serialized into a reused
/// buffer that is written out and folded into the CRC whenever it passes
/// kFlushBytes, so a checkpoint costs one bounded buffer, not a copy of the
/// state (docs/DURABILITY.md: the bound also keeps glibc from leaving
/// later checkpoint buffers resident).
class CheckpointFileWriter {
 public:
  static constexpr std::size_t kFlushBytes = 1 * kMiB;

  explicit CheckpointFileWriter(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644)) {
    if (fd_ < 0) sys_fail("checkpoint: open " + path.string());
    buf_.reserve(kFlushBytes + 64 * kKiB);
    // payload_len is not known yet: finish() patches it in place.
    for (const char c : kCheckpointMagic) out_.u8(static_cast<std::uint8_t>(c));
    out_.u64(0);
    write_buffer();
  }
  ~CheckpointFileWriter() {
    if (fd_ >= 0) ::close(fd_);
  }

  CheckpointFileWriter(const CheckpointFileWriter&) = delete;
  CheckpointFileWriter& operator=(const CheckpointFileWriter&) = delete;

  BinaryWriter& out() { return out_; }

  /// Write the buffered payload bytes out and fold them into the CRC.
  void flush() {
    crc_ = crc32c(std::span<const std::uint8_t>(buf_), crc_);
    payload_len_ += buf_.size();
    write_buffer();
  }
  void flush_if_full() {
    if (buf_.size() >= kFlushBytes) flush();
  }

  /// Append the CRC, patch payload_len, fsync and close. Returns the file
  /// size.
  std::uint64_t finish() {
    flush();
    out_.u32(crc_);
    write_buffer();
    out_.u64(payload_len_);
    if (::pwrite(fd_, buf_.data(), buf_.size(), sizeof kCheckpointMagic) !=
        static_cast<ssize_t>(buf_.size())) {
      sys_fail("checkpoint: write length");
    }
    buf_.clear();
    if (::fsync(fd_) != 0) sys_fail("checkpoint: fsync");
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) sys_fail("checkpoint: close");
    return sizeof kCheckpointMagic + 8 + payload_len_ + 4;
  }

 private:
  void write_buffer() {
    std::size_t written = 0;
    while (written < buf_.size()) {
      const ssize_t n =
          ::write(fd_, buf_.data() + written, buf_.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        sys_fail("checkpoint: write");
      }
      written += static_cast<std::size_t>(n);
    }
    buf_.clear();
  }

  int fd_;
  std::vector<std::uint8_t> buf_;
  BinaryWriter out_{buf_};
  std::uint32_t crc_ = 0;
  std::uint64_t payload_len_ = 0;
};

void write_payload(CheckpointFileWriter& file, core::Chameleon& system,
                   const CheckpointMeta& meta) {
  BinaryWriter& w = file.out();
  const core::ChameleonConfig& config = system.config();

  // Header: identity + sanity fields a loader validates before trusting
  // the rest (a checkpoint is only meaningful under the writer's config).
  w.u32(kCheckpointVersion);
  w.u64(meta.seq);
  w.u32(meta.epoch);
  w.i64(meta.now);
  w.u64(meta.wal_segment_seq);
  w.u64(meta.next_record_seq);
  w.u64(meta.digest);
  w.u32(system.cluster().size());
  w.u8(config.supervised ? 1 : 0);
  w.u32(config.ssd.page_size_bytes);
  w.u32(config.ssd.pages_per_block);
  w.u32(config.ssd.block_count);
  w.u32(static_cast<std::uint32_t>(config.kv.replicas));
  w.u32(static_cast<std::uint32_t>(config.kv.ec_total));
  w.u32(static_cast<std::uint32_t>(config.kv.ec_data));

  // TABLE: every object's metadata, sorted by oid for determinism.
  std::vector<meta::ObjectMeta> metas;
  metas.reserve(system.table().object_count());
  system.table().for_each(
      [&metas](const meta::ObjectMeta& m) { metas.push_back(m); });
  std::sort(metas.begin(), metas.end(),
            [](const auto& a, const auto& b) { return a.oid < b.oid; });
  w.u64(metas.size());
  for (const auto& m : metas) {
    serialize_object_meta(w, m);
    file.flush_if_full();
  }
  file.flush();

  // SERVERS: full bit-level device state (flash is non-volatile; a host
  // crash does not reset erase counts or page maps).
  for (ServerId s = 0; s < system.cluster().size(); ++s) {
    system.cluster().server(s).log().save(w);
    file.flush();
  }

  // PAYLOADS: real fragment bytes when the payload plane is on, sorted by
  // (server, fragment key) for determinism.
  const kv::PayloadStore* payloads = system.store().payload_store();
  w.u8(payloads != nullptr ? 1 : 0);
  if (payloads != nullptr) {
    std::vector<std::tuple<ServerId, cluster::FragmentKey,
                           const std::vector<std::uint8_t>*>>
        fragments;
    payloads->for_each([&fragments](ServerId server, cluster::FragmentKey key,
                                    const std::vector<std::uint8_t>& bytes) {
      fragments.emplace_back(server, key, &bytes);
    });
    std::sort(fragments.begin(), fragments.end(),
              [](const auto& a, const auto& b) {
                return std::tie(std::get<0>(a), std::get<1>(a)) <
                       std::tie(std::get<0>(b), std::get<1>(b));
              });
    w.u64(fragments.size());
    for (const auto& [server, key, bytes] : fragments) {
      w.u32(server);
      w.u64(key);
      w.u32(static_cast<std::uint32_t>(bytes->size()));
      w.bytes(*bytes);
      file.flush_if_full();
    }
  }
  file.flush();

  // MEMBERSHIP (supervised mode): declared-dead servers and not-yet-lapsed
  // suspects, so recovery resumes with the same liveness view.
  if (config.supervised) {
    core::Supervisor* supervisor = system.supervisor();
    const auto& failed = supervisor->failed_servers();
    // Partition failed_ into dead vs suspect using the membership view.
    std::vector<ServerId> dead, suspects;
    auto& membership = supervisor->membership();
    for (const ServerId s : failed) {
      if (membership.dead_servers().contains(s)) {
        dead.push_back(s);
      } else {
        suspects.push_back(s);
      }
    }
    w.u32(static_cast<std::uint32_t>(dead.size()));
    for (const ServerId s : dead) w.u32(s);
    w.u32(static_cast<std::uint32_t>(suspects.size()));
    for (const ServerId s : suspects) w.u32(s);
  }
}

}  // namespace

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::uint64_t seq) {
  char name[48];
  std::snprintf(name, sizeof(name), "checkpoint-%016llx.ckpt",
                static_cast<unsigned long long>(seq));
  return dir / name;
}

std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> checkpoints;
  if (!std::filesystem::exists(dir)) return checkpoints;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == 11 + 16 + 5 && name.starts_with("checkpoint-") &&
        name.ends_with(".ckpt")) {
      checkpoints.push_back(entry.path());
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const auto& a, const auto& b) {
              return checkpoint_file_seq(a) < checkpoint_file_seq(b);
            });
  return checkpoints;
}

std::uint64_t checkpoint_file_seq(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  return std::stoull(name.substr(11, 16), nullptr, 16);
}

CheckpointMeta save_checkpoint(const std::filesystem::path& dir,
                               std::uint64_t seq, core::Chameleon& system,
                               std::uint64_t wal_segment_seq,
                               std::uint64_t next_record_seq) {
  CheckpointMeta meta;
  meta.seq = seq;
  meta.epoch = system.last_epoch_ran();
  meta.now = system.now();
  meta.wal_segment_seq = wal_segment_seq;
  meta.next_record_seq = next_record_seq;
  meta.digest = fault::cluster_digest(system.store());

  // Atomic publication: a reader sees the old checkpoint set or the new one.
  // A crash before the rename leaves only the .tmp file, which no listing
  // matches.
  const std::filesystem::path path = checkpoint_path(dir, seq);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    CheckpointFileWriter file(tmp);
    write_payload(file, system, meta);
    meta.file_bytes = file.finish();
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    sys_fail("checkpoint: rename");
  }
  // Make the rename itself durable (directory entry).
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return meta;
}

CheckpointMeta load_checkpoint(const std::filesystem::path& path,
                               core::Chameleon& system) {
  // Mapped, not read: the payload is parsed straight out of the page cache.
  // The whole-file CRC is checked before the first byte reaches `system`,
  // so a rejected file leaves it fresh for an older checkpoint.
  const MappedFile file(path);
  const std::span<const std::uint8_t> bytes = file.bytes();
  if (bytes.size() < 8 + 8 + 4) {
    throw std::runtime_error("checkpoint: truncated file " + path.string());
  }
  BinaryReader frame(bytes);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(frame.u8());
  if (std::memcmp(magic, kCheckpointMagic, 8) != 0) {
    throw std::runtime_error("checkpoint: bad magic in " + path.string());
  }
  const std::uint64_t payload_len = frame.u64();
  if (payload_len != bytes.size() - 8 - 8 - 4) {
    throw std::runtime_error("checkpoint: length mismatch in " +
                             path.string());
  }
  const auto payload = frame.bytes(payload_len);
  if (frame.u32() != crc32c(payload)) {
    throw std::runtime_error("checkpoint: CRC mismatch in " + path.string());
  }

  BinaryReader r(payload);
  CheckpointMeta meta;
  meta.file_bytes = bytes.size();
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  }
  meta.seq = r.u64();
  meta.epoch = r.u32();
  meta.now = r.i64();
  meta.wal_segment_seq = r.u64();
  meta.next_record_seq = r.u64();
  meta.digest = r.u64();

  const core::ChameleonConfig& config = system.config();
  const std::uint32_t servers = r.u32();
  const bool supervised = r.u8() != 0;
  const std::uint32_t page_size = r.u32();
  const std::uint32_t pages_per_block = r.u32();
  const std::uint32_t block_count = r.u32();
  const std::uint32_t replicas = r.u32();
  const std::uint32_t ec_total = r.u32();
  const std::uint32_t ec_data = r.u32();
  if (servers != system.cluster().size() || supervised != config.supervised ||
      page_size != config.ssd.page_size_bytes ||
      pages_per_block != config.ssd.pages_per_block ||
      block_count != config.ssd.block_count ||
      replicas != config.kv.replicas || ec_total != config.kv.ec_total ||
      ec_data != config.kv.ec_data) {
    throw std::runtime_error(
        "checkpoint: configuration mismatch (the snapshot was written under "
        "a different cluster/device/redundancy config): " +
        path.string());
  }
  if (system.table().object_count() != 0) {
    throw std::runtime_error(
        "checkpoint: load target must be a fresh system (table not empty)");
  }

  // TABLE
  const std::uint64_t objects = r.u64();
  for (std::uint64_t i = 0; i < objects; ++i) {
    const meta::ObjectMeta m = deserialize_object_meta(r);
    if (!system.table().create(m)) {
      throw std::runtime_error("checkpoint: duplicate object in table");
    }
  }

  // SERVERS
  for (ServerId s = 0; s < system.cluster().size(); ++s) {
    system.cluster().server(s).log().restore(r);
  }

  // PAYLOADS
  if (r.u8() != 0) {
    system.store().enable_payloads();
    kv::PayloadStore* payloads = system.store().payload_store_mutable();
    const std::uint64_t fragments = r.u64();
    for (std::uint64_t i = 0; i < fragments; ++i) {
      const ServerId server = r.u32();
      const cluster::FragmentKey key = r.u64();
      const std::uint32_t len = r.u32();
      const auto view = r.bytes(len);
      payloads->store(server, key,
                      std::vector<std::uint8_t>(view.begin(), view.end()));
    }
  }

  // MEMBERSHIP
  if (supervised) {
    core::Supervisor* supervisor = system.supervisor();
    const std::uint32_t dead = r.u32();
    for (std::uint32_t i = 0; i < dead; ++i) {
      const ServerId s = r.u32();
      if (s >= system.cluster().size()) {
        throw std::runtime_error("checkpoint: dead server out of range");
      }
      supervisor->restore_failed(s);
    }
    const std::uint32_t suspects = r.u32();
    for (std::uint32_t i = 0; i < suspects; ++i) {
      const ServerId s = r.u32();
      if (s >= system.cluster().size()) {
        throw std::runtime_error("checkpoint: suspect server out of range");
      }
      supervisor->fail_server(s);  // not heartbeating, lease not lapsed yet
    }
  }
  if (!r.done()) {
    throw std::runtime_error("checkpoint: trailing bytes in " + path.string());
  }

  system.restore_clock(meta.now, meta.epoch);

  const std::uint64_t digest = fault::cluster_digest(system.store());
  if (digest != meta.digest) {
    throw std::runtime_error(
        "checkpoint: digest mismatch after restore (snapshot " +
        std::to_string(meta.digest) + ", restored " + std::to_string(digest) +
        "): " + path.string());
  }
  return meta;
}

}  // namespace chameleon::durability
