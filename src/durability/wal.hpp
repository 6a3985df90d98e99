// Write-ahead log for the durability subsystem: versioned, length-prefixed,
// CRC32C-framed records appended on every state mutation, stored in rotating
// segment files. The WAL is a redo log — records describe mutations that
// already applied — replayed on recovery on top of the latest checkpoint.
//
// On-disk layout (all integers little-endian):
//   segment file `wal-<seq:016x>.log`:
//     header  = magic "CHWAL001" (8) | u32 version | u64 segment_seq
//               | u64 first_record_seq | u32 crc32c(of the previous 28 bytes)
//     records = repeated frames: u32 body_len | u32 crc32c(body) | body
//     body    = u8 type | u64 record_seq | type-specific fields
//
// A torn final record (truncated frame or bad CRC in the LAST segment) is
// expected after a crash: replay stops there and reports the truncated tail.
// The same damage in a non-last segment means real corruption and throws.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace chameleon::durability {

inline constexpr char kWalMagic[8] = {'C', 'H', 'W', 'A', 'L', '0', '0', '1'};
inline constexpr std::uint32_t kWalVersion = 1;

/// When appended records reach the platter.
enum class FsyncPolicy : std::uint8_t {
  kNone,      ///< never fsync; page cache only (kill -9 safe, power-loss not)
  kInterval,  ///< fsync every fsync_interval_bytes of appended data
  kAlways,    ///< fsync after every record (power-loss safe)
};

const char* fsync_policy_name(FsyncPolicy policy);
/// Parse "none"/"interval"/"always"; throws std::invalid_argument otherwise.
FsyncPolicy fsync_policy_from_name(const std::string& name);

enum class WalRecordType : std::uint8_t {
  kPutSim = 1,      ///< size-only put: oid, bytes, epoch
  kPutValue = 2,    ///< payload put: oid, epoch, value
  kRemove = 3,      ///< deletion: oid
  kEpoch = 4,       ///< balancing epoch ran: epoch
  kMembership = 5,  ///< server liveness change: server, up
};

/// One decoded WAL record; unused fields are zero for a given type.
struct WalRecord {
  WalRecordType type = WalRecordType::kPutSim;
  std::uint64_t seq = 0;  ///< strictly increasing across segments
  ObjectId oid = 0;
  std::uint64_t bytes = 0;              ///< kPutSim
  Epoch epoch = 0;                      ///< kPutSim/kPutValue/kEpoch
  ServerId server = 0;                  ///< kMembership
  bool up = false;                      ///< kMembership
  std::vector<std::uint8_t> value;      ///< kPutValue payload
};

/// Serialize one record as a framed (len|crc|body) byte string.
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);

enum class WalDecode {
  kRecord,     ///< a valid record was decoded
  kTruncated,  ///< the buffer ends mid-frame (torn tail candidate)
  kCorrupt,    ///< CRC mismatch or malformed body
};

/// Decode the frame at `data[offset...]`. On kRecord, `*record` is filled
/// and `*next_offset` points past the frame.
WalDecode decode_wal_record(std::span<const std::uint8_t> data,
                            std::size_t offset, WalRecord* record,
                            std::size_t* next_offset);

std::filesystem::path wal_segment_path(const std::filesystem::path& dir,
                                       std::uint64_t segment_seq);

/// All `wal-*.log` segments in `dir`, sorted by segment sequence.
std::vector<std::filesystem::path> list_wal_segments(
    const std::filesystem::path& dir);

/// Segment sequence parsed from a path produced by wal_segment_path.
std::uint64_t wal_segment_seq(const std::filesystem::path& path);

/// Cumulative outcome of replaying the WAL tail.
struct WalReplayStats {
  std::uint64_t records = 0;          ///< valid records delivered
  std::uint64_t segments = 0;         ///< segment files scanned
  std::uint64_t truncated_bytes = 0;  ///< bytes dropped from a torn tail
  bool torn_tail = false;             ///< the last segment ended mid-record
};

/// Read one segment, invoking `fn` per valid record. `last_segment` selects
/// torn-tail tolerance: damage in the last segment truncates (counted in
/// `stats`), damage earlier throws std::runtime_error. Also throws on a bad
/// segment header or a record seq that is not strictly increasing
/// (tracked across calls via `*expected_seq`, 0 = any).
void read_wal_segment(const std::filesystem::path& path, bool last_segment,
                      const std::function<void(const WalRecord&)>& fn,
                      WalReplayStats* stats, std::uint64_t* expected_seq);

/// Appends framed records to the current segment file with the configured
/// fsync policy, rotating to a fresh segment when the size cap is reached.
class WalWriter {
 public:
  /// `dir` must exist. Appending before open_segment() throws.
  WalWriter(std::filesystem::path dir, FsyncPolicy policy,
            std::uint64_t segment_bytes, std::uint64_t fsync_interval_bytes);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Start (or truncate+restart) segment `segment_seq`, whose first record
  /// will carry `first_record_seq`.
  void open_segment(std::uint64_t segment_seq, std::uint64_t first_record_seq);

  /// Assign the next record seq, frame, append, and apply the fsync policy.
  /// Rotates first when the current segment is over the size cap. Returns
  /// the record's sequence number.
  std::uint64_t append(WalRecord record);

  /// Force everything appended so far to stable storage.
  void sync();

  /// A covering fsync split in three, so that a group-commit committer can
  /// fsync while the store thread keeps appending: begin_sync() and
  /// end_sync() run under the lock that serializes appends, sync_ticket()
  /// between them without it. A ticket whose fd is -1 has nothing to
  /// fsync; skip the other two steps.
  struct SyncTicket {
    int fd = -1;  ///< dup of the segment fd; -1 when nothing was unsynced
    std::uint64_t last_record_seq = 0;  ///< highest seq the fsync covers
    std::uint64_t appended = 0;         ///< bytes_appended() at begin_sync
  };
  SyncTicket begin_sync();
  /// fsync and close the ticket's fd; throws std::runtime_error on failure.
  static void sync_ticket(const SyncTicket& ticket);
  /// Count the fsync and mark the bytes it covered as synced.
  void end_sync(const SyncTicket& ticket);

  /// Close the current segment. When the policy promises durability
  /// (kInterval/kAlways) any unsynced bytes are fsynced first — a rotation
  /// must never orphan records the policy said were safe.
  void close();

  /// When false, append() skips the per-record/interval fsync and a caller
  /// (the group-commit committer) owns durability via sync(). Rotation and
  /// segment-header syncs still happen. Only meaningful for kAlways.
  void set_auto_fsync(bool on) { auto_fsync_ = on; }

  std::uint64_t segment_seq() const { return segment_seq_; }
  std::uint64_t next_record_seq() const { return next_record_seq_; }
  /// Seq of the most recently appended record (0 = none yet).
  std::uint64_t last_record_seq() const { return next_record_seq_ - 1; }
  void set_next_record_seq(std::uint64_t seq) { next_record_seq_ = seq; }

  // Counters for obs export.
  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  std::uint64_t rotations() const { return rotations_; }

 private:
  void write_all(const std::uint8_t* data, std::size_t len);
  void fsync_fd();
  std::uint64_t unsynced_bytes() const {
    return bytes_appended_ - synced_through_;
  }

  std::filesystem::path dir_;
  FsyncPolicy policy_;
  std::uint64_t segment_bytes_;
  std::uint64_t fsync_interval_bytes_;
  int fd_ = -1;
  bool auto_fsync_ = true;
  std::uint64_t segment_seq_ = 0;
  std::uint64_t next_record_seq_ = 1;
  std::uint64_t segment_written_ = 0;    ///< bytes in the current segment
  /// bytes_appended_ as of the last fsync (or rotation) of the current
  /// segment; everything after it is unsynced.
  std::uint64_t synced_through_ = 0;
  std::uint64_t records_appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace chameleon::durability
