// Full-cluster snapshots for the durability subsystem: everything the data
// path depends on — mapping table, per-server FTL state (erase counts, page
// maps, GC bookkeeping), payload bytes, membership — serialized into one
// atomically-written file. A checkpoint plus the WAL segments after it
// reconstruct the crashed process bit-for-bit (fault::cluster_digest-exact).
//
// On-disk layout: `checkpoint-<seq:016x>.ckpt` =
//   magic "CHCKPT01" (8) | u64 payload_len | payload | u32 crc32c(payload)
// written as temp file + fsync + rename + directory fsync, so a crash leaves
// either the old complete file set or the new one, never a torn snapshot.
// The writer streams the payload through one bounded buffer and patches
// payload_len in place before the fsync; the loader maps the file and checks
// the CRC before it applies anything.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/types.hpp"

namespace chameleon::core {
class Chameleon;
}

namespace chameleon::durability {

inline constexpr char kCheckpointMagic[8] = {'C', 'H', 'C', 'K',
                                             'P', 'T', '0', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Everything a checkpoint records about itself (its payload header).
struct CheckpointMeta {
  std::uint64_t seq = 0;               ///< checkpoint sequence (file name)
  Epoch epoch = 0;                     ///< last balancing epoch that ran
  Nanos now = 0;                       ///< virtual clock at snapshot time
  std::uint64_t wal_segment_seq = 0;   ///< first WAL segment to replay
  std::uint64_t next_record_seq = 0;   ///< first WAL record seq after this
  std::uint64_t digest = 0;            ///< fault::cluster_digest at snapshot
  std::uint64_t file_bytes = 0;        ///< size of the checkpoint file
};

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::uint64_t seq);

/// All `checkpoint-*.ckpt` files in `dir`, sorted by sequence (ascending).
std::vector<std::filesystem::path> list_checkpoints(
    const std::filesystem::path& dir);

std::uint64_t checkpoint_file_seq(const std::filesystem::path& path);

/// Snapshot `system` to checkpoint `seq` in `dir`, atomically. The WAL
/// cursor fields tell recovery where replay resumes. Returns the meta as
/// written (digest computed here).
CheckpointMeta save_checkpoint(const std::filesystem::path& dir,
                               std::uint64_t seq, core::Chameleon& system,
                               std::uint64_t wal_segment_seq,
                               std::uint64_t next_record_seq);

/// Restore `system` (freshly constructed with the SAME config as the writer)
/// from the checkpoint at `path`. Throws std::runtime_error on any framing,
/// CRC, config-mismatch or digest-mismatch problem — callers fall back to an
/// older checkpoint. On success the system's table, devices, payloads,
/// membership and clock match the snapshot exactly.
CheckpointMeta load_checkpoint(const std::filesystem::path& path,
                               core::Chameleon& system);

}  // namespace chameleon::durability
