#include "durability/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace chameleon::durability {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  // Unique per test: ctest runs discovered tests in parallel, so a shared
  // fixed directory would let two tests clobber each other's segments.
  TempDir()
      : path(fs::path(::testing::TempDir()) /
             (std::string("wal_") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void dump(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

WalRecord sample_put_value() {
  WalRecord r;
  r.type = WalRecordType::kPutValue;
  r.seq = 7;
  r.oid = 0xDEADBEEFCAFEULL;
  r.epoch = 12;
  r.value = {0x01, 0x02, 0x03, 0xFF, 0x00, 0x42};
  return r;
}

/// Replay every segment in `dir` the way Manager::open does, collecting the
/// decoded records.
WalReplayStats replay_all(const fs::path& dir,
                          std::vector<WalRecord>* out = nullptr) {
  WalReplayStats stats;
  std::uint64_t expected_seq = 0;
  const auto segments = list_wal_segments(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    read_wal_segment(
        segments[i], /*last_segment=*/i + 1 == segments.size(),
        [&](const WalRecord& r) {
          if (out != nullptr) out->push_back(r);
        },
        &stats, &expected_seq);
  }
  return stats;
}

TEST(WalRecord, EncodeDecodeRoundTripAllTypes) {
  std::vector<WalRecord> records;
  WalRecord put_sim;
  put_sim.type = WalRecordType::kPutSim;
  put_sim.seq = 1;
  put_sim.oid = 42;
  put_sim.bytes = 128 * 1024;
  put_sim.epoch = 3;
  records.push_back(put_sim);
  records.push_back(sample_put_value());
  WalRecord remove;
  remove.type = WalRecordType::kRemove;
  remove.seq = 9;
  remove.oid = 0xFFFFFFFFFFFFFFFFULL;
  records.push_back(remove);
  WalRecord epoch;
  epoch.type = WalRecordType::kEpoch;
  epoch.seq = 10;
  epoch.epoch = 77;
  records.push_back(epoch);
  WalRecord member;
  member.type = WalRecordType::kMembership;
  member.seq = 11;
  member.server = 5;
  member.up = true;
  records.push_back(member);

  for (const WalRecord& original : records) {
    const auto frame = encode_wal_record(original);
    WalRecord decoded;
    std::size_t next = 0;
    ASSERT_EQ(decode_wal_record(frame, 0, &decoded, &next),
              WalDecode::kRecord);
    EXPECT_EQ(next, frame.size());
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.seq, original.seq);
    EXPECT_EQ(decoded.oid, original.oid);
    EXPECT_EQ(decoded.bytes, original.bytes);
    EXPECT_EQ(decoded.epoch, original.epoch);
    EXPECT_EQ(decoded.server, original.server);
    EXPECT_EQ(decoded.up, original.up);
    EXPECT_EQ(decoded.value, original.value);
  }
}

TEST(WalRecord, ShortBufferIsTruncatedNotCorrupt) {
  const auto frame = encode_wal_record(sample_put_value());
  WalRecord decoded;
  std::size_t next = 0;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_EQ(decode_wal_record(prefix, 0, &decoded, &next),
              WalDecode::kTruncated)
        << "cut at " << cut;
  }
}

TEST(WalRecord, FlippedBodyByteIsCorrupt) {
  auto frame = encode_wal_record(sample_put_value());
  frame[frame.size() - 1] ^= 0x80;  // inside the body -> CRC mismatch
  WalRecord decoded;
  std::size_t next = 0;
  EXPECT_EQ(decode_wal_record(frame, 0, &decoded, &next), WalDecode::kCorrupt);
}

TEST(WalRecord, AbsurdLengthIsCorruptNotTruncated) {
  auto frame = encode_wal_record(sample_put_value());
  frame[3] = 0xFF;  // high byte of the little-endian length: ~4GB body
  WalRecord decoded;
  std::size_t next = 0;
  EXPECT_EQ(decode_wal_record(frame, 0, &decoded, &next), WalDecode::kCorrupt);
  // Length below the smallest possible body (type + seq) is also corruption.
  frame = encode_wal_record(sample_put_value());
  frame[0] = 8;
  frame[1] = frame[2] = frame[3] = 0;
  EXPECT_EQ(decode_wal_record(frame, 0, &decoded, &next), WalDecode::kCorrupt);
}

TEST(WalPolicy, NamesRoundTripAndRejectJunk) {
  for (const FsyncPolicy p : {FsyncPolicy::kNone, FsyncPolicy::kInterval,
                              FsyncPolicy::kAlways}) {
    EXPECT_EQ(fsync_policy_from_name(fsync_policy_name(p)), p);
  }
  EXPECT_THROW(fsync_policy_from_name("sometimes"), std::invalid_argument);
  EXPECT_THROW(fsync_policy_from_name(""), std::invalid_argument);
}

TEST(WalWriter, AppendReplayRoundTrip) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    for (std::uint64_t i = 0; i < 50; ++i) {
      WalRecord r;
      r.type = WalRecordType::kPutSim;
      r.oid = i;
      r.bytes = 1000 + i;
      r.epoch = static_cast<Epoch>(i / 10);
      EXPECT_EQ(writer.append(r), i + 1);
    }
    EXPECT_EQ(writer.records_appended(), 50u);
    EXPECT_EQ(writer.next_record_seq(), 51u);
  }
  std::vector<WalRecord> replayed;
  const WalReplayStats stats = replay_all(dir.path, &replayed);
  EXPECT_EQ(stats.records, 50u);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(replayed.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(replayed[i].seq, i + 1);
    EXPECT_EQ(replayed[i].oid, i);
    EXPECT_EQ(replayed[i].bytes, 1000 + i);
  }
}

TEST(WalWriter, RotatesAtSizeCapAndReplayChainsSegments) {
  TempDir dir;
  {
    // ~37-byte frames against a 128-byte cap: rotation every few records.
    WalWriter writer(dir.path, FsyncPolicy::kNone, 128, 256 * kKiB);
    writer.open_segment(1, 1);
    for (std::uint64_t i = 0; i < 40; ++i) {
      WalRecord r;
      r.type = WalRecordType::kPutSim;
      r.oid = i;
      r.bytes = i;
      writer.append(r);
    }
    EXPECT_GT(writer.rotations(), 5u);
  }
  const auto segments = list_wal_segments(dir.path);
  ASSERT_GT(segments.size(), 5u);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(wal_segment_seq(segments[i]), i + 1);  // sorted, contiguous
  }
  std::vector<WalRecord> replayed;
  const WalReplayStats stats = replay_all(dir.path, &replayed);
  EXPECT_EQ(stats.records, 40u);
  EXPECT_EQ(stats.segments, segments.size());
  EXPECT_FALSE(stats.torn_tail);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(replayed[i].seq, i + 1);
}

TEST(WalWriter, IntervalPolicySyncsByBytes) {
  TempDir dir;
  WalWriter writer(dir.path, FsyncPolicy::kInterval, 8 * kMiB, 100);
  writer.open_segment(1, 1);
  const std::uint64_t baseline = writer.fsyncs();
  for (std::uint64_t i = 0; i < 10; ++i) {
    WalRecord r;
    r.type = WalRecordType::kPutSim;
    r.oid = i;
    writer.append(r);
  }
  // ~37 bytes/record against a 100-byte interval: roughly every 3rd append.
  EXPECT_GE(writer.fsyncs(), baseline + 2);
  EXPECT_LT(writer.fsyncs(), baseline + 10);
}

TEST(WalWriter, DetachedSyncCoversOnlyWhatPrecededIt) {
  // The group-commit fsync runs between begin_sync() and end_sync(). A
  // record appended in that window is not covered: it must stay unsynced,
  // so the next covering sync still fsyncs.
  TempDir dir;
  WalWriter writer(dir.path, FsyncPolicy::kAlways, 8 * kMiB, 256 * kKiB);
  writer.set_auto_fsync(false);
  writer.open_segment(1, 1);
  const std::uint64_t baseline = writer.fsyncs();
  WalRecord r;
  r.type = WalRecordType::kPutSim;
  writer.append(r);

  const WalWriter::SyncTicket first = writer.begin_sync();
  ASSERT_GE(first.fd, 0);
  EXPECT_EQ(first.last_record_seq, 1u);
  writer.append(r);  // lands while the fsync is in flight
  WalWriter::sync_ticket(first);
  writer.end_sync(first);
  EXPECT_EQ(writer.fsyncs(), baseline + 1);

  const WalWriter::SyncTicket second = writer.begin_sync();
  ASSERT_GE(second.fd, 0) << "the in-flight append was marked synced";
  EXPECT_EQ(second.last_record_seq, 2u);
  WalWriter::sync_ticket(second);
  writer.end_sync(second);
  EXPECT_EQ(writer.fsyncs(), baseline + 2);

  // Everything is covered now: nothing to fsync.
  EXPECT_LT(writer.begin_sync().fd, 0);
}

TEST(WalWriter, DetachedSyncSurvivesRotation) {
  // A rotation between begin_sync() and the fsync closes the segment fd;
  // the ticket's dup keeps the old segment open, and the close() already
  // synced it, so the new segment's records stay unsynced.
  TempDir dir;
  WalWriter writer(dir.path, FsyncPolicy::kAlways, 64, 256 * kKiB);
  writer.set_auto_fsync(false);
  writer.open_segment(1, 1);
  WalRecord r;
  r.type = WalRecordType::kPutSim;
  writer.append(r);
  writer.append(r);
  const WalWriter::SyncTicket ticket = writer.begin_sync();
  ASSERT_GE(ticket.fd, 0);
  writer.append(r);  // over the 64-byte cap: rotates first
  ASSERT_EQ(writer.rotations(), 1u);
  WalWriter::sync_ticket(ticket);
  writer.end_sync(ticket);
  const WalWriter::SyncTicket next = writer.begin_sync();
  EXPECT_GE(next.fd, 0);
  EXPECT_EQ(next.last_record_seq, 3u);
  WalWriter::sync_ticket(next);
  writer.end_sync(next);
}

TEST(WalReplay, TornFinalRecordTruncatesInsteadOfThrowing) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    for (std::uint64_t i = 0; i < 3; ++i) {
      WalRecord r;
      r.type = WalRecordType::kPutSim;
      r.oid = i;
      writer.append(r);
    }
  }
  const auto path = wal_segment_path(dir.path, 1);
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 5);  // kill -9 mid-append: torn final frame
  dump(path, bytes);

  std::vector<WalRecord> replayed;
  const WalReplayStats stats = replay_all(dir.path, &replayed);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.truncated_bytes, 0u);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].oid, 1u);
}

TEST(WalReplay, SameDamageMidLogThrows) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    for (std::uint64_t i = 0; i < 3; ++i) {
      WalRecord r;
      r.type = WalRecordType::kPutSim;
      r.oid = i;
      writer.append(r);
    }
  }
  const auto path = wal_segment_path(dir.path, 1);
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 5);
  dump(path, bytes);

  WalReplayStats stats;
  std::uint64_t expected_seq = 0;
  EXPECT_THROW(read_wal_segment(path, /*last_segment=*/false,
                                [](const WalRecord&) {}, &stats,
                                &expected_seq),
               std::runtime_error);
}

TEST(WalReplay, CorruptRecordInEarlierSegmentThrows) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 64, 256 * kKiB);
    writer.open_segment(1, 1);
    for (std::uint64_t i = 0; i < 10; ++i) {
      WalRecord r;
      r.type = WalRecordType::kPutSim;
      r.oid = i;
      writer.append(r);
    }
  }
  const auto segments = list_wal_segments(dir.path);
  ASSERT_GT(segments.size(), 2u);
  auto bytes = slurp(segments[0]);
  bytes.back() ^= 0xFF;  // corrupt the first segment's final record body
  dump(segments[0], bytes);
  EXPECT_THROW(replay_all(dir.path), std::runtime_error);
}

TEST(WalReplay, DuplicateSeqThrows) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    WalRecord r;
    r.type = WalRecordType::kRemove;
    r.oid = 1;
    writer.append(r);  // seq 1
    writer.set_next_record_seq(1);
    writer.append(r);  // seq 1 again: replayed twice = double-applied mutation
  }
  EXPECT_THROW(replay_all(dir.path), std::runtime_error);
}

TEST(WalReplay, SeqRegressionAcrossSegmentsThrows) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    WalRecord r;
    r.type = WalRecordType::kRemove;
    r.oid = 1;
    writer.append(r);
    writer.append(r);             // seqs 1, 2
    writer.open_segment(2, 1);
    writer.set_next_record_seq(1);
    writer.append(r);             // segment 2 restarts at seq 1
  }
  EXPECT_THROW(replay_all(dir.path), std::runtime_error);
}

TEST(WalReplay, BadMagicThrowsEvenInLastSegment) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    WalRecord r;
    r.type = WalRecordType::kRemove;
    r.oid = 1;
    writer.append(r);
  }
  const auto path = wal_segment_path(dir.path, 1);
  auto bytes = slurp(path);
  bytes[0] = 'X';  // not torn: a wrong file, so fail loudly
  dump(path, bytes);
  WalReplayStats stats;
  std::uint64_t expected_seq = 0;
  EXPECT_THROW(read_wal_segment(path, /*last_segment=*/true,
                                [](const WalRecord&) {}, &stats,
                                &expected_seq),
               std::runtime_error);
}

TEST(WalReplay, TornHeaderInLastSegmentIsTolerated) {
  TempDir dir;
  {
    WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
    writer.open_segment(1, 1);
    WalRecord r;
    r.type = WalRecordType::kRemove;
    r.oid = 1;
    writer.append(r);
    // Rotation crashed right after creating the next segment file: only a
    // partial header made it to disk.
    writer.open_segment(2, 2);
  }
  const auto path2 = wal_segment_path(dir.path, 2);
  auto bytes = slurp(path2);
  bytes.resize(10);
  dump(path2, bytes);

  std::vector<WalRecord> replayed;
  const WalReplayStats stats = replay_all(dir.path, &replayed);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.truncated_bytes, 10u);
}

TEST(WalWriter, AppendBeforeOpenThrows) {
  TempDir dir;
  WalWriter writer(dir.path, FsyncPolicy::kNone, 8 * kMiB, 256 * kKiB);
  WalRecord r;
  r.type = WalRecordType::kRemove;
  EXPECT_THROW(writer.append(r), std::runtime_error);
}

}  // namespace
}  // namespace chameleon::durability
