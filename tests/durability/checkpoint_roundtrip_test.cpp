// Checkpoint save/load roundtrip: the snapshot must restore a fresh system
// fault::cluster_digest-exact, and every framing/config/freshness violation
// must be rejected loudly (the recovery path falls back to older snapshots).
#include "durability/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/fnv.hpp"
#include "core/chameleon.hpp"
#include "fault/digest.hpp"

namespace chameleon::durability {
namespace {

namespace fs = std::filesystem;
using core::Chameleon;
using core::ChameleonConfig;

struct TempDir {
  TempDir()
      : path(fs::path(::testing::TempDir()) /
             (std::string("ckpt_") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

ChameleonConfig small_config() {
  ChameleonConfig cfg;
  cfg.servers = 12;
  cfg.ssd.pages_per_block = 8;
  cfg.ssd.block_count = 128;
  cfg.ssd.static_wl_delta = 0;
  cfg.kv.initial_scheme = meta::RedState::kEc;
  cfg.epoch_length = 1 * kHour;
  return cfg;
}

/// A workload that exercises everything a checkpoint must carry: sim-path
/// puts with overwrite heat, payload-plane values, removals, and enough
/// epochs for the balancer to have run and GC to have erased blocks.
void drive_workload(Chameleon& sys) {
  for (ObjectId oid = 1; oid <= 60; ++oid) {
    sys.put(oid, 8'192 + oid * 512, static_cast<Nanos>(oid) * kMinute);
  }
  for (ObjectId oid = 1; oid <= 20; ++oid) {  // overwrites accumulate heat
    sys.put(oid, 16'384, 1 * kHour + static_cast<Nanos>(oid) * kMinute);
  }
  sys.client().put("payload-a", std::string_view("hello durable world"));
  sys.client().put("payload-b",
                   std::vector<std::uint8_t>(300, 0x5A));
  sys.remove(7);
  sys.remove(13);
  sys.advance_time(3 * kHour);  // epochs 2 and 3 run the balancer
}

TEST(CheckpointRoundTrip, RestoresDigestExact) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  const std::uint64_t digest_before = fault::cluster_digest(original.store());

  const CheckpointMeta written =
      save_checkpoint(dir.path, 1, original, /*wal_segment_seq=*/5,
                      /*next_record_seq=*/42);
  EXPECT_EQ(written.seq, 1u);
  EXPECT_EQ(written.epoch, original.last_epoch_ran());
  EXPECT_EQ(written.now, original.now());
  EXPECT_EQ(written.wal_segment_seq, 5u);
  EXPECT_EQ(written.next_record_seq, 42u);
  EXPECT_EQ(written.digest, digest_before);

  Chameleon restored(small_config());
  const CheckpointMeta loaded =
      load_checkpoint(checkpoint_path(dir.path, 1), restored);
  EXPECT_EQ(loaded.seq, written.seq);
  EXPECT_EQ(loaded.digest, digest_before);
  EXPECT_EQ(fault::cluster_digest(restored.store()), digest_before);

  // The clock and epoch cursor resumed where the writer stopped...
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.last_epoch_ran(), original.last_epoch_ran());
  // ...and the payload plane came back byte-for-byte.
  EXPECT_EQ(restored.client().get_string("payload-a"),
            "hello durable world");
  EXPECT_EQ(restored.client().get("payload-b"),
            std::vector<std::uint8_t>(300, 0x5A));
  EXPECT_FALSE(restored.table().exists(7));
  EXPECT_TRUE(restored.table().exists(8));
}

TEST(CheckpointRoundTrip, RestoredSystemKeepsWorking) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  save_checkpoint(dir.path, 1, original, 1, 1);

  Chameleon restored(small_config());
  load_checkpoint(checkpoint_path(dir.path, 1), restored);
  // Identical state means identical behaviour: the same op on both systems
  // must keep their digests equal.
  original.put(500, 12'288, 4 * kHour);
  restored.put(500, 12'288, 4 * kHour);
  EXPECT_EQ(fault::cluster_digest(restored.store()),
            fault::cluster_digest(original.store()));
}

TEST(CheckpointRoundTrip, SupervisedMembershipSurvives) {
  TempDir dir;
  auto cfg = small_config();
  cfg.supervised = true;
  Chameleon original(cfg);
  for (ObjectId oid = 1; oid <= 20; ++oid) {
    original.put(oid, 16'384, 30 * kMinute);
  }
  original.supervisor()->fail_server(3);
  original.advance_time(6 * kHour);  // lease lapses; 3 is declared dead
  ASSERT_FALSE(original.supervisor()->membership().is_live(3));
  save_checkpoint(dir.path, 1, original, 1, 1);

  Chameleon restored(cfg);
  load_checkpoint(checkpoint_path(dir.path, 1), restored);
  EXPECT_FALSE(restored.supervisor()->membership().is_live(3));
  EXPECT_EQ(fault::cluster_digest(restored.store()),
            fault::cluster_digest(original.store()));
}

TEST(CheckpointRoundTrip, FlippedByteIsRejected) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  save_checkpoint(dir.path, 1, original, 1, 1);

  const fs::path path = checkpoint_path(dir.path, 1);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x04;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Chameleon restored(small_config());
  EXPECT_THROW(load_checkpoint(path, restored), std::runtime_error);
}

TEST(CheckpointRoundTrip, TruncatedFileIsRejected) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  save_checkpoint(dir.path, 1, original, 1, 1);

  const fs::path path = checkpoint_path(dir.path, 1);
  fs::resize_file(path, fs::file_size(path) / 2);
  Chameleon restored(small_config());
  EXPECT_THROW(load_checkpoint(path, restored), std::runtime_error);
}

TEST(CheckpointRoundTrip, ConfigMismatchIsRejected) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  save_checkpoint(dir.path, 1, original, 1, 1);

  auto other = small_config();
  other.servers = 10;  // different cluster shape: replay would diverge
  Chameleon restored(other);
  EXPECT_THROW(load_checkpoint(checkpoint_path(dir.path, 1), restored),
               std::runtime_error);
}

TEST(CheckpointRoundTrip, NonFreshTargetIsRejected) {
  TempDir dir;
  Chameleon original(small_config());
  drive_workload(original);
  save_checkpoint(dir.path, 1, original, 1, 1);

  Chameleon dirty(small_config());
  dirty.put(1, 4096, kMinute);  // already has state: loading would mix worlds
  EXPECT_THROW(load_checkpoint(checkpoint_path(dir.path, 1), dirty),
               std::runtime_error);
}

TEST(CheckpointFiles, BytesMatchTheRecordedFormat) {
  // A fixed system's checkpoint file, hashed. The constant was recorded with
  // the earlier writer, which built the whole file in memory, so the
  // streamed writer must reproduce the format byte for byte. About 4 MiB of
  // payload fragments make the fragment section span several of the
  // writer's 1 MiB flushes.
  TempDir dir;
  Chameleon sys(small_config());
  drive_workload(sys);
  for (int i = 0; i < 96; ++i) {
    std::vector<std::uint8_t> value(32 * kKiB);
    for (std::size_t j = 0; j < value.size(); ++j) {
      value[j] = static_cast<std::uint8_t>(static_cast<std::size_t>(i) * 131 +
                                           j * 7 + (j >> 9));
    }
    sys.client().put("bulk-" + std::to_string(i), value);
  }
  save_checkpoint(dir.path, 9, sys, /*wal_segment_seq=*/4,
                  /*next_record_seq=*/321);

  std::vector<char> bytes;
  {
    std::ifstream in(checkpoint_path(dir.path, 9), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  EXPECT_GT(bytes.size(), 3 * kMiB);
  EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), 0x73171d9c012954e5ULL);
}

TEST(CheckpointFiles, ListedInSequenceOrder) {
  TempDir dir;
  Chameleon sys(small_config());
  sys.put(1, 8192, kMinute);
  save_checkpoint(dir.path, 3, sys, 1, 1);
  save_checkpoint(dir.path, 1, sys, 1, 1);
  save_checkpoint(dir.path, 2, sys, 1, 1);
  const auto files = list_checkpoints(dir.path);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(checkpoint_file_seq(files[0]), 1u);
  EXPECT_EQ(checkpoint_file_seq(files[1]), 2u);
  EXPECT_EQ(checkpoint_file_seq(files[2]), 3u);
}

}  // namespace
}  // namespace chameleon::durability
