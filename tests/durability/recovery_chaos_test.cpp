// In-process crash/recovery chaos: a Manager-journaled system is abandoned
// without any shutdown ceremony (the kill -9 equivalent — with fsync=always
// the disk already holds every acknowledged record), then a fresh system
// recovers from the same data dir and must come back cluster_digest-exact.
#include "durability/manager.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/chameleon.hpp"
#include "fault/digest.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::durability {
namespace {

namespace fs = std::filesystem;
using core::Chameleon;
using core::ChameleonConfig;

struct TempDir {
  TempDir()
      : path(fs::path(::testing::TempDir()) /
             (std::string("recover_") +
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

DurabilityConfig durable_in(const fs::path& dir) {
  DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync = FsyncPolicy::kAlways;
  return cfg;
}

void corrupt_file(const fs::path& path) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 3] ^= 0x10;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Recovery, FreshDirInitializesAndAttaches) {
  TempDir dir;
  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_FALSE(report.recovered);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_EQ(sys.journal(), &manager);
  // The boot barrier left a self-consistent directory behind.
  EXPECT_EQ(list_checkpoints(dir.path).size(), 1u);
  EXPECT_EQ(list_wal_segments(dir.path).size(), 1u);
}

TEST(Recovery, OpenTwiceThrows) {
  TempDir dir;
  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  manager.open();
  EXPECT_THROW(manager.open(), std::runtime_error);
}

TEST(Recovery, BadConfigThrows) {
  TempDir dir;
  Chameleon sys(small_config());
  auto cfg = durable_in(dir.path);
  cfg.checkpoint_every_epochs = 0;
  EXPECT_THROW(Manager(sys, cfg), std::invalid_argument);
  cfg = durable_in(dir.path);
  cfg.retain_checkpoints = 0;
  EXPECT_THROW(Manager(sys, cfg), std::invalid_argument);
}

TEST(Recovery, AbruptStopRestoresDigestExact) {
  TempDir dir;
  std::uint64_t digest_before = 0;
  {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    manager.open();
    // Cross epoch barriers (each one checkpoints) AND leave a WAL tail of
    // data ops behind the last barrier, so recovery exercises both halves.
    for (ObjectId oid = 1; oid <= 60; ++oid) {
      sys.put(oid, 8'192 + oid * 256, static_cast<Nanos>(oid) * 3 * kMinute);
    }
    sys.client().put("durable-key", std::string_view("survives kill -9"));
    sys.remove(5);
    sys.advance_time(4 * kHour);
    for (ObjectId oid = 100; oid <= 120; ++oid) {
      sys.put(oid, 16'384, 4 * kHour + static_cast<Nanos>(oid) * kSecond);
    }
    digest_before = fault::cluster_digest(sys.store());
  }  // no checkpoint here: the "process" just died

  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_GT(report.replayed_records, 0u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.digest, digest_before);
  EXPECT_EQ(fault::cluster_digest(sys.store()), digest_before);
  EXPECT_EQ(sys.client().get_string("durable-key"), "survives kill -9");
  EXPECT_EQ(manager.last_recovery().digest, digest_before);
}

TEST(Recovery, SurvivesThreeCrashGenerations) {
  TempDir dir;
  std::uint64_t digest = 0;
  for (int generation = 0; generation < 3; ++generation) {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    const RecoveryReport report = manager.open();
    if (generation > 0) {
      EXPECT_TRUE(report.recovered) << "generation " << generation;
      EXPECT_EQ(report.digest, digest) << "generation " << generation;
    }
    const ObjectId base = static_cast<ObjectId>(generation) * 1000;
    for (ObjectId oid = base + 1; oid <= base + 30; ++oid) {
      sys.put(oid, 8'192, sys.now() + 2 * kMinute);
    }
    sys.client().put("gen-" + std::to_string(generation),
                     std::string_view("payload"));
    sys.advance_time(sys.now() + 90 * kMinute);  // at least one barrier
    sys.put(base + 999, 4'096, sys.now() + kMinute);  // tail past the barrier
    digest = fault::cluster_digest(sys.store());
  }
  // One last clean recovery proves the final generation's tail survived.
  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  EXPECT_EQ(manager.open().digest, digest);
}

TEST(Recovery, TornTailTruncatesToLastDurablePrefix) {
  TempDir dir;
  std::uint64_t digest_after_9 = 0;
  {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    manager.open();
    for (ObjectId oid = 1; oid <= 9; ++oid) {
      sys.put(oid, 8'192 + oid * 100, static_cast<Nanos>(oid) * kMinute);
    }
    digest_after_9 = fault::cluster_digest(sys.store());
    sys.put(10, 9'192, 10 * kMinute);  // this record will be torn
  }
  const auto segments = list_wal_segments(dir.path);
  ASSERT_FALSE(segments.empty());
  const auto& tail = segments.back();
  fs::resize_file(tail, fs::file_size(tail) - 3);  // tear the final frame

  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.truncated_bytes, 0u);
  EXPECT_EQ(report.replayed_records, 9u);
  EXPECT_EQ(fault::cluster_digest(sys.store()), digest_after_9);
  // The boot barrier re-checkpointed, so a SECOND recovery sees a clean
  // directory: the torn bytes are gone for good, not rediscovered.
  {
    Chameleon sys2(small_config());
    Manager manager2(sys2, durable_in(dir.path));
    const RecoveryReport second = manager2.open();
    EXPECT_FALSE(second.torn_tail);
    EXPECT_EQ(second.digest, digest_after_9);
  }
}

TEST(Recovery, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir;
  std::uint64_t digest_before = 0;
  {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    manager.open();  // checkpoint 1
    for (ObjectId oid = 1; oid <= 20; ++oid) {
      sys.put(oid, 8'192, static_cast<Nanos>(oid) * kMinute);
    }
    manager.checkpoint();  // checkpoint 2
    for (ObjectId oid = 21; oid <= 35; ++oid) {
      sys.put(oid, 8'192, 30 * kMinute + static_cast<Nanos>(oid) * kSecond);
    }
    digest_before = fault::cluster_digest(sys.store());
  }
  const auto checkpoints = list_checkpoints(dir.path);
  ASSERT_EQ(checkpoints.size(), 2u);
  corrupt_file(checkpoints.back());

  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_EQ(report.corrupt_checkpoints, 1u);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.checkpoint_seq, 1u);
  EXPECT_EQ(report.digest, digest_before);
}

TEST(Recovery, AllCheckpointsCorruptReplaysWalFromScratch) {
  TempDir dir;
  std::uint64_t digest_before = 0;
  {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    manager.open();
    for (ObjectId oid = 1; oid <= 20; ++oid) {
      sys.put(oid, 8'192, static_cast<Nanos>(oid) * kMinute);
    }
    manager.checkpoint();
    for (ObjectId oid = 21; oid <= 30; ++oid) {
      sys.put(oid, 8'192, 30 * kMinute + static_cast<Nanos>(oid) * kSecond);
    }
    digest_before = fault::cluster_digest(sys.store());
  }
  for (const auto& path : list_checkpoints(dir.path)) corrupt_file(path);

  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_EQ(report.corrupt_checkpoints, 2u);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_TRUE(report.recovered);  // the WAL alone carried the state
  EXPECT_EQ(report.digest, digest_before);
}

TEST(Recovery, PruneBoundsDiskUsage) {
  TempDir dir;
  Chameleon sys(small_config());
  auto cfg = durable_in(dir.path);
  cfg.retain_checkpoints = 2;
  Manager manager(sys, cfg);
  manager.open();
  for (ObjectId oid = 1; oid <= 100; ++oid) {
    sys.put(oid, 8'192, sys.now() + kMinute);
    if (oid % 20 == 0) manager.checkpoint();
  }
  EXPECT_LE(list_checkpoints(dir.path).size(), 2u);
  // Every retained WAL segment is still needed by a retained checkpoint.
  const auto segments = list_wal_segments(dir.path);
  const auto checkpoints = list_checkpoints(dir.path);
  ASSERT_FALSE(checkpoints.empty());
  Chameleon probe(small_config());
  const CheckpointMeta oldest = load_checkpoint(checkpoints.front(), probe);
  for (const auto& seg : segments) {
    EXPECT_GE(wal_segment_seq(seg), oldest.wal_segment_seq);
  }
}

TEST(Recovery, Kill9FaultKindFiresHook) {
  auto cfg = small_config();
  cfg.supervised = true;
  Chameleon sys(cfg);
  ASSERT_NE(sys.supervisor(), nullptr);
  fault::FaultInjector injector(*sys.supervisor(), sys.store(),
                                fault::FaultSchedule::parse("at 2 kill9\n"));
  int fired = 0;
  injector.set_kill9_hook([&] { ++fired; });
  injector.on_epoch(1);
  EXPECT_EQ(fired, 0);
  injector.on_epoch(2);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(injector.injected(fault::FaultKind::kKill9), 1u);
  ASSERT_FALSE(injector.applied_log().empty());
  EXPECT_EQ(injector.applied_log().back().kind, fault::FaultKind::kKill9);
  injector.on_epoch(3);
  EXPECT_EQ(fired, 1);  // events fire exactly once
}

TEST(Recovery, EmitsMetricsAndTraceEvents) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::trace().set_enabled(true);
  TempDir dir;
  {
    Chameleon sys(small_config());
    Manager manager(sys, durable_in(dir.path));
    manager.open();
    for (ObjectId oid = 1; oid <= 10; ++oid) {
      sys.put(oid, 8'192, static_cast<Nanos>(oid) * kMinute);
    }
  }
  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  manager.open();

  bool saw_replayed = false, saw_duration = false, saw_checkpoints = false,
       saw_checkpoint_seconds = false;
  double checkpoint_bytes = 0.0;
  for (const auto& sample : obs::metrics().snapshot()) {
    saw_replayed |= sample.name == "chameleon_recovery_replayed_records_total";
    saw_duration |= sample.name == "chameleon_recovery_duration_seconds";
    saw_checkpoints |= sample.name == "chameleon_checkpoints_total";
    saw_checkpoint_seconds |= sample.name == "chameleon_checkpoint_seconds";
    if (sample.name == "chameleon_checkpoint_bytes") {
      checkpoint_bytes = sample.value;
    }
  }
  EXPECT_TRUE(saw_replayed);
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_checkpoints);
  EXPECT_TRUE(saw_checkpoint_seconds);
  // The bytes gauge is the size of the checkpoint open() just wrote.
  const auto checkpoints = list_checkpoints(dir.path);
  EXPECT_EQ(checkpoint_bytes,
            checkpoints.empty()
                ? -1.0
                : static_cast<double>(fs::file_size(checkpoints.back())));

  bool saw_start = false, saw_replay = false, saw_done = false,
       saw_checkpoint = false;
  for (const auto& event : obs::trace().snapshot()) {
    saw_start |= event.type == obs::TraceType::kRecoveryStart;
    saw_replay |= event.type == obs::TraceType::kRecoveryReplay;
    saw_done |= event.type == obs::TraceType::kRecoveryDone;
    saw_checkpoint |= event.type == obs::TraceType::kCheckpoint;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_replay);
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(saw_checkpoint);
  obs::trace().set_enabled(false);
  obs::set_enabled(was_enabled);
}

TEST(Recovery, AppendsExportWalSeries) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  // The registry is process-wide, so the records counter is read as a delta.
  const auto value_of = [](const std::string& name) {
    for (const auto& sample : obs::metrics().snapshot()) {
      if (sample.name == name) return sample.value;
    }
    return 0.0;
  };
  const double records_before = value_of("chameleon_wal_records_total");
  TempDir dir;
  Chameleon sys(small_config());
  Manager manager(sys, durable_in(dir.path));
  manager.open();
  for (ObjectId oid = 1; oid <= 10; ++oid) {
    sys.put(oid, 8'192, static_cast<Nanos>(oid) * kMinute);
  }
  const WalWriter& wal = manager.wal();
  EXPECT_GE(wal.records_appended(), 10u);
  EXPECT_EQ(value_of("chameleon_wal_records_total") - records_before,
            static_cast<double>(wal.records_appended()));
  EXPECT_EQ(value_of("chameleon_wal_bytes_appended"),
            static_cast<double>(wal.bytes_appended()));
  EXPECT_EQ(value_of("chameleon_wal_fsyncs"),
            static_cast<double>(wal.fsyncs()));
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace chameleon::durability
