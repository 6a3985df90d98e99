// End-to-end recovery over real TCP (ctest label `durability`): a served
// cluster journals every wire mutation through the durability manager, the
// server "dies", and a fresh process-equivalent (new system, new manager,
// new server) must report the identical DIGEST to clients — the in-tree twin
// of the CI kill -9 smoke.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "durability/manager.hpp"
#include "fault/digest.hpp"
#include "svc/client_conn.hpp"
#include "svc/server.hpp"

namespace chameleon::durability {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir()
      : path(fs::path(::testing::TempDir()) /
             (std::string("svc_recover_") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

core::ChameleonConfig small_system() {
  core::ChameleonConfig cfg;
  cfg.servers = 12;
  cfg.ssd.pages_per_block = 8;
  cfg.ssd.block_count = 256;
  cfg.ssd.static_wl_delta = 0;
  cfg.kv.initial_scheme = meta::RedState::kEc;
  return cfg;
}

DurabilityConfig durable_in(const fs::path& dir) {
  DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync = FsyncPolicy::kAlways;
  return cfg;
}

svc::ServerConfig server_config() {
  svc::ServerConfig cfg;
  cfg.epoch_every_ops = 100;  // cross checkpoint barriers under traffic
  return cfg;
}

svc::ClientConfig client_for(const svc::Server& server) {
  svc::ClientConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = server.port();
  cfg.retry.base_backoff = 2 * kMillisecond;
  return cfg;
}

std::string key_for(int i) { return "key-" + std::to_string(i % 60); }

TEST(SvcRecovery, DigestOpReturnsTheClusterDigest) {
  core::Chameleon system(small_system());
  svc::Server server(system, server_config());
  server.start();
  svc::ClientPool pool(client_for(server), 2);
  pool.put("a-key", std::string_view("a-value"));
  const std::string digest = pool.digest();
  server.stop();

  ASSERT_EQ(digest.size(), 16u);
  for (const char c : digest) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << digest;
  }
  char expected[17];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(
                    fault::cluster_digest(system.store())));
  EXPECT_EQ(digest, expected);
}

TEST(SvcRecovery, RestartedServerReportsIdenticalDigest) {
  TempDir dir;
  std::string digest_before;
  {
    core::Chameleon system(small_system());
    Manager manager(system, durable_in(dir.path));
    manager.open();
    svc::Server server(system, server_config());
    server.start();
    svc::ClientPool pool(client_for(server), 2);
    const std::vector<std::uint8_t> value(200, 0xAB);
    for (int i = 0; i < 350; ++i) {  // 3+ epoch barriers at 100 ops/epoch
      ASSERT_EQ(pool.put(key_for(i), value), svc::Status::kOk);
    }
    ASSERT_EQ(pool.remove(key_for(3)), svc::Status::kOk);
    digest_before = pool.digest();
    server.stop();
  }  // server down, manager dropped: the "process" is gone

  core::Chameleon system(small_system());
  Manager manager(system, durable_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_TRUE(report.recovered);

  svc::Server server(system, server_config());
  server.start();
  svc::ClientPool pool(client_for(server), 2);
  EXPECT_EQ(pool.digest(), digest_before);
  // The restarted server serves the recovered data, not just its digest.
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pool.get(key_for(1), got), svc::Status::kOk);
  EXPECT_EQ(got, std::vector<std::uint8_t>(200, 0xAB));
  EXPECT_EQ(pool.get(key_for(3), got), svc::Status::kNotFound);
  // And it keeps journaling: new writes still land.
  EXPECT_EQ(pool.put("post-recovery", std::string_view("fresh")),
            svc::Status::kOk);
  server.stop();
}

TEST(SvcRecovery, RestartAfterErasingEpochsReportsIdenticalDigest) {
  // With 32 blocks per device the FTLs garbage-collect, so an epoch tick
  // changes state that depends on whether the triggering PUT's device work
  // has landed. The epoch checkpoint must capture the state after that work
  // drains — exactly what a sequential run would hold — or the restarted
  // server recovers a state the served one never had.
  core::ChameleonConfig sys = small_system();
  sys.ssd.block_count = 32;
  svc::ServerConfig cfg = server_config();
  cfg.epoch_every_ops = 50;
  TempDir dir;
  std::string served;
  std::uint64_t erases = 0;
  {
    core::Chameleon system(sys);
    Manager manager(system, durable_in(dir.path));
    manager.open();
    svc::Server server(system, cfg);
    server.start();
    {
      svc::ClientPool pool(client_for(server), 1);
      // The 2,000th PUT ticks the 40th epoch, so the last checkpoint is the
      // one its epoch wrote and recovery replays no WAL records after it.
      for (int i = 0; i < 2000; ++i) {
        const std::vector<std::uint8_t> value(200,
                                              static_cast<std::uint8_t>(i));
        ASSERT_EQ(pool.put("key-" + std::to_string(i % 80), value),
                  svc::Status::kOk);
      }
      served = pool.digest();
    }
    server.stop();
    for (const std::uint64_t e : system.cluster().erase_counts()) erases += e;
  }
  EXPECT_GT(erases, 0u);

  core::Chameleon system(sys);
  Manager manager(system, durable_in(dir.path));
  EXPECT_TRUE(manager.open().recovered);
  svc::Server server(system, cfg);
  server.start();
  svc::ClientPool pool(client_for(server), 1);
  EXPECT_EQ(pool.digest(), served);
  server.stop();
}

}  // namespace
}  // namespace chameleon::durability
