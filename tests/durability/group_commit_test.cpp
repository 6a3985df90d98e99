// WAL group commit (ctest label `durability`): fsync=always must cost one
// fsync per GROUP, not per record. The suite proves the three contract
// halves separately:
//   - sharing: N deferred appends + one wait_durable == one covering fsync;
//   - ack gating over TCP: every acked mutation was held for a group commit
//     (durable_gated == acked mutations) and fsyncs never exceed the old
//     fsync-per-record cost;
//   - crash safety: kill -9 (fork + _exit, destructors skipped) after the
//     appends but BEFORE any group fsync still replays digest-exact, because
//     write() framing alone is recoverable and nothing un-appended was acked.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/chameleon.hpp"
#include "durability/group_commit.hpp"
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
             (std::string("group_commit_") +
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

DurabilityConfig group_commit_in(const fs::path& dir) {
  DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync = FsyncPolicy::kAlways;
  cfg.group_commit = true;
  return cfg;
}

std::vector<std::uint8_t> value_for(int i) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(32 + i % 160),
                                   static_cast<std::uint8_t>(i & 0xFF));
}

TEST(GroupCommit, ManyAppendsShareOneCoveringFsync) {
  TempDir dir;
  core::Chameleon system(small_system());
  Manager manager(system, group_commit_in(dir.path));
  manager.open();
  ASSERT_TRUE(manager.group_commit_active());
  GroupCommit* gc = manager.group_commit();

  // Appends defer their fsync: with no ack waiting on them the committer
  // stays idle and the fsync count must not move at all.
  const std::uint64_t fsyncs_before = manager.wal().fsyncs();
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::uint8_t> value = value_for(i);
    system.client().put("key-" + std::to_string(i % 50),
                        std::span<const std::uint8_t>(value),
                        system.current_epoch());
  }
  EXPECT_GE(manager.last_appended_seq(), 200u);
  EXPECT_EQ(manager.wal().fsyncs(), fsyncs_before);

  // One waiter covering the whole batch: exactly one group, and an fsync
  // count that cannot have grown past a couple (200 records, ~1 fsync) —
  // the amortization fsync=always previously paid per record.
  const std::uint64_t groups_before = gc->groups();
  gc->wait_durable(gc->appended_seq());
  EXPECT_GE(gc->durable_seq(), manager.last_appended_seq());
  EXPECT_EQ(gc->groups(), groups_before + 1);
  EXPECT_LE(manager.wal().fsyncs(), fsyncs_before + 2);
}

TEST(GroupCommit, WhenDurableGatesOnTheGroupAndRunsInlineWhenCovered) {
  TempDir dir;
  core::Chameleon system(small_system());
  Manager manager(system, group_commit_in(dir.path));
  manager.open();
  GroupCommit* gc = manager.group_commit();
  ASSERT_NE(gc, nullptr);

  // seq 0 (nothing to wait for) fires inline on the caller.
  bool inline_fired = false;
  gc->when_durable(0, [&] { inline_fired = true; });
  EXPECT_TRUE(inline_fired);

  const std::vector<std::uint8_t> value = value_for(7);
  system.client().put("gated-key", std::span<const std::uint8_t>(value),
                      system.current_epoch());
  const std::uint64_t seq = gc->appended_seq();
  ASSERT_GT(seq, 0u);

  std::atomic<bool> fired{false};
  gc->when_durable(seq, [&] { fired.store(true, std::memory_order_release); });
  // The barrier contract Server::wait() leans on: once wait_durable(seq)
  // returns, every callback registered at or below seq has already run.
  gc->wait_durable(seq);
  EXPECT_TRUE(fired.load(std::memory_order_acquire));
  EXPECT_GE(gc->durable_seq(), seq);

  // Already durable: fires inline, no new group needed.
  bool covered = false;
  const std::uint64_t groups = gc->groups();
  gc->when_durable(seq, [&] { covered = true; });
  EXPECT_TRUE(covered);
  EXPECT_EQ(gc->groups(), groups);
}

TEST(GroupCommit, ConcurrentTcpWritersAreGatedAndShareFsyncs) {
  TempDir dir;
  core::Chameleon system(small_system());
  Manager manager(system, group_commit_in(dir.path));
  manager.open();

  svc::ServerConfig server_config;  // sharded default; no forced epochs
  server_config.epoch_every_ops = 0;
  svc::Server server(system, server_config);
  server.set_group_commit(manager.group_commit());
  server.start();

  const std::uint64_t fsyncs_before = manager.wal().fsyncs();
  constexpr int kThreads = 4;
  constexpr int kPutsPerThread = 50;
  std::atomic<std::uint64_t> acked{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      svc::ClientConfig cfg;
      cfg.host = "127.0.0.1";
      cfg.port = server.port();
      cfg.retry.base_backoff = 2 * kMillisecond;
      svc::ClientPool pool(cfg, 1);
      for (int i = 0; i < kPutsPerThread; ++i) {
        const std::vector<std::uint8_t> value = value_for(i);
        if (pool.put("w" + std::to_string(t) + "-k" + std::to_string(i),
                     value) == svc::Status::kOk) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  server.stop();

  const svc::ServerStats stats = server.stats();
  // An acked mutation was never released before its group fsync: every OK
  // put went through the when_durable gate, and a response exists for every
  // request (no ack was dropped while held).
  EXPECT_EQ(acked.load(), std::uint64_t{kThreads * kPutsPerThread});
  EXPECT_EQ(stats.durable_gated_total, acked.load());
  EXPECT_EQ(stats.requests_total, stats.responses_total);
  // Group commit can only amortize: never MORE fsyncs than the old
  // fsync-per-record policy would have paid for the same acked load. (The
  // deterministic 200-records-1-fsync sharing proof is the test above; a
  // strict "much less" bound here would race the scheduler.)
  EXPECT_LE(manager.wal().fsyncs() - fsyncs_before, acked.load());
  GroupCommit* gc = manager.group_commit();
  EXPECT_GE(gc->commits(), acked.load());
  EXPECT_LE(gc->groups(), gc->commits());
}

TEST(GroupCommit, AppendsAndGetsProceedWhileTheGroupFsyncIsHeld) {
  TempDir dir;
  // The hook's state outlives the manager: teardown runs a final group.
  std::mutex hook_mutex;
  std::condition_variable hook_cv;
  bool held = false;
  bool released = false;
  const auto release = [&] {
    std::lock_guard<std::mutex> lock(hook_mutex);
    released = true;
    hook_cv.notify_all();
  };

  core::Chameleon system(small_system());
  Manager manager(system, group_commit_in(dir.path));
  manager.open();
  svc::ServerConfig server_config;
  server_config.epoch_every_ops = 0;
  svc::Server server(system, server_config);
  server.set_group_commit(manager.group_commit());
  server.start();
  svc::ClientConfig cfg;
  cfg.port = server.port();

  const std::vector<std::uint8_t> value = value_for(3);
  svc::ClientPool reader(cfg, 1);
  ASSERT_EQ(reader.put("before", value), svc::Status::kOk);

  // From here the committer stops inside its next group fsync, after it
  // has taken the seq it covers and before the fsync, until released.
  manager.set_sync_hook_for_test([&] {
    std::unique_lock<std::mutex> lock(hook_mutex);
    held = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return released; });
  });
  const std::uint64_t fsyncs_before = manager.wal().fsyncs();

  auto first = std::async(std::launch::async, [&] {
    svc::ClientPool pool(cfg, 1);
    return pool.put("first", value);
  });
  bool was_held = false;
  {
    std::unique_lock<std::mutex> lock(hook_mutex);
    was_held = hook_cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return held; });
  }
  if (!was_held) {
    release();  // let `first` finish before its future is destroyed
    FAIL() << "the committer never reached its group fsync";
  }
  const std::uint64_t held_seq = manager.last_appended_seq();

  // A second write appends while the fsync is held (its ack still waits
  // for a group), and a GET is answered.
  auto second = std::async(std::launch::async, [&] {
    svc::ClientPool pool(cfg, 1);
    return pool.put("second", value);
  });
  auto read = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> got;
    return reader.get("before", got) == svc::Status::kOk && got == value;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager.last_appended_seq() == held_seq &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool appended = manager.last_appended_seq() > held_seq;
  const bool read_done =
      read.wait_until(deadline) == std::future_status::ready;
  const bool first_pending =
      first.wait_for(std::chrono::seconds(0)) == std::future_status::timeout;
  release();

  EXPECT_TRUE(appended) << "an append waited for the group fsync";
  EXPECT_TRUE(read_done) << "a GET waited for the group fsync";
  EXPECT_TRUE(first_pending) << "a PUT was acked before its fsync";
  EXPECT_TRUE(read.get());
  EXPECT_EQ(first.get(), svc::Status::kOk);
  EXPECT_EQ(second.get(), svc::Status::kOk);
  server.stop();
  manager.set_sync_hook_for_test(nullptr);
  // The held group's fsync counts, and it did not cover the second PUT's
  // record, so that PUT's ack took a group fsync of its own.
  EXPECT_EQ(manager.wal().fsyncs(), fsyncs_before + 2);
}

TEST(GroupCommit, Kill9BeforeGroupFsyncReplaysDigestExact) {
  TempDir dir;
  const fs::path digest_file = dir.path / "child_digest.txt";

  // The "process": appends 120 mutations whose group fsync never happens
  // (no waiter, committer idle), records the cluster digest it reached, and
  // dies by _exit — no destructors, no WAL close-fsync, no checkpoint. The
  // records sit in the page cache only, exactly the kill -9 mid-batch case.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    core::Chameleon system(small_system());
    Manager manager(system, group_commit_in(dir.path));
    manager.open();
    const std::uint64_t fsyncs_before = manager.wal().fsyncs();
    for (int i = 0; i < 120; ++i) {
      const std::vector<std::uint8_t> value = value_for(i);
      system.client().put("crash-key-" + std::to_string(i % 40),
                          std::span<const std::uint8_t>(value),
                          system.current_epoch());
    }
    if (manager.wal().fsyncs() != fsyncs_before) _exit(3);  // batch synced?!
    const std::uint64_t digest = fault::cluster_digest(system.store());
    {
      std::ofstream out(digest_file);
      out << digest << "\n";
      if (!out.good()) _exit(2);
    }
    _exit(0);
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  std::uint64_t child_digest = 0;
  {
    std::ifstream in(digest_file);
    ASSERT_TRUE(in >> child_digest);
  }
  ASSERT_NE(child_digest, 0u);

  // The restarted process replays the never-fsynced batch from the page
  // cache and must land on the byte-identical cluster state.
  core::Chameleon system(small_system());
  Manager manager(system, group_commit_in(dir.path));
  const RecoveryReport report = manager.open();
  EXPECT_TRUE(report.recovered);
  EXPECT_GE(report.replayed_records, 120u);
  EXPECT_EQ(fault::cluster_digest(system.store()), child_digest);
}

}  // namespace
}  // namespace chameleon::durability
