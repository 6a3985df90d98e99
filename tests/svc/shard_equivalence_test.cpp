// Sharded-server vs sequential-replay equivalence: the same seeded
// single-connection op stream is served by a StorePipeline-backed server at
// workers 1/2/4/8 (and reactors 2), and replayed directly into a sequential
// core::Chameleon with the server's per-op semantics and epoch cadence. Both
// must produce the IDENTICAL per-op status sequence, identical GET values,
// identical mid-stream DIGEST answers, and a DIGEST-exact final state. A
// single connection keeps one request outstanding at a time, so any
// divergence — a reordered epoch tick, a bypass window that skipped its
// drain fence, a digest taken without one, a shard closure applied twice —
// shows up as a hard byte mismatch rather than a flaky race.
//
// The workload is sized so that the oracle can see epochs: with 32 blocks
// per device the FTLs garbage-collect and erase, and the balancer's epoch
// ticks then change the state. The first test pins both facts, so a server
// that ticks late, early or never cannot pass by accident.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/chameleon.hpp"
#include "fault/digest.hpp"
#include "svc/client_conn.hpp"
#include "svc/server.hpp"

namespace chameleon::svc {
namespace {

constexpr int kOps = 2000;
/// One epoch tick after every this many PUTs, in the server and the replay.
constexpr std::uint64_t kEpochEveryPuts = 50;

core::ChameleonConfig small_system() {
  core::ChameleonConfig cfg;
  cfg.servers = 12;
  cfg.ssd.pages_per_block = 8;
  cfg.ssd.block_count = 32;
  cfg.ssd.static_wl_delta = 0;
  cfg.kv.initial_scheme = meta::RedState::kEc;
  return cfg;
}

ClientConfig client_for(const Server& server) {
  ClientConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = server.port();
  cfg.retry.base_backoff = 2 * kMillisecond;
  return cfg;
}

struct WorkloadOp {
  enum class Kind { kPut, kGet, kDelete } kind = Kind::kGet;
  std::string key;
  std::vector<std::uint8_t> value;  ///< kPut only
  bool digest_after = false;        ///< take a DIGEST after this op
};

/// Deterministic seeded workload: puts/gets/deletes over 80 keys with a
/// DIGEST after every 64th op.
std::vector<WorkloadOp> make_workload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<WorkloadOp> ops(kOps);
  for (int i = 0; i < kOps; ++i) {
    WorkloadOp& op = ops[static_cast<std::size_t>(i)];
    op.key = "key-" + std::to_string(rng.next_below(80));
    const double roll = rng.next_double();
    if (roll < 0.45) {
      op.kind = WorkloadOp::Kind::kPut;
      op.value.assign(16 + rng.next_below(240),
                      static_cast<std::uint8_t>(i & 0xFF));
    } else if (roll < 0.75) {
      op.kind = WorkloadOp::Kind::kGet;
    } else {
      op.kind = WorkloadOp::Kind::kDelete;
    }
    op.digest_after = i % 64 == 63;
  }
  return ops;
}

/// One run's observable outcome: every op's status in order, every GET
/// value, every DIGEST taken mid-stream, and the final digest.
struct RunTrace {
  std::vector<Status> statuses;
  std::vector<std::vector<std::uint8_t>> values;
  std::vector<std::string> digests;
  std::string final_digest;
  std::uint64_t erases = 0;  ///< replay only: device erases, all servers
};

std::string digest_hex(core::Chameleon& system) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    fault::cluster_digest(system.store())));
  return hex;
}

/// The oracle: the op stream applied directly to a sequential
/// core::Chameleon with Server::execute's per-op semantics, ticking one
/// balancer epoch after every `epoch_every` PUTs (0 = never).
RunTrace replay(const std::vector<WorkloadOp>& ops,
                std::uint64_t epoch_every) {
  core::Chameleon system(small_system());
  kv::Client& client = system.client();
  RunTrace trace;
  std::uint64_t puts_since_epoch = 0;
  for (const WorkloadOp& op : ops) {
    switch (op.kind) {
      case WorkloadOp::Kind::kPut:
        client.put(op.key, op.value, system.current_epoch());
        trace.statuses.push_back(Status::kOk);
        if (epoch_every != 0 && ++puts_since_epoch == epoch_every) {
          puts_since_epoch = 0;
          system.advance_time(system.now() + system.config().epoch_length);
        }
        break;
      case WorkloadOp::Kind::kGet:
        if (!client.contains(op.key)) {
          trace.statuses.push_back(Status::kNotFound);
        } else {
          trace.values.push_back(client.get(op.key, system.current_epoch()));
          trace.statuses.push_back(Status::kOk);
        }
        break;
      case WorkloadOp::Kind::kDelete:
        trace.statuses.push_back(client.remove(op.key) ? Status::kOk
                                                       : Status::kNotFound);
        break;
    }
    if (op.digest_after) trace.digests.push_back(digest_hex(system));
  }
  trace.final_digest = digest_hex(system);
  for (const std::uint64_t e : system.cluster().erase_counts()) {
    trace.erases += e;
  }
  return trace;
}

/// The same op stream served over one connection by a sharded server.
RunTrace serve(const std::vector<WorkloadOp>& ops, std::uint32_t workers,
               std::uint32_t reactors = 1) {
  core::Chameleon system(small_system());
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.reactors = reactors;
  cfg.epoch_every_ops = kEpochEveryPuts;
  Server server(system, cfg);
  server.start();

  RunTrace trace;
  {
    ClientPool pool(client_for(server), 1);  // single connection: sequential
    std::vector<std::uint8_t> got;
    for (const WorkloadOp& op : ops) {
      switch (op.kind) {
        case WorkloadOp::Kind::kPut:
          trace.statuses.push_back(pool.put(op.key, op.value));
          break;
        case WorkloadOp::Kind::kGet: {
          const Status s = pool.get(op.key, got);
          if (s == Status::kOk) trace.values.push_back(got);
          trace.statuses.push_back(s);
          break;
        }
        case WorkloadOp::Kind::kDelete:
          trace.statuses.push_back(pool.remove(op.key));
          break;
      }
      if (op.digest_after) trace.digests.push_back(pool.digest());
    }
    trace.final_digest = pool.digest();
  }
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.protocol_errors_total, 0u);
  EXPECT_EQ(s.requests_total, s.responses_total);
  // The pipeline actually carried the load, drained, and ran bypass
  // windows (epoch ticks + digests) — not some fallback path.
  EXPECT_GT(s.pipeline_jobs_total, 0u);
  EXPECT_GT(s.pipeline_drains_total, 0u);
  EXPECT_GT(s.pipeline_bypass_windows_total, 0u);
  return trace;
}

/// Index of the first element where `a` and `b` differ (or where the
/// shorter one ends), or -1 when they are equal.
template <typename T>
long first_mismatch(const std::vector<T>& a, const std::vector<T>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

void expect_same(const RunTrace& served, const RunTrace& oracle) {
  EXPECT_EQ(first_mismatch(served.statuses, oracle.statuses), -1)
      << "first op whose status differs";
  EXPECT_EQ(first_mismatch(served.values, oracle.values), -1)
      << "first GET value that differs";
  EXPECT_EQ(first_mismatch(served.digests, oracle.digests), -1)
      << "first mid-stream DIGEST that differs (digest k follows op 64k+63)";
  EXPECT_EQ(served.final_digest, oracle.final_digest);
}

TEST(ShardEquivalence, WorkloadErasesAndEpochTicksChangeTheState) {
  // Guard against a vacuous oracle: the devices must erase (so the balancer
  // has wear to act on), and dropping the epoch ticks must change the final
  // state — otherwise a server that ticks late or never would still match.
  const std::vector<WorkloadOp> ops = make_workload(0xC0FFEE);
  const RunTrace ticking = replay(ops, kEpochEveryPuts);
  const RunTrace frozen = replay(ops, 0);
  ASSERT_EQ(ticking.statuses.size(), static_cast<std::size_t>(kOps));
  EXPECT_GT(ticking.erases, 0u);
  EXPECT_NE(ticking.final_digest, frozen.final_digest);

  // The workload exercises every status class, and GETs return values.
  bool saw_ok = false, saw_not_found = false;
  for (const Status s : ticking.statuses) {
    saw_ok |= s == Status::kOk;
    saw_not_found |= s == Status::kNotFound;
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_not_found);
  EXPECT_FALSE(ticking.values.empty());
}

TEST(ShardEquivalence, ShardedMatchesSequentialReplayAcrossWorkerCounts) {
  const std::vector<WorkloadOp> ops = make_workload(0xC0FFEE);
  const RunTrace oracle = replay(ops, kEpochEveryPuts);
  for (const std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same(serve(ops, workers), oracle);
  }
}

TEST(ShardEquivalence, ShardedMatchesSequentialReplayAcrossSeeds) {
  for (const std::uint64_t seed : {0xAAAAull, 0xBBBBull, 0xD1CEull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<WorkloadOp> ops = make_workload(seed);
    expect_same(serve(ops, 2), replay(ops, kEpochEveryPuts));
  }
}

TEST(ShardEquivalence, MultiReactorShardedMatchesSingleReactor) {
  // reactors=2 moves accept + IO onto SO_REUSEPORT sockets; with one
  // connection the session lands on one of them and the op stream is still
  // sequential, so the outcome must equal both the single-reactor server's
  // and the replay's.
  const std::vector<WorkloadOp> ops = make_workload(0xD1CE);
  const RunTrace two = serve(ops, 2, /*reactors=*/2);
  expect_same(two, serve(ops, 2, /*reactors=*/1));
  expect_same(two, replay(ops, kEpochEveryPuts));
}

TEST(ShardEquivalence, DifferentSeedsProduceDifferentStates) {
  // Guard against a vacuous digest (e.g. one that ignores the data): two
  // different workloads must not collide.
  EXPECT_NE(replay(make_workload(0xAAAA), kEpochEveryPuts).final_digest,
            replay(make_workload(0xBBBB), kEpochEveryPuts).final_digest);
}

}  // namespace
}  // namespace chameleon::svc
