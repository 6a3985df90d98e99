// In-process 3-node cluster integration tests for the dist routing tier
// (ctest label `dist`): three plain svc::Servers, a dist::Router fronting
// them over real loopback TCP, and an ordinary ClientPool speaking the
// unchanged client protocol to the router.
// Covers replicate and stripe placement, write availability and read
// correctness through a node fail/rejoin cycle (versioned stale-copy and
// tombstone semantics), degraded stripe reconstruction, the strict write
// gates (under-protected writes shed kRetryLater instead of acking),
// router-restart version monotonicity, node-side newest-wins replica
// application, the inline peer ops (PEER_HEALTH / WEAR_REPORT), wear
// aggregation, liveness that follows each node's serving state, and nodes
// restarting on fresh ports under concurrent routed traffic.
#include "dist/router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mini_cluster.hpp"

namespace chameleon::dist {
namespace {

svc::ClientConfig client_for(const Router& router) {
  svc::ClientConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = router.port();
  // Generous budget: the client must ride out the membership-detection
  // window after a kill (kRetryLater until the router excludes the node).
  cfg.retry.max_attempts = 10;
  cfg.retry.base_backoff = 5 * kMillisecond;
  return cfg;
}

std::vector<std::uint8_t> value_for(int i, std::size_t len) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t b = 0; b < len; ++b) {
    v[b] = static_cast<std::uint8_t>((i * 131 + static_cast<int>(b)) & 0xff);
  }
  return v;
}

TEST(RouterIntegration, ReplicateModeSurvivesFailAndRejoin) {
  MiniCluster cluster;
  Router router(test_router_config(cluster, RouteMode::kReplicate));
  router.start();
  ASSERT_TRUE(await_live(router, 3));
  ASSERT_TRUE(router.serving());

  svc::ClientPool client(client_for(router), 2);
  ASSERT_TRUE(client.wait_serving(10 * kSecond));

  // Baseline traffic through the unchanged client protocol.
  std::vector<std::uint8_t> got;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_EQ(client.put(key, value_for(i, 64)), svc::Status::kOk);
  }
  for (int i = 0; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_EQ(client.get(key, got), svc::Status::kOk) << key;
    EXPECT_EQ(got, value_for(i, 64)) << key;
  }
  ASSERT_EQ(client.remove("key-0"), svc::Status::kOk);
  EXPECT_EQ(client.get("key-0", got), svc::Status::kNotFound);

  // Kill the node that holds the first copy of a chosen key.
  const std::string hot = "key-7";
  const std::vector<std::uint32_t> targets = router.write_targets(hot);
  ASSERT_GE(targets.size(), 2u);
  const std::size_t victim = targets[0] - 1;
  cluster.kill(victim);
  // Wait for the full lease to lapse (suspect -> dead), not just exclusion:
  // the rejoin counter below only moves on a dead -> alive transition, and
  // on a fast machine the restart can otherwise land while the victim is
  // still merely suspect.
  ASSERT_TRUE(await(
      [&] {
        return router.membership().state_of(targets[0]) == PeerState::kDead;
      },
      "victim marked dead"));

  // Availability and correctness with one node down: overwrite the hot key,
  // delete another key the victim may hold, and keep reading everything.
  ASSERT_EQ(client.put(hot, value_for(1007, 64)), svc::Status::kOk);
  ASSERT_EQ(client.remove("key-8"), svc::Status::kOk);
  for (int i = 1; i < 40; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const svc::Status status = client.get(key, got);
    if (key == "key-8") {
      EXPECT_EQ(status, svc::Status::kNotFound);
    } else {
      ASSERT_EQ(status, svc::Status::kOk) << key;
      EXPECT_EQ(got, key == hot ? value_for(1007, 64) : value_for(i, 64));
    }
  }

  // Rejoin: the restarted node holds STALE state (the old hot-key value,
  // the undeleted key-8); versioned blobs must keep both reads correct.
  cluster.restart(victim);
  ASSERT_TRUE(await_live(router, 3));
  EXPECT_GE(router.membership().rejoins_total(), 1u);
  ASSERT_EQ(client.get(hot, got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(1007, 64));
  EXPECT_EQ(client.get("key-8", got), svc::Status::kNotFound);
  // The stale copy was actually consulted and outvoted, not just absent.
  EXPECT_GT(router.stats().stale_replicas_skipped_total, 0u);
  EXPECT_EQ(router.stats().protocol_errors_total, 0u);

  router.stop();
}

TEST(RouterIntegration, StripeModeReconstructsDegradedReads) {
  MiniCluster cluster;
  Router router(test_router_config(cluster, RouteMode::kStripe));
  router.start();
  ASSERT_TRUE(await_live(router, 3));

  svc::ClientPool client(client_for(router), 2);
  std::vector<std::uint8_t> got;
  // Values big enough that shards are non-trivial, with sizes that do not
  // divide evenly by k (padding must strip exactly).
  for (int i = 0; i < 25; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    ASSERT_EQ(
        client.put(key, value_for(i, 997 + static_cast<std::size_t>(i))),
        svc::Status::kOk);
  }
  for (int i = 0; i < 25; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    ASSERT_EQ(client.get(key, got), svc::Status::kOk) << key;
    EXPECT_EQ(got, value_for(i, 997 + static_cast<std::size_t>(i))) << key;
  }

  // Degraded reads: with one node gone, stripes lost shards (3 shards
  // round-robin over 3 nodes), so reads must reconstruct from parity.
  cluster.kill(1);
  ASSERT_TRUE(await([&] { return !router.membership().is_live(2); },
                    "victim exclusion"));
  for (int i = 0; i < 25; ++i) {
    const std::string key = "obj-" + std::to_string(i);
    ASSERT_EQ(client.get(key, got), svc::Status::kOk) << key << " degraded";
    EXPECT_EQ(got, value_for(i, 997 + static_cast<std::size_t>(i))) << key;
  }
  EXPECT_GT(router.stats().reconstructions_total, 0u);

  // Writes are SHED degraded: a 2+1 stripe over two live nodes would put
  // two shards on one node, and that node failing would make the acked
  // stripe unreconstructable — the router must refuse rather than ack an
  // under-protected write (route_put directly, to see the raw status
  // without the client's retry loop).
  const std::vector<std::uint8_t> degraded_value = value_for(2000, 512);
  EXPECT_EQ(router.route_put("obj-0", degraded_value),
            svc::Status::kRetryLater);
  EXPECT_EQ(router.route_delete("obj-1"), svc::Status::kRetryLater);

  // Rejoin: writes resume, and every acked write then survives any single
  // node failure — including a delete's tombstone.
  cluster.restart(1);
  ASSERT_TRUE(await_live(router, 3));
  ASSERT_EQ(client.put("obj-0", value_for(2000, 512)), svc::Status::kOk);
  ASSERT_EQ(client.remove("obj-1"), svc::Status::kOk);
  ASSERT_EQ(client.get("obj-0", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(2000, 512));
  EXPECT_EQ(client.get("obj-1", got), svc::Status::kNotFound);

  // The property the write gate buys: kill a DIFFERENT node and the
  // post-rejoin writes are still readable (reconstructed from >= k shards).
  cluster.kill(2);
  ASSERT_TRUE(await([&] { return !router.membership().is_live(3); },
                    "second victim exclusion"));
  ASSERT_EQ(client.get("obj-0", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(2000, 512));
  EXPECT_EQ(client.get("obj-1", got), svc::Status::kNotFound);
  cluster.restart(2);
  ASSERT_TRUE(await_live(router, 3));
  EXPECT_EQ(router.stats().protocol_errors_total, 0u);

  router.stop();
}

TEST(RouterIntegration, ReplicateModeShedsUnderReplicatedWrites) {
  MiniCluster cluster;
  Router router(test_router_config(cluster, RouteMode::kReplicate));
  router.start();
  ASSERT_TRUE(await_live(router, 3));
  ASSERT_EQ(router.route_put("solo", value_for(1, 32)), svc::Status::kOk);

  // With one live node left, a put would land a single copy; acking it
  // would let that node's failure (plus a stale rejoin) silently lose the
  // write. The router must shed instead.
  cluster.kill(0);
  cluster.kill(1);
  ASSERT_TRUE(await(
      [&] { return router.membership().live_ids().size() == 1; },
      "two victims excluded"));
  EXPECT_EQ(router.route_put("solo", value_for(2, 32)),
            svc::Status::kRetryLater);
  EXPECT_EQ(router.route_delete("solo"), svc::Status::kRetryLater);
  EXPECT_GT(router.stats().retry_later_total, 0u);

  cluster.restart(0);
  cluster.restart(1);
  ASSERT_TRUE(await_live(router, 3));
  ASSERT_EQ(router.route_put("solo", value_for(2, 32)), svc::Status::kOk);
  std::vector<std::uint8_t> got;
  ASSERT_EQ(router.route_get("solo", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(2, 32));
  router.stop();
}

TEST(RouterIntegration, RouterRestartKeepsWritesVisible) {
  // The data nodes outlive the router, so a restarted router must stamp
  // new writes ABOVE every version its predecessor stored — otherwise
  // post-restart puts and deletes silently lose the newest-wins read
  // comparison against pre-restart blobs.
  MiniCluster cluster;
  auto first = std::make_unique<Router>(
      test_router_config(cluster, RouteMode::kReplicate));
  first->start();
  ASSERT_TRUE(await_live(*first, 3));
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(first->route_put("gen-" + std::to_string(i), value_for(i, 48)),
              svc::Status::kOk);
  }
  first->stop();
  first.reset();

  // Second incarnation with the production default seed (wall-clock floor).
  RouterConfig cfg = test_router_config(cluster, RouteMode::kReplicate);
  cfg.version_seed = 0;
  Router second(cfg);
  second.start();
  ASSERT_TRUE(await_live(second, 3));

  std::vector<std::uint8_t> got;
  ASSERT_EQ(second.route_put("gen-3", value_for(1003, 48)), svc::Status::kOk);
  ASSERT_EQ(second.route_get("gen-3", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(1003, 48));  // the NEW value, not the old blob
  ASSERT_EQ(second.route_delete("gen-4"), svc::Status::kOk);
  EXPECT_EQ(second.route_get("gen-4", got), svc::Status::kNotFound);
  ASSERT_EQ(second.route_get("gen-5", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(5, 48));  // untouched keys still read back
  second.stop();
}

TEST(RouterIntegration, NodesApplyReplicaWritesNewestWins) {
  // Same-key fan-outs race unserialized across nodes: a node that already
  // holds version N must ack-and-ignore an arriving version < N, or two
  // racing puts could leave nodes permanently disagreeing.
  MiniCluster cluster;
  svc::ClientConfig node_cfg;
  node_cfg.host = "127.0.0.1";
  node_cfg.port = cluster.specs()[0].port;
  svc::ClientConn conn(node_cfg);

  const auto replicate = [&](std::uint64_t version,
                             const std::vector<std::uint8_t>& value) {
    std::vector<std::uint8_t> blob;
    svc::encode_replica_blob(version, false, value, blob);
    svc::ReplicateBody body;
    body.origin_node = 0xfffffffe;
    body.key = "raced";
    body.value = std::move(blob);
    std::vector<std::uint8_t> payload;
    svc::encode_replicate_body(body, payload);
    return conn.call(svc::Op::kReplicate, std::move(payload)).status;
  };
  const std::vector<std::uint8_t> newer = value_for(7, 40);
  const std::vector<std::uint8_t> older = value_for(8, 40);
  ASSERT_EQ(replicate(5, newer), svc::Status::kOk);
  ASSERT_EQ(replicate(3, older), svc::Status::kOk);  // acked but not applied

  std::vector<std::uint8_t> key_body;
  svc::encode_key_body("raced", key_body);
  const svc::Frame reply = conn.call(svc::Op::kGet, std::move(key_body));
  ASSERT_EQ(reply.status, svc::Status::kOk);
  svc::ReplicaBlob stored;
  ASSERT_TRUE(svc::decode_replica_blob(reply.payload, stored));
  EXPECT_EQ(stored.version, 5u);
  EXPECT_EQ(stored.value, newer);

  // A value that is not a well-formed replica blob is a protocol error.
  svc::ReplicateBody bad;
  bad.key = "raced";
  bad.value = {0x42};  // too short for flags + version
  std::vector<std::uint8_t> bad_payload;
  svc::encode_replicate_body(bad, bad_payload);
  EXPECT_EQ(conn.call(svc::Op::kReplicate, std::move(bad_payload)).status,
            svc::Status::kBadRequest);
}

TEST(RouterIntegration, PeerOpsAnswerInlineAndWearAggregates) {
  MiniCluster cluster;
  Router router(test_router_config(cluster, RouteMode::kReplicate));
  router.start();
  ASSERT_TRUE(await_live(router, 3));

  svc::ClientConfig node_cfg;
  node_cfg.host = "127.0.0.1";
  node_cfg.port = cluster.specs()[0].port;
  svc::ClientConn conn(node_cfg);
  // PEER_HEALTH: the node answers an empty request with its own id and
  // serving state; like WEAR_REPORT, a request with a body is malformed.
  {
    const svc::Frame reply = conn.call(svc::Op::kPeerHealth, {});
    ASSERT_EQ(reply.status, svc::Status::kOk);
    svc::PeerHealthBody health;
    ASSERT_TRUE(svc::decode_peer_health_body(reply.payload, health));
    EXPECT_EQ(health.node_id, 1u);
    EXPECT_EQ(health.state, 1u);
    EXPECT_EQ(conn.call(svc::Op::kPeerHealth, {0}).status,
              svc::Status::kBadRequest);
  }
  // WEAR_REPORT: per-flash-server erase counters behind node 1.
  {
    const svc::Frame reply = conn.call(svc::Op::kWearReport, {});
    ASSERT_EQ(reply.status, svc::Status::kOk);
    svc::WearReportBody wear;
    ASSERT_TRUE(svc::decode_wear_report_body(reply.payload, wear));
    EXPECT_EQ(wear.node_id, 1u);
    EXPECT_EQ(wear.server_erases.size(), 6u);
  }

  // The router aggregates wear across nodes and reports it in STATS.
  router.poll_wear_now();
  EXPECT_EQ(router.wear_view().size(), 3u);
  const std::string stats = router.stats_json();
  EXPECT_NE(stats.find("\"wear\":["), std::string::npos);
  EXPECT_NE(stats.find("\"mode\":\"replicate\""), std::string::npos);

  // The router's own front door answers HEALTH from its membership view.
  svc::ClientConfig router_cfg;
  router_cfg.host = "127.0.0.1";
  router_cfg.port = router.port();
  svc::ClientConn front(router_cfg);
  const svc::Frame reply = front.call(svc::Op::kHealth, {});
  ASSERT_EQ(reply.status, svc::Status::kOk);
  const std::string health(reply.payload.begin(), reply.payload.end());
  EXPECT_NE(health.find("\"serving\":true"), std::string::npos);
  EXPECT_NE(health.find("\"live\":3"), std::string::npos);

  router.stop();
}

TEST(RouterIntegration, LivenessFollowsTheNodesServingState) {
  // A data node reports its own serving state in PEER_HEALTH, and the
  // router counts it live only while that state is "serving": a node that
  // listens while it recovers stays out of placement until it serves, and
  // leaves again when it drains.
  core::Chameleon system(small_system());
  svc::ServerConfig server_cfg;
  server_cfg.node_id = 1;
  server_cfg.start_recovering = true;
  svc::Server server(system, server_cfg);
  server.start();

  RouterConfig cfg;
  PeerSpec spec;
  spec.id = 1;
  spec.port = server.port();
  cfg.nodes = {spec};
  cfg.replicas = 1;
  cfg.heartbeat_interval = 10 * kMillisecond;
  cfg.membership.suspect_after = 2;
  cfg.membership.dead_after = 3;
  cfg.version_seed = 1;
  Router router(cfg);
  router.start();

  svc::ClientConfig node_cfg;
  node_cfg.host = "127.0.0.1";
  node_cfg.port = server.port();
  svc::ClientConn conn(node_cfg);
  const svc::Frame reply = conn.call(svc::Op::kPeerHealth, {});
  ASSERT_EQ(reply.status, svc::Status::kOk);
  svc::PeerHealthBody health;
  ASSERT_TRUE(svc::decode_peer_health_body(reply.payload, health));
  EXPECT_EQ(health.state,
            static_cast<std::uint8_t>(svc::ServingState::kRecovering));

  // The node answers every probe, as recovering, so its lease never starts:
  // it settles to dead and stays out through several more heartbeats.
  ASSERT_TRUE(await(
      [&] { return router.membership().state_of(1) == PeerState::kDead; },
      "recovering node settled as dead"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(router.membership().live_ids().empty());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(router.serving());
  EXPECT_EQ(router.route_put("k", value_for(1, 16)),
            svc::Status::kRetryLater);

  server.set_serving();
  ASSERT_TRUE(await_live(router, 1));
  EXPECT_EQ(router.route_put("k", value_for(1, 16)), svc::Status::kOk);

  server.request_stop();
  ASSERT_TRUE(await_live(router, 0));
  server.wait();
  router.stop();
}

/// Write `port` to `path` through a rename, as a restarted node republishes
/// its port, so a concurrent reader never sees a half-written file.
void publish_port(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << port << "\n";
  }
  ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
}

TEST(RouterIntegration, NodesRestartOnFreshPortsUnderConcurrentTraffic) {
  // The router rebuilds a node's client pool when the node's port file
  // names a new port. Other router threads may still be inside
  // ClientPool::call on the old pool at that moment, so the rebuild must
  // not free the pool under them. Here four threads route traffic while one
  // node after another restarts on a fresh ephemeral port every ~20 ms.
  constexpr std::size_t kNodes = 3;
  std::vector<TestNode> nodes(kNodes);
  std::vector<std::string> port_files;
  const auto boot = [&](std::size_t i) {
    nodes[i].system = std::make_unique<core::Chameleon>(small_system());
    svc::ServerConfig server_cfg;
    server_cfg.node_id = static_cast<std::uint32_t>(i + 1);
    server_cfg.workers = 1;
    nodes[i].server = std::make_unique<svc::Server>(*nodes[i].system,
                                                     server_cfg);
    nodes[i].server->start();
    publish_port(port_files[i], nodes[i].server->port());
  };
  RouterConfig cfg;
  for (std::size_t i = 0; i < kNodes; ++i) {
    port_files.push_back(::testing::TempDir() + "router_restart_node" +
                         std::to_string(i + 1) + "-port.txt");
    std::remove(port_files.back().c_str());
    boot(i);
    PeerSpec spec;
    spec.id = static_cast<std::uint32_t>(i + 1);
    spec.port_file = port_files.back();
    cfg.nodes.push_back(spec);
  }
  cfg.replicas = 2;
  cfg.heartbeat_interval = 5 * kMillisecond;
  cfg.membership.suspect_after = 1;
  cfg.membership.dead_after = 2;
  cfg.version_seed = 1;
  Router router(cfg);
  router.start();
  ASSERT_TRUE(await_live(router, kNodes));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> puts_ok{0};
  std::atomic<std::uint64_t> unexpected{0};  ///< kError/kBadRequest/throws
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint8_t> got;
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string key = "churn-" + std::to_string((i * 4 + t) % 64);
        try {
          const svc::Status status =
              (i % 2 == 0) ? router.route_put(key, value_for(i, 64))
                           : router.route_get(key, got);
          if (status == svc::Status::kOk && i % 2 == 0) ++puts_ok;
          if (status == svc::Status::kError ||
              status == svc::Status::kBadRequest) {
            ++unexpected;
          }
        } catch (const std::exception&) {
          ++unexpected;
        }
      }
    });
  }

  int restarts = 0;
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::size_t victim = static_cast<std::size_t>(restarts) % kNodes;
    nodes[victim].stop();
    boot(victim);
    ++restarts;
  }
  stop.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_GE(restarts, 20);
  EXPECT_GT(puts_ok.load(), 0u);
  EXPECT_EQ(unexpected.load(), 0u);

  // Every node is back on its latest port: routing converges again.
  ASSERT_TRUE(await_live(router, kNodes));
  ASSERT_TRUE(await(
      [&] { return router.route_put("after", value_for(7, 64)) ==
                   svc::Status::kOk; },
      "a put after the churn"));
  std::vector<std::uint8_t> got;
  ASSERT_EQ(router.route_get("after", got), svc::Status::kOk);
  EXPECT_EQ(got, value_for(7, 64));
  router.stop();
  for (TestNode& node : nodes) node.stop();
  for (const std::string& path : port_files) std::remove(path.c_str());
}

}  // namespace
}  // namespace chameleon::dist
