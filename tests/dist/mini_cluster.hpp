// Shared in-process 3-node test harness for the dist suite: three plain
// svc::Servers on loopback with fixed post-bind ports, so tests can kill a
// node and restart it at the same address — the in-process analogue of the
// multi-process chaosd topology.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/chameleon.hpp"
#include "dist/router.hpp"
#include "svc/client_conn.hpp"
#include "svc/server.hpp"

namespace chameleon::dist {

inline core::ChameleonConfig small_system() {
  core::ChameleonConfig cfg;
  cfg.servers = 6;
  cfg.ssd.pages_per_block = 8;
  cfg.ssd.block_count = 256;
  cfg.ssd.static_wl_delta = 0;
  cfg.kv.initial_scheme = meta::RedState::kEc;
  return cfg;
}

/// One in-process data node: simulated cluster + server.
struct TestNode {
  std::unique_ptr<core::Chameleon> system;
  std::unique_ptr<svc::Server> server;

  void stop() {
    server.reset();  // ~Server drains and joins before the store goes
    system.reset();
  }
};

class MiniCluster {
 public:
  static constexpr std::size_t kNodes = 3;

  /// `workers`: shard worker threads under each node's store coordinator.
  explicit MiniCluster(std::uint32_t workers = 2) : workers_(workers) {
    // First boot on ephemeral ports; pin the specs afterwards.
    for (std::size_t i = 0; i < kNodes; ++i) boot(i, 0);
    for (std::size_t i = 0; i < kNodes; ++i) {
      PeerSpec spec;
      spec.id = static_cast<std::uint32_t>(i + 1);
      spec.host = "127.0.0.1";
      spec.port = nodes_[i].server->port();
      specs_.push_back(spec);
    }
  }

  ~MiniCluster() {
    for (TestNode& node : nodes_) node.stop();
  }

  const std::vector<PeerSpec>& specs() const { return specs_; }
  TestNode& node(std::size_t i) { return nodes_[i]; }

  void kill(std::size_t i) { nodes_[i].stop(); }

  void restart(std::size_t i) { boot(i, specs_[i].port); }

 private:
  void boot(std::size_t i, std::uint16_t port) {
    TestNode& node = nodes_[i];
    node.system = std::make_unique<core::Chameleon>(small_system());
    svc::ServerConfig cfg;
    cfg.port = port;
    cfg.workers = workers_;
    cfg.epoch_every_ops = 100;
    cfg.node_id = static_cast<std::uint32_t>(i + 1);
    node.server = std::make_unique<svc::Server>(*node.system, cfg);
    node.server->start();
  }

  std::uint32_t workers_;
  std::vector<TestNode> nodes_{kNodes};
  std::vector<PeerSpec> specs_;
};

inline RouterConfig test_router_config(const MiniCluster& cluster,
                                       RouteMode mode) {
  RouterConfig cfg;
  cfg.nodes = cluster.specs();
  cfg.mode = mode;
  cfg.replicas = 2;
  cfg.ec_k = 2;
  cfg.ec_m = 1;
  cfg.heartbeat_interval = 10 * kMillisecond;
  cfg.heartbeat_timeout = 200 * kMillisecond;
  cfg.membership.suspect_after = 2;
  cfg.membership.dead_after = 3;
  cfg.io_timeout = 2 * kSecond;
  // Pin the version counter: the equivalence suite compares aggregate
  // digests across two routers, and versions are baked into stored blobs,
  // so both sides must allocate the identical sequence.
  cfg.version_seed = 1;
  return cfg;
}

template <typename Pred>
::testing::AssertionResult await(Pred pred, const char* what,
                                 std::chrono::seconds budget =
                                     std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ::testing::AssertionFailure() << "timed out waiting for " << what;
}

inline ::testing::AssertionResult await_live(Router& router,
                                             std::size_t want) {
  return await(
      [&] { return router.membership().live_ids().size() == want; },
      "live count");
}

}  // namespace chameleon::dist
