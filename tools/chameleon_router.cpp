// chameleon_router — front a multi-node Chameleon cluster with a routing
// tier that speaks the ordinary client wire protocol (docs/DISTRIBUTED.md).
//
//   chameleon_router --listen=HOST:PORT --nodes=SPEC,SPEC,SPEC [key=val]
//
// Flags are key=value pairs; a leading "--" is accepted and stripped. A flag
// the run never reads (misspelt or retired) gets one warning on stderr and
// is otherwise ignored.
//
//   listen=127.0.0.1:7440   host:port to bind (port 0 = ephemeral)
//   nodes=SPEC,...          the data nodes, as id@host:port or
//                           id@host:@/port/file specs (required)
//   mode=replicate          replicate | stripe (RS erasure coding)
//   replicas=2              replicate mode: copies per key
//   ec_k=2 ec_m=1           stripe mode: data/parity shards per stripe
//   ring_vnodes=64          virtual nodes per member on the hash ring
//   heartbeat_ms=50         node liveness probe (PEER_HEALTH) cadence
//   heartbeat_timeout_ms=250  socket timeout of one probe
//   suspect_after=2         missed probes before a node turns suspect
//   dead_after=4            missed probes before a node leaves the live set
//   wear_poll_ms=0          WEAR_REPORT aggregation cadence (0 = off)
//   io_timeout_ms=2000      socket timeout of data-plane RPCs
//   max_sessions=64         concurrent client connections
//   version_seed=0          starting write version; 0 = wall-clock floor
//                           (survives router restarts, docs/DISTRIBUTED.md)
//   port_file=PATH          write the bound port (for ephemeral-port CI)
//   metrics=1               enable the metrics registry (METRICS op)
//
// SIGINT/SIGTERM stop the router cleanly (sessions torn down, threads
// joined, exit 0).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "dist/router.hpp"
#include "obs/metrics.hpp"

using namespace chameleon;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  try {
    Config config;
    config.parse_args(argc, argv);

    if (config.get_bool("metrics", true)) obs::set_enabled(true);

    const std::string listen = config.get_string("listen", "127.0.0.1:7440");
    const auto colon = listen.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("listen must be HOST:PORT, got: " + listen);
    }

    const std::string nodes = config.get_string("nodes", "");
    if (nodes.empty()) {
      throw std::runtime_error("nodes= is required (id@host:port,...)");
    }

    dist::RouterConfig router_config;
    router_config.host = listen.substr(0, colon);
    router_config.port =
        static_cast<std::uint16_t>(std::stoul(listen.substr(colon + 1)));
    router_config.nodes = dist::parse_peer_list(nodes);
    router_config.mode =
        dist::route_mode_from_name(config.get_string("mode", "replicate"));
    router_config.replicas =
        static_cast<std::uint32_t>(config.get_int("replicas", 2));
    router_config.ec_k = static_cast<std::uint32_t>(config.get_int("ec_k", 2));
    router_config.ec_m = static_cast<std::uint32_t>(config.get_int("ec_m", 1));
    router_config.ring_vnodes =
        static_cast<std::uint32_t>(config.get_int("ring_vnodes", 64));
    router_config.heartbeat_interval =
        config.get_int("heartbeat_ms", 50) * kMillisecond;
    router_config.heartbeat_timeout =
        config.get_int("heartbeat_timeout_ms", 250) * kMillisecond;
    router_config.membership.suspect_after =
        static_cast<std::uint32_t>(config.get_int("suspect_after", 2));
    router_config.membership.dead_after =
        static_cast<std::uint32_t>(config.get_int("dead_after", 4));
    router_config.wear_poll_interval =
        config.get_int("wear_poll_ms", 0) * kMillisecond;
    router_config.io_timeout =
        config.get_int("io_timeout_ms", 2'000) * kMillisecond;
    router_config.max_sessions =
        static_cast<std::size_t>(config.get_int("max_sessions", 64));
    router_config.version_seed =
        static_cast<std::uint64_t>(config.get_int("version_seed", 0));
    const std::string port_file = config.get_string("port_file", "");
    // Every flag has been read by now; whatever is left did nothing.
    for (const std::string& key : config.unread_keys()) {
      std::fprintf(stderr, "chameleon_router: warning: ignored flag %s=%s\n",
                   key.c_str(), config.entries().at(key).c_str());
    }

    dist::Router router(router_config);
    router.start();
    std::printf(
        "chameleon_router listening on %s:%u (%s mode, %zu nodes)\n",
        router.host().c_str(), router.port(),
        dist::route_mode_name(router_config.mode),
        router_config.nodes.size());
    std::fflush(stdout);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << router.port() << "\n";
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    router.stop();

    const dist::RouterStats stats = router.stats();
    std::printf("router stopped: %llu requests (%llu puts, %llu gets, "
                "%llu deletes), %llu fan-out rpcs (%llu failed), "
                "%llu retry-later, %llu sessions\n",
                static_cast<unsigned long long>(stats.requests_total),
                static_cast<unsigned long long>(stats.puts_total),
                static_cast<unsigned long long>(stats.gets_total),
                static_cast<unsigned long long>(stats.deletes_total),
                static_cast<unsigned long long>(stats.fanout_rpcs_total),
                static_cast<unsigned long long>(stats.fanout_failures_total),
                static_cast<unsigned long long>(stats.retry_later_total),
                static_cast<unsigned long long>(stats.sessions_total));
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_router: %s\n", error.what());
    return 1;
  }
}
