// The routing tier of the multi-node data plane (docs/DISTRIBUTED.md).
//
// A dist::Router fronts N chameleon_server data nodes and speaks the SAME
// client wire protocol as a single server, so chameleon_loadgen and
// svc::ClientPool work against it unchanged. Behind the front door it:
//
//   - maps keys to nodes with a STATIC cluster::HashRing over the full node
//     set and filters the successor order through a lease-based Membership
//     view (live nodes only) — placement is deterministic, and membership
//     changes never move ring points;
//   - replicate mode: fans each PUT to the first `replicas` live successors
//     as versioned replica blobs (kReplicate), acks only when ALL of them
//     stored it, and sheds (kRetryLater) when fewer than `replicas` nodes
//     are live — an under-replicated ack could be silently lost to the one
//     node failure the model permits; reads consult every live node and
//     keep the highest version, so a rejoined node holding stale data can
//     never win;
//   - stripe mode: RS(k+m, k)-encodes each PUT and spreads the shards
//     round-robin over the live successor order (kStripeWrite), acks only
//     when every shard landed AND no node carries more than m shards (so
//     any single node failure leaves >= k shards reconstructable), shedding
//     otherwise; reads gather shards from all live nodes and reconstruct
//     the highest version with >= k shards, verifying the stripe CRC end
//     to end;
//   - deletes write versioned tombstones through the same paths, so a
//     rejoined node cannot resurrect a deleted key;
//   - heartbeats every node (kPeerHealth) from a monitor thread and ALSO
//     feeds data-plane RPC outcomes into the same Membership, so a
//     kill -9'd node is excluded on the next write that touches it and
//     re-absorbed once it heartbeats back as serving. This is the cluster's
//     only membership view: data nodes answer the probe and track nobody;
//   - polls WEAR_REPORT on a cadence and aggregates per-node erase counters
//     into a cluster-wide wear view (STATS). Placement never reads it, so
//     replica/shard placement stays byte-deterministic.
//
// Consistency model: single-router, all-targets-ack writes. With at most
// one node down at a time, every acked write (or delete) is readable at its
// latest version; kRetryLater is returned whenever the live set cannot
// satisfy a write, and clients retry with their usual backoff.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/types.hpp"
#include "dist/membership.hpp"
#include "dist/peer.hpp"
#include "ec/reed_solomon.hpp"
#include "kv/client.hpp"
#include "svc/wire.hpp"

namespace chameleon::svc {
class ClientConn;
class ClientPool;
}  // namespace chameleon::svc

namespace chameleon::dist {

enum class RouteMode : std::uint8_t { kReplicate, kStripe };
const char* route_mode_name(RouteMode mode);
/// Parse "replicate"/"stripe"; throws std::invalid_argument otherwise.
RouteMode route_mode_from_name(const std::string& name);

struct RouterConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< front-door listen port; 0 = ephemeral
  /// The data nodes (ports may be port-file specs, resolved lazily).
  std::vector<PeerSpec> nodes;
  RouteMode mode = RouteMode::kReplicate;
  std::uint32_t replicas = 2;  ///< replicate mode: copies per key
  std::uint32_t ec_k = 2;      ///< stripe mode: data shards
  std::uint32_t ec_m = 1;      ///< stripe mode: parity shards
  std::uint32_t ring_vnodes = 64;
  MembershipConfig membership;
  /// Origin id stamped into REPLICATE and STRIPE_WRITE bodies; outside the
  /// node id space.
  std::uint32_t router_id = 0xfffffffe;
  Nanos heartbeat_interval = 50 * kMillisecond;
  Nanos heartbeat_timeout = 250 * kMillisecond;
  /// Wear-view poll cadence (kWearReport to every live node); 0 disables
  /// polling (poll_wear_now() still refreshes the view).
  Nanos wear_poll_interval = 0;
  /// Starting write version. 0 (the default) derives a floor from the wall
  /// clock (microseconds since the Unix epoch) so a restarted router stamps
  /// new writes above everything a previous incarnation stored on the data
  /// nodes; nonzero pins the counter exactly (deterministic tests). See the
  /// router-restart note in docs/DISTRIBUTED.md.
  std::uint64_t version_seed = 0;
  /// Per-node RPC policy: deliberately small — the router's own failover
  /// (placement over live nodes) is the real retry, and the CLIENT retries
  /// kRetryLater end to end.
  kv::RetryPolicy node_retry{.max_attempts = 2,
                             .base_backoff = 2 * kMillisecond,
                             .total_deadline = kSecond};
  std::uint32_t max_payload = svc::kDefaultMaxPayload;
  std::size_t pool_size = 4;     ///< connections per node pool
  Nanos io_timeout = 2 * kSecond;  ///< socket timeout of data-plane RPCs
  std::size_t max_sessions = 64;   ///< concurrent front-door connections
};

/// Point-in-time router counters (all monotone except live/sessions).
struct RouterStats {
  std::uint64_t requests_total = 0;
  std::uint64_t puts_total = 0;
  std::uint64_t gets_total = 0;
  std::uint64_t deletes_total = 0;
  std::uint64_t fanout_rpcs_total = 0;
  std::uint64_t fanout_failures_total = 0;
  std::uint64_t retry_later_total = 0;  ///< answers the router shed
  std::uint64_t not_found_total = 0;
  std::uint64_t stale_replicas_skipped_total = 0;  ///< older versions seen
  std::uint64_t reconstructions_total = 0;  ///< stripe reads needing parity
  std::uint64_t wear_polls_total = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t protocol_errors_total = 0;
};

/// One node's latest wear report, as aggregated by the router.
struct NodeWear {
  std::uint32_t node_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t total_erases = 0;
  std::vector<std::uint64_t> server_erases;
};

class Router {
 public:
  explicit Router(const RouterConfig& config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind the front door, spawn the acceptor + monitor threads.
  void start();
  /// Stop accepting, tear down sessions, join every thread. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return config_.host; }
  const RouterConfig& config() const { return config_; }

  // --- routing core (also usable in-process, without the front door) ------
  svc::Status route_put(std::string_view key,
                        std::span<const std::uint8_t> value);
  svc::Status route_get(std::string_view key,
                        std::vector<std::uint8_t>& value_out);
  svc::Status route_delete(std::string_view key);
  /// Aggregate cluster digest: every node's DIGEST folded in ascending node
  /// id order into 16 hex chars. Throws TransientFault when a node is
  /// unreachable (the quiesced digest check wants all-or-nothing).
  std::string aggregate_digest();
  /// Write targets for `key` under the CURRENT membership view, in fan-out
  /// order (exposed for tests).
  std::vector<std::uint32_t> write_targets(std::string_view key);

  Membership& membership() { return membership_; }
  const Membership& membership() const { return membership_; }
  RouterStats stats() const;
  std::string stats_json() const;
  std::string health_json() const;
  /// Router readiness: every node has reported at least once (membership
  /// settled) and enough nodes are live to satisfy writes.
  bool serving() const;

  /// Latest aggregated wear view, ascending node id (nodes that never
  /// reported are absent). poll_wear_now() refreshes it synchronously.
  std::vector<NodeWear> wear_view() const;
  void poll_wear_now();

 private:
  struct NodePool;
  struct ProbeLink;

  /// The per-node client pool, built when there is none and the node's port
  /// resolves; nullptr while unresolved. Callers hold the returned
  /// reference for the whole RPC, because a failed call drops the table's
  /// pool while other threads may still use it.
  std::shared_ptr<svc::ClientPool> pool_for(std::uint32_t id);
  /// Forget `failed`, the node's pool a call just failed through, so the
  /// next call reads the port again: the node may have restarted on a fresh
  /// port.
  void drop_pool(std::uint32_t id, const svc::ClientPool* failed);
  /// Live successor order for a key: ring successors over the full set,
  /// filtered through the membership view.
  std::vector<std::uint32_t> live_order(std::uint64_t key_hash);
  /// One data-plane RPC with membership feedback. Returns std::nullopt on
  /// transport failure (the node was marked missed).
  std::optional<svc::Frame> node_call(std::uint32_t id, svc::Op op,
                                      std::vector<std::uint8_t> payload);

  svc::Status replicate_put(std::string_view key, std::uint64_t version,
                            bool tombstone,
                            std::span<const std::uint8_t> value);
  svc::Status stripe_put(std::string_view key, std::uint64_t version,
                         bool tombstone,
                         std::span<const std::uint8_t> value);
  svc::Status replicate_get(std::string_view key,
                            std::vector<std::uint8_t>& value_out);
  svc::Status stripe_get(std::string_view key,
                         std::vector<std::uint8_t>& value_out);

  void monitor_loop();
  void probe_node(ProbeLink& link);
  void accept_loop();
  void session_loop(int fd, std::uint64_t session_id);
  svc::Frame dispatch(const svc::Frame& request);

  RouterConfig config_;
  Membership membership_;
  cluster::HashRing ring_;  ///< full static node set; never mutated
  std::optional<ec::ReedSolomon> rs_;  ///< stripe mode only

  mutable std::mutex pools_mutex_;
  std::map<std::uint32_t, std::unique_ptr<NodePool>> pools_;

  std::vector<std::unique_ptr<ProbeLink>> probes_;  ///< monitor thread only

  mutable std::mutex wear_mutex_;
  std::map<std::uint32_t, NodeWear> wear_;

  /// Monotone write-version source (replica blobs / shard metas). Seeded in
  /// the constructor from config_.version_seed — by default a wall-clock
  /// floor that outranks every version a previous router incarnation stored
  /// on the (durable) data nodes.
  std::atomic<std::uint64_t> next_version_{1};

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::thread monitor_;
  std::mutex sessions_mutex_;
  std::map<std::uint64_t, int> session_fds_;
  std::map<std::uint64_t, std::thread> session_threads_;
  std::vector<std::uint64_t> finished_sessions_;  ///< reaped by the acceptor
  std::uint64_t next_session_id_ = 1;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::chrono::steady_clock::time_point start_time_{};

  // counters
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> puts_total_{0};
  std::atomic<std::uint64_t> gets_total_{0};
  std::atomic<std::uint64_t> deletes_total_{0};
  std::atomic<std::uint64_t> fanout_rpcs_total_{0};
  std::atomic<std::uint64_t> fanout_failures_total_{0};
  std::atomic<std::uint64_t> retry_later_total_{0};
  std::atomic<std::uint64_t> not_found_total_{0};
  std::atomic<std::uint64_t> stale_replicas_skipped_total_{0};
  std::atomic<std::uint64_t> reconstructions_total_{0};
  std::atomic<std::uint64_t> wear_polls_total_{0};
  std::atomic<std::uint64_t> sessions_open_{0};
  std::atomic<std::uint64_t> sessions_total_{0};
  std::atomic<std::uint64_t> protocol_errors_total_{0};
};

}  // namespace chameleon::dist
