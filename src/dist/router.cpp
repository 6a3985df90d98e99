#include "dist/router.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/faults.hpp"
#include "common/fnv.hpp"
#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "svc/client_conn.hpp"

namespace chameleon::dist {

namespace {

void send_all_fd(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw TransientFault(std::string("dist router: send: ") +
                         std::strerror(errno));
  }
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Default write-version floor for a fresh router: wall-clock microseconds
/// since the Unix epoch. Replica/shard blobs on the data nodes outlive the
/// router process, so a restarted router must stamp new writes ABOVE every
/// version it handed out before, or post-restart writes silently lose the
/// newest-wins comparison. Each allocated version costs at least one
/// network RPC (≫ 1 µs of wall time), so the in-process counter can never
/// outrun this clock; the remaining assumption — documented in
/// docs/DISTRIBUTED.md — is that the clock does not step backwards across
/// restarts.
std::uint64_t wallclock_version_floor() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* route_mode_name(RouteMode mode) {
  switch (mode) {
    case RouteMode::kReplicate: return "replicate";
    case RouteMode::kStripe: return "stripe";
  }
  return "unknown";
}

RouteMode route_mode_from_name(const std::string& name) {
  if (name == "replicate") return RouteMode::kReplicate;
  if (name == "stripe") return RouteMode::kStripe;
  throw std::invalid_argument("dist: unknown route mode '" + name +
                              "' (expected replicate|stripe)");
}

/// Data-plane access to one node: a client pool built from the node's port
/// when there is none, and dropped when a call through it fails, so a node
/// restarting on a different ephemeral port gets a fresh pool on the next
/// call. Guarded by pools_mutex_. The pool is shared: dropping it only drops
/// the table's reference, and a caller still inside ClientPool::call on the
/// old pool keeps it alive until it returns.
struct Router::NodePool {
  PeerSpec spec;
  std::shared_ptr<svc::ClientPool> pool;
};

/// Heartbeat connection state per node; monitor thread only.
struct Router::ProbeLink {
  PeerSpec spec;
  std::uint16_t resolved_port = 0;
  std::unique_ptr<svc::ClientConn> conn;
};

Router::Router(const RouterConfig& config)
    : config_(config),
      membership_(config.membership),
      ring_(0, std::max<std::uint32_t>(1, config.ring_vnodes)) {
  if (config_.nodes.empty()) {
    throw std::invalid_argument("dist router: no data nodes configured");
  }
  if (config_.mode == RouteMode::kReplicate) {
    if (config_.replicas == 0) {
      throw std::invalid_argument("dist router: replicas must be >= 1");
    }
    if (config_.replicas > config_.nodes.size()) {
      throw std::invalid_argument(
          "dist router: replicas exceeds the node count — no write could "
          "ever be acked");
    }
  } else {
    if (config_.ec_k == 0 || config_.ec_m == 0 ||
        config_.ec_k + config_.ec_m > 255) {
      throw std::invalid_argument(
          "dist router: stripe geometry must satisfy k >= 1, m >= 1, "
          "k + m <= 255");
    }
    const std::uint32_t shard_count = config_.ec_k + config_.ec_m;
    const auto per_node = static_cast<std::uint32_t>(
        (shard_count + config_.nodes.size() - 1) / config_.nodes.size());
    if (per_node > config_.ec_m) {
      throw std::invalid_argument(
          "dist router: stripe geometry cannot survive one node failure "
          "even with every node live (a node would carry > m shards) — "
          "no write could ever be acked");
    }
    rs_.emplace(config_.ec_k + config_.ec_m, config_.ec_k);
  }
  next_version_.store(config_.version_seed != 0 ? config_.version_seed
                                                : wallclock_version_floor(),
                      std::memory_order_relaxed);
  for (const PeerSpec& node : config_.nodes) {
    if (ring_.contains(node.id)) {
      throw std::invalid_argument("dist router: duplicate node id " +
                                  std::to_string(node.id));
    }
    ring_.add_server(node.id);
    membership_.add_peer(node.id);
    auto pool = std::make_unique<NodePool>();
    pool->spec = node;
    pools_.emplace(node.id, std::move(pool));
    auto probe = std::make_unique<ProbeLink>();
    probe->spec = node;
    probes_.push_back(std::move(probe));
  }
}

Router::~Router() { stop(); }

// --- data-plane plumbing -----------------------------------------------------

std::shared_ptr<svc::ClientPool> Router::pool_for(std::uint32_t id) {
  std::lock_guard lock(pools_mutex_);
  const auto it = pools_.find(id);
  if (it == pools_.end()) return nullptr;
  NodePool& np = *it->second;
  if (np.pool) return np.pool;
  const auto resolved = resolve_port(np.spec);
  if (!resolved.has_value()) return nullptr;
  svc::ClientConfig cc;
  cc.host = np.spec.host;
  cc.port = *resolved;
  cc.retry = config_.node_retry;
  cc.max_payload = config_.max_payload;
  cc.default_io_timeout = config_.io_timeout;
  np.pool = std::make_shared<svc::ClientPool>(cc, config_.pool_size);
  return np.pool;
}

void Router::drop_pool(std::uint32_t id, const svc::ClientPool* failed) {
  std::lock_guard lock(pools_mutex_);
  const auto it = pools_.find(id);
  // Another caller may have dropped and rebuilt it already; keep the new one.
  if (it != pools_.end() && it->second->pool.get() == failed) {
    it->second->pool.reset();
  }
}

std::optional<svc::Frame> Router::node_call(std::uint32_t id, svc::Op op,
                                            std::vector<std::uint8_t> payload) {
  fanout_rpcs_total_.fetch_add(1, std::memory_order_relaxed);
  const std::shared_ptr<svc::ClientPool> pool = pool_for(id);
  if (pool == nullptr) {
    fanout_failures_total_.fetch_add(1, std::memory_order_relaxed);
    membership_.probe_missed(id);
    return std::nullopt;
  }
  try {
    svc::Frame response = pool->call(op, std::move(payload));
    // A served data-plane RPC is as good as a heartbeat: the node answered
    // and is serving (a recovering/draining node answers kRetryLater /
    // kShuttingDown, which the pool retries and then throws on).
    membership_.probe_ok(id);
    return response;
  } catch (const kv::RetriesExhausted&) {
  } catch (const TransientFault&) {
  }
  drop_pool(id, pool.get());
  fanout_failures_total_.fetch_add(1, std::memory_order_relaxed);
  membership_.probe_missed(id);
  return std::nullopt;
}

std::vector<std::uint32_t> Router::live_order(std::uint64_t key_hash) {
  const std::vector<ServerId> all =
      ring_.successors(key_hash, ring_.server_count());
  std::vector<std::uint32_t> live;
  live.reserve(all.size());
  for (const ServerId id : all) {
    if (membership_.is_live(id)) live.push_back(id);
  }
  return live;
}

std::vector<std::uint32_t> Router::write_targets(std::string_view key) {
  std::vector<std::uint32_t> order = live_order(cluster::key_point(key));
  if (config_.mode == RouteMode::kReplicate &&
      order.size() > config_.replicas) {
    order.resize(config_.replicas);
  }
  return order;
}

// --- write paths -------------------------------------------------------------

svc::Status Router::replicate_put(std::string_view key, std::uint64_t version,
                                  bool tombstone,
                                  std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> blob;
  svc::encode_replica_blob(version, tombstone, value, blob);
  svc::ReplicateBody body;
  body.origin_node = config_.router_id;
  body.key = std::string(key);
  body.value = std::move(blob);
  std::vector<std::uint8_t> payload;
  svc::encode_replicate_body(body, payload);

  std::vector<std::uint32_t> targets = live_order(cluster::key_point(key));
  // Never ack under-replicated: with fewer than `replicas` live nodes a
  // write would land a single copy, and the one permitted node failure
  // could then make a rejoined stale copy win reads. Shed instead — the
  // client retries until the live set can hold every copy.
  if (targets.size() < config_.replicas) return svc::Status::kRetryLater;
  if (targets.size() > config_.replicas) targets.resize(config_.replicas);
  // All-or-retry: the write is acked only when EVERY targeted replica
  // stored it. A partial write is answered kRetryLater; the client's retry
  // re-runs placement against the (by then updated) membership view, which
  // is how a kill -9 mid-fan-out converges to zero acked-write loss.
  for (const std::uint32_t id : targets) {
    const auto response = node_call(id, svc::Op::kReplicate, payload);
    if (!response.has_value()) return svc::Status::kRetryLater;
    if (response->status != svc::Status::kOk) {
      return response->status == svc::Status::kBadRequest
                 ? svc::Status::kError
                 : svc::Status::kRetryLater;
    }
  }
  return svc::Status::kOk;
}

svc::Status Router::stripe_put(std::string_view key, std::uint64_t version,
                               bool tombstone,
                               std::span<const std::uint8_t> value) {
  const std::uint32_t shard_count = config_.ec_k + config_.ec_m;
  std::vector<std::vector<std::uint8_t>> shards;
  svc::ShardMeta base;
  base.k = static_cast<std::uint16_t>(config_.ec_k);
  base.m = static_cast<std::uint16_t>(config_.ec_m);
  base.version = version;
  if (tombstone) {
    base.flags = svc::kShardFlagTombstone;
    shards.assign(shard_count, {});
  } else {
    const std::vector<std::uint8_t> object(value.begin(), value.end());
    shards = rs_->encode_object(object);
    base.stripe_len = object.size();
    base.stripe_crc = svc::crc32c(value);
  }

  const std::vector<std::uint32_t> palette =
      live_order(cluster::key_point(key));
  // Never ack a stripe that one node failure would make unreconstructable:
  // round-robin over a small palette piles several shard indexes onto one
  // node, and losing a node that carries more than m shards drops the
  // stripe below k. Require every node to carry <= m shards, else shed and
  // let the client retry once the membership view recovers.
  if (palette.empty() ||
      (shard_count + palette.size() - 1) / palette.size() > config_.ec_m) {
    return svc::Status::kRetryLater;
  }
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    svc::StripeShardBody body;
    body.origin_node = config_.router_id;
    body.key = std::string(key);
    body.meta = base;
    body.meta.index = i;
    body.shard = shards[i];
    std::vector<std::uint8_t> payload;
    svc::encode_stripe_shard_body(body, payload);
    // Round-robin over the live successor order; the palette gate above
    // caps any one node at m shard indexes.
    const std::uint32_t target = palette[i % palette.size()];
    const auto response =
        node_call(target, svc::Op::kStripeWrite, std::move(payload));
    if (!response.has_value()) return svc::Status::kRetryLater;
    if (response->status != svc::Status::kOk) {
      return response->status == svc::Status::kBadRequest
                 ? svc::Status::kError
                 : svc::Status::kRetryLater;
    }
  }
  return svc::Status::kOk;
}

svc::Status Router::route_put(std::string_view key,
                              std::span<const std::uint8_t> value) {
  puts_total_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  const svc::Status status =
      config_.mode == RouteMode::kReplicate
          ? replicate_put(key, version, false, value)
          : stripe_put(key, version, false, value);
  if (status == svc::Status::kRetryLater) {
    retry_later_total_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

svc::Status Router::route_delete(std::string_view key) {
  deletes_total_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  // Deletes are versioned tombstone writes through the ordinary write path:
  // a node that was down for the delete rejoins with a stale value whose
  // version loses to the tombstone, so reads stay delete-correct with zero
  // anti-entropy machinery. (The blobs stay on disk; compaction is future
  // work.) Idempotent: deleting an absent key still acks kOk.
  const svc::Status status = config_.mode == RouteMode::kReplicate
                                 ? replicate_put(key, version, true, {})
                                 : stripe_put(key, version, true, {});
  if (status == svc::Status::kRetryLater) {
    retry_later_total_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

// --- read paths --------------------------------------------------------------

svc::Status Router::replicate_get(std::string_view key,
                                  std::vector<std::uint8_t>& value_out) {
  // Consult EVERY live node and keep the highest version: with at most one
  // node down at a time, the latest acked write (stored on `replicas` nodes)
  // is always present on a consulted node, and stale rejoined copies lose.
  const std::vector<std::uint32_t> candidates =
      live_order(cluster::key_point(key));
  std::vector<std::uint8_t> body;
  svc::encode_key_body(key, body);
  bool found = false;
  bool failures = false;
  svc::ReplicaBlob best;
  for (const std::uint32_t id : candidates) {
    const auto response = node_call(id, svc::Op::kGet, body);
    if (!response.has_value()) {
      failures = true;
      continue;
    }
    if (response->status != svc::Status::kOk) continue;  // kNotFound et al.
    svc::ReplicaBlob blob;
    if (!svc::decode_replica_blob(response->payload, blob)) {
      protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (found) {
      stale_replicas_skipped_total_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!found || blob.version > best.version) best = std::move(blob);
    found = true;
  }
  if (!found) {
    return failures || candidates.empty() ? svc::Status::kRetryLater
                                          : svc::Status::kNotFound;
  }
  if (best.tombstone) return svc::Status::kNotFound;
  value_out = std::move(best.value);
  return svc::Status::kOk;
}

svc::Status Router::stripe_get(std::string_view key,
                               std::vector<std::uint8_t>& value_out) {
  const std::uint32_t shard_count = config_.ec_k + config_.ec_m;
  const std::vector<std::uint32_t> candidates =
      live_order(cluster::key_point(key));
  bool failures = candidates.empty();
  // version -> (index -> shard bytes); every node is asked for every shard
  // index, because fail/rejoin cycles migrate shard placement over time.
  struct Stripe {
    std::map<std::uint32_t, std::vector<std::uint8_t>> shards;
    svc::ShardMeta meta;
    bool tombstone = false;
  };
  std::map<std::uint64_t, Stripe> by_version;
  for (const std::uint32_t id : candidates) {
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      std::vector<std::uint8_t> body;
      svc::encode_key_body(svc::shard_key(key, i), body);
      const auto response = node_call(id, svc::Op::kGet, std::move(body));
      if (!response.has_value()) {
        failures = true;
        continue;
      }
      if (response->status != svc::Status::kOk) continue;
      svc::ShardMeta meta;
      std::vector<std::uint8_t> shard;
      if (!svc::decode_shard_blob(response->payload, meta, shard) ||
          meta.k != config_.ec_k || meta.m != config_.ec_m ||
          meta.index != i) {
        protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Stripe& stripe = by_version[meta.version];
      stripe.meta = meta;
      stripe.tombstone =
          stripe.tombstone || (meta.flags & svc::kShardFlagTombstone) != 0;
      stripe.shards.emplace(i, std::move(shard));
    }
  }
  if (by_version.empty()) {
    return failures ? svc::Status::kRetryLater : svc::Status::kNotFound;
  }
  // Highest version first: tombstone wins outright; otherwise reconstruct
  // from any >= k shards and verify the stripe CRC end to end.
  for (auto it = by_version.rbegin(); it != by_version.rend(); ++it) {
    Stripe& stripe = it->second;
    if (stripe.tombstone) return svc::Status::kNotFound;
    if (stripe.shards.size() < config_.ec_k) continue;
    std::vector<std::optional<std::vector<std::uint8_t>>> slots(shard_count);
    bool parity_needed = false;
    for (auto& [index, bytes] : stripe.shards) {
      slots[index] = std::move(bytes);
    }
    for (std::uint32_t i = 0; i < config_.ec_k; ++i) {
      if (!slots[i].has_value()) parity_needed = true;
    }
    try {
      const auto data = rs_->reconstruct_data(slots);
      std::vector<std::uint8_t> object = ec::ReedSolomon::join(
          data, static_cast<std::size_t>(stripe.meta.stripe_len));
      if (svc::crc32c({object.data(), object.size()}) !=
          stripe.meta.stripe_crc) {
        protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (parity_needed) {
        reconstructions_total_.fetch_add(1, std::memory_order_relaxed);
      }
      value_out = std::move(object);
      return svc::Status::kOk;
    } catch (const std::exception&) {
      continue;  // fewer than k usable shards after all; try older version
    }
  }
  // Shards exist but no version is currently reconstructable — transient
  // (a rejoining node will bring the missing shards back).
  return svc::Status::kRetryLater;
}

svc::Status Router::route_get(std::string_view key,
                              std::vector<std::uint8_t>& value_out) {
  gets_total_.fetch_add(1, std::memory_order_relaxed);
  const svc::Status status = config_.mode == RouteMode::kReplicate
                                 ? replicate_get(key, value_out)
                                 : stripe_get(key, value_out);
  if (status == svc::Status::kRetryLater) {
    retry_later_total_.fetch_add(1, std::memory_order_relaxed);
  } else if (status == svc::Status::kNotFound) {
    not_found_total_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

std::string Router::aggregate_digest() {
  // Every node's DIGEST (itself a drain-fenced consistent snapshot), folded
  // in ascending node id order — deterministic no matter which route the
  // request took. All-or-nothing: an unreachable node throws, because a
  // partial aggregate would silently compare equal across different
  // membership states.
  std::uint64_t h = fnv1a64("chameleon.dist.digest");
  for (const std::uint32_t id : membership_.all_ids()) {
    const std::shared_ptr<svc::ClientPool> pool = pool_for(id);
    if (pool == nullptr) {
      throw TransientFault("dist router: node " + std::to_string(id) +
                           " unresolved for digest");
    }
    std::string digest;
    try {
      digest = pool->digest();
    } catch (...) {
      drop_pool(id, pool.get());
      throw;
    }
    h = fnv1a64_continue(h, id);
    h = fnv1a64_continue(h, fnv1a64(digest));
  }
  return hex16(h);
}

// --- wear aggregation --------------------------------------------------------

void Router::poll_wear_now() {
  wear_polls_total_.fetch_add(1, std::memory_order_relaxed);
  for (const std::uint32_t id : membership_.live_ids()) {
    const auto response = node_call(id, svc::Op::kWearReport, {});
    if (!response.has_value() || response->status != svc::Status::kOk) {
      continue;
    }
    svc::WearReportBody body;
    if (!svc::decode_wear_report_body(response->payload, body)) {
      protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    NodeWear wear;
    wear.node_id = id;
    wear.epoch = body.epoch;
    wear.total_erases = body.total_erases;
    wear.server_erases = std::move(body.server_erases);
    std::lock_guard lock(wear_mutex_);
    wear_[id] = std::move(wear);
  }
}

std::vector<NodeWear> Router::wear_view() const {
  std::lock_guard lock(wear_mutex_);
  std::vector<NodeWear> out;
  out.reserve(wear_.size());
  for (const auto& [id, wear] : wear_) out.push_back(wear);
  return out;
}

// --- liveness monitor --------------------------------------------------------

void Router::probe_node(ProbeLink& link) {
  const auto resolved = resolve_port(link.spec);
  if (!resolved.has_value()) {
    membership_.probe_missed(link.spec.id);
    return;
  }
  if (link.conn && link.resolved_port != *resolved) link.conn.reset();
  if (!link.conn) {
    svc::ClientConfig cc;
    cc.host = link.spec.host;
    cc.port = *resolved;
    cc.default_io_timeout = config_.heartbeat_timeout;
    link.conn = std::make_unique<svc::ClientConn>(cc);
    link.resolved_port = *resolved;
  }
  try {
    const svc::Frame reply = link.conn->call(svc::Op::kPeerHealth, {});
    svc::PeerHealthBody answer;
    // Liveness for the DATA plane means "serving": a node that answers
    // heartbeats while recovering still sheds data ops, so it only rejoins
    // the routing view once it reports state 1.
    if (reply.status == svc::Status::kOk &&
        svc::decode_peer_health_body(reply.payload, answer) &&
        answer.state == 1) {
      membership_.probe_ok(link.spec.id);
    } else {
      membership_.probe_missed(link.spec.id);
    }
  } catch (const std::exception&) {
    link.conn.reset();
    membership_.probe_missed(link.spec.id);
  }
}

void Router::monitor_loop() {
  auto last_wear_poll = std::chrono::steady_clock::now();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    for (auto& probe : probes_) {
      if (stop_requested_.load(std::memory_order_acquire)) return;
      probe_node(*probe);
    }
    if (config_.wear_poll_interval > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_wear_poll >=
          std::chrono::nanoseconds(config_.wear_poll_interval)) {
        last_wear_poll = now;
        poll_wear_now();
      }
    }
    std::unique_lock lock(wake_mutex_);
    wake_.wait_for(
        lock, std::chrono::nanoseconds(config_.heartbeat_interval),
        [this] { return stop_requested_.load(std::memory_order_acquire); });
  }
}

// --- front door --------------------------------------------------------------

void Router::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(false, std::memory_order_release);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("dist router: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("dist router: cannot parse host '" +
                             config_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("dist router: bind/listen: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Router::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard lock(wake_mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard lock(sessions_mutex_);
    for (const auto& [id, fd] : session_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (monitor_.joinable()) monitor_.join();
  // Move the session threads out of the table before joining them: a
  // draining session's last act is to take sessions_mutex_ and unregister
  // itself, so joining under the lock deadlocks with any session that was
  // still alive when stop() began.
  std::vector<std::thread> draining;
  {
    std::lock_guard lock(sessions_mutex_);
    draining.reserve(session_threads_.size());
    for (auto& [id, thread] : session_threads_) {
      draining.push_back(std::move(thread));
    }
    session_threads_.clear();
    finished_sessions_.clear();
  }
  for (std::thread& thread : draining) {
    if (thread.joinable()) thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Router::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    {
      // Reap finished session threads so a long-lived router's thread table
      // stays bounded by the concurrent session count, not the total.
      std::lock_guard lock(sessions_mutex_);
      for (const std::uint64_t id : finished_sessions_) {
        const auto it = session_threads_.find(id);
        if (it != session_threads_.end()) {
          it->second.join();
          session_threads_.erase(it);
        }
      }
      finished_sessions_.clear();
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down (stop) or fatal
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(sessions_mutex_);
    if (session_fds_.size() >= config_.max_sessions) {
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_session_id_++;
    session_fds_.emplace(id, fd);
    sessions_total_.fetch_add(1, std::memory_order_relaxed);
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
    session_threads_.emplace(
        id, std::thread([this, fd, id] { session_loop(fd, id); }));
  }
}

void Router::session_loop(int fd, std::uint64_t session_id) {
  svc::FrameDecoder decoder(config_.max_payload);
  std::vector<std::uint8_t> out;
  svc::Frame frame;
  bool open = true;
  while (open && !stop_requested_.load(std::memory_order_acquire)) {
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.feed({chunk, static_cast<std::size_t>(n)});
    for (;;) {
      const svc::DecodeResult d = decoder.next(frame);
      if (d == svc::DecodeResult::kNeedMore) break;
      if (d != svc::DecodeResult::kFrame) {
        protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
        open = false;
        break;
      }
      const svc::Frame response = dispatch(frame);
      out.clear();
      svc::encode_frame(response, out);
      try {
        send_all_fd(fd, out.data(), out.size());
      } catch (const TransientFault&) {
        open = false;
        break;
      }
    }
  }
  // Unregister BEFORE closing: stop() walks session_fds_ calling shutdown,
  // and once this fd is closed the kernel may hand the same number to a new
  // descriptor — shutdown would then hit an unrelated socket.
  {
    std::lock_guard lock(sessions_mutex_);
    session_fds_.erase(session_id);
  }
  ::close(fd);
  sessions_open_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard lock(sessions_mutex_);
  finished_sessions_.push_back(session_id);
}

svc::Frame Router::dispatch(const svc::Frame& request) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  svc::Frame resp{request.op, svc::Status::kOk, request.request_id, {}};
  try {
    switch (request.op) {
      case svc::Op::kPing:
        break;
      case svc::Op::kGet: {
        std::string key;
        if (!svc::decode_key_body(request.payload, key)) {
          resp.status = svc::Status::kBadRequest;
          break;
        }
        resp.status = route_get(key, resp.payload);
        break;
      }
      case svc::Op::kPut: {
        svc::PutBody body;
        if (!svc::decode_put_body(request.payload, body)) {
          resp.status = svc::Status::kBadRequest;
          break;
        }
        resp.status = route_put(
            body.key, std::span<const std::uint8_t>(body.value.data(),
                                                    body.value.size()));
        break;
      }
      case svc::Op::kDelete: {
        std::string key;
        if (!svc::decode_key_body(request.payload, key)) {
          resp.status = svc::Status::kBadRequest;
          break;
        }
        resp.status = route_delete(key);
        break;
      }
      case svc::Op::kStats: {
        const std::string body = stats_json();
        resp.payload.assign(body.begin(), body.end());
        break;
      }
      case svc::Op::kMetrics: {
        const std::string body = obs::render_prometheus(obs::metrics());
        resp.payload.assign(body.begin(), body.end());
        break;
      }
      case svc::Op::kDigest: {
        const std::string digest = aggregate_digest();
        resp.payload.assign(digest.begin(), digest.end());
        break;
      }
      case svc::Op::kHealth: {
        const std::string body = health_json();
        resp.payload.assign(body.begin(), body.end());
        break;
      }
      default:
        resp.status = svc::Status::kBadRequest;
        break;
    }
  } catch (const TransientFault& fault) {
    resp.status = svc::Status::kRetryLater;
    const std::string what = fault.what();
    resp.payload.assign(what.begin(), what.end());
    retry_later_total_.fetch_add(1, std::memory_order_relaxed);
  } catch (const kv::RetriesExhausted& error) {
    resp.status = svc::Status::kRetryLater;
    const std::string what = error.what();
    resp.payload.assign(what.begin(), what.end());
    retry_later_total_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& error) {
    resp.status = svc::Status::kError;
    const std::string what = error.what();
    resp.payload.assign(what.begin(), what.end());
  }
  return resp;
}

// --- reporting ---------------------------------------------------------------

bool Router::serving() const {
  return running_.load(std::memory_order_acquire) && membership_.settled() &&
         !membership_.live_ids().empty();
}

RouterStats Router::stats() const {
  RouterStats s;
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.puts_total = puts_total_.load(std::memory_order_relaxed);
  s.gets_total = gets_total_.load(std::memory_order_relaxed);
  s.deletes_total = deletes_total_.load(std::memory_order_relaxed);
  s.fanout_rpcs_total = fanout_rpcs_total_.load(std::memory_order_relaxed);
  s.fanout_failures_total =
      fanout_failures_total_.load(std::memory_order_relaxed);
  s.retry_later_total = retry_later_total_.load(std::memory_order_relaxed);
  s.not_found_total = not_found_total_.load(std::memory_order_relaxed);
  s.stale_replicas_skipped_total =
      stale_replicas_skipped_total_.load(std::memory_order_relaxed);
  s.reconstructions_total =
      reconstructions_total_.load(std::memory_order_relaxed);
  s.wear_polls_total = wear_polls_total_.load(std::memory_order_relaxed);
  s.sessions_open = sessions_open_.load(std::memory_order_relaxed);
  s.sessions_total = sessions_total_.load(std::memory_order_relaxed);
  s.protocol_errors_total =
      protocol_errors_total_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::stats_json() const {
  const RouterStats s = stats();
  std::string out = "{\"role\":\"router\",\"mode\":\"";
  out += route_mode_name(config_.mode);
  out += '"';
  const auto field = [&out](const char* key, std::uint64_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  field("nodes", membership_.size());
  field("live", membership_.live_ids().size());
  field("replicas", config_.replicas);
  field("ec_k", config_.ec_k);
  field("ec_m", config_.ec_m);
  field("requests_total", s.requests_total);
  field("puts_total", s.puts_total);
  field("gets_total", s.gets_total);
  field("deletes_total", s.deletes_total);
  field("fanout_rpcs_total", s.fanout_rpcs_total);
  field("fanout_failures_total", s.fanout_failures_total);
  field("retry_later_total", s.retry_later_total);
  field("not_found_total", s.not_found_total);
  field("stale_replicas_skipped_total", s.stale_replicas_skipped_total);
  field("reconstructions_total", s.reconstructions_total);
  field("wear_polls_total", s.wear_polls_total);
  field("sessions_open", s.sessions_open);
  field("sessions_total", s.sessions_total);
  field("protocol_errors_total", s.protocol_errors_total);
  field("membership_transitions_total", membership_.transitions_total());
  field("membership_rejoins_total", membership_.rejoins_total());
  field("next_version", next_version_.load(std::memory_order_relaxed));
  out += ",\"membership\":" + membership_.to_json();
  out += ",\"wear\":[";
  bool first = true;
  for (const NodeWear& wear : wear_view()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(wear.node_id);
    out += ",\"epoch\":" + std::to_string(wear.epoch);
    out += ",\"total_erases\":" + std::to_string(wear.total_erases);
    out += ",\"servers\":" + std::to_string(wear.server_erases.size());
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Router::health_json() const {
  const bool is_serving = serving();
  const std::size_t live = membership_.live_ids().size();
  std::string out = "{\"role\":\"router\",\"state\":\"";
  out += !membership_.settled() ? "starting"
         : live == membership_.size() ? "serving"
                                      : "degraded";
  out += "\",\"serving\":";
  out += is_serving ? "true" : "false";
  out += ",\"settled\":";
  out += membership_.settled() ? "true" : "false";
  out += ",\"live\":" + std::to_string(live);
  out += ",\"nodes\":" + std::to_string(membership_.size());
  out += ",\"uptime_seconds\":";
  const double uptime =
      start_time_.time_since_epoch().count() == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_time_)
                    .count()) /
                1e9;
  out += json_number(uptime);
  out += ",\"membership\":" + membership_.to_json();
  out += '}';
  return out;
}

}  // namespace chameleon::dist
