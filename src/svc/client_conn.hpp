// Client side of the svc wire protocol: a blocking request/response
// connection (ClientConn) and a thread-safe connection pool (ClientPool)
// that layers kv::RetryPolicy semantics on top — jittered exponential
// backoff, transparent reconnect on broken connections, and retry of
// kRetryLater/kShuttingDown responses until the attempt budget runs out
// (then kv::RetriesExhausted, matching the in-process client's contract).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "kv/client.hpp"
#include "svc/wire.hpp"

namespace chameleon::svc {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Backoff/attempt budget, reusing the in-process client's policy type.
  /// op_timeout (when nonzero) becomes the per-call socket send/recv timeout.
  kv::RetryPolicy retry;
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Socket recv/send timeout when retry.op_timeout == 0 (0 = no timeout).
  Nanos default_io_timeout = 10 * kSecond;
  /// Deadline budget stamped into every request frame, in milliseconds
  /// (wire header field; 0 = no deadline). The server sheds requests whose
  /// budget lapsed — on arrival and again at worker dequeue — answering
  /// kDeadlineExceeded, which the pool treats as terminal (no retry).
  std::uint32_t deadline_ms = 0;
};

/// One blocking connection. Not thread-safe; one outstanding request at a
/// time. A connection that sees an IO error or a response that does not
/// match the outstanding request id closes itself and throws.
class ClientConn {
 public:
  explicit ClientConn(const ClientConfig& config);
  ~ClientConn();
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  /// Connect (blocking). Throws TransientFault when the server is
  /// unreachable, std::runtime_error on configuration errors.
  void connect();
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Send one request and block for its response. Throws TransientFault on
  /// connection loss/timeouts (the connection is closed), std::runtime_error
  /// on protocol violations (mismatched id, malformed frame).
  Frame call(Op op, std::vector<std::uint8_t> payload);

  /// Same, but with a caller-chosen request id and explicit deadline. The
  /// pool uses this for failover: a logical operation keeps ONE id across
  /// reconnect-and-replay attempts, so a replayed idempotent write is
  /// recognizably the same operation in traces and server logs.
  Frame call(Op op, std::vector<std::uint8_t> payload,
             std::uint64_t request_id, std::uint32_t deadline_ms);

  std::uint64_t calls() const { return calls_; }

 private:
  ClientConfig config_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t calls_ = 0;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> scratch_;

  void send_all(const std::uint8_t* data, std::size_t len);
  Frame recv_frame();
};

/// Thread-safe pool of ClientConns with retry/reconnect. acquire() hands out
/// idle connections, creating up to `size` of them on demand; callers past
/// the cap block until a connection is released. One pool addresses one
/// server; a multi-node cluster is addressed through chameleon_router
/// (docs/DISTRIBUTED.md).
class ClientPool {
 public:
  ClientPool(const ClientConfig& config, std::size_t size = 4);

  /// Store `value` under `key`. Returns the terminal status (kOk, or an
  /// error status the server reported). Retries kRetryLater/kShuttingDown
  /// and broken connections per the policy; throws kv::RetriesExhausted when
  /// the budget runs out.
  Status put(std::string_view key, std::span<const std::uint8_t> value);
  Status put(std::string_view key, std::string_view value);

  /// Fetch `key` into `value_out`. kNotFound is terminal (no retry).
  Status get(std::string_view key, std::vector<std::uint8_t>& value_out);

  Status remove(std::string_view key);

  void ping();
  std::string stats_json();
  std::string metrics_text();
  /// Cluster state fingerprint as 16 lowercase hex chars (Op::kDigest).
  std::string digest();

  /// Readiness JSON from the HEALTH op (answered inline in every serving
  /// state, including mid-recovery). One attempt, no retry loop.
  std::string health_json();

  /// Block until the server reports `"serving":true` or the timeout lapses.
  /// Polls HEALTH (reconnecting as needed) every `poll_interval`; survives
  /// the connection-refused window while a killed server restarts. Returns
  /// true once serving. This is how harnesses wait out recovery instead of
  /// sleeping a guessed duration.
  bool wait_serving(Nanos timeout, Nanos poll_interval = 20 * kMillisecond);

  /// Raw retried call: returns the first non-retryable response.
  Frame call(Op op, std::vector<std::uint8_t> payload);

  std::uint64_t retries_total() const;
  std::uint64_t reconnects_total() const;
  std::uint64_t deadline_exceeded_total() const;
  const ClientConfig& config() const { return config_; }

 private:
  struct Lease;
  std::unique_ptr<ClientConn> acquire();
  void release(std::unique_ptr<ClientConn> conn);
  Nanos backoff_for(std::size_t attempt);

  ClientConfig config_;
  std::size_t size_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<std::unique_ptr<ClientConn>> idle_;
  std::size_t outstanding_ = 0;  ///< connections currently leased
  std::size_t created_ = 0;
  Xoshiro256 jitter_rng_;
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  /// Pool-level id source: a logical operation draws one id here and keeps
  /// it across every retry/reconnect/replay attempt (idempotent failover).
  std::atomic<std::uint64_t> next_request_id_{1};
};

}  // namespace chameleon::svc
