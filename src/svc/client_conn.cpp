#include "svc/client_conn.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/faults.hpp"

namespace chameleon::svc {

namespace {

void set_io_timeout(int fd, Nanos timeout) {
  if (timeout <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout / kSecond);
  tv.tv_usec = static_cast<suseconds_t>((timeout % kSecond) / 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool retryable_status(Status s) {
  return s == Status::kRetryLater || s == Status::kShuttingDown;
}

}  // namespace

// --- ClientConn --------------------------------------------------------------

ClientConn::ClientConn(const ClientConfig& config)
    : config_(config), decoder_(config.max_payload) {}

ClientConn::~ClientConn() { close(); }

void ClientConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ClientConn::connect() {
  close();
  decoder_ = FrameDecoder(config_.max_payload);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("svc client: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("svc client: cannot parse host '" + config_.host +
                             "' (numeric IPv4 expected)");
  }
  const Nanos timeout = config_.retry.op_timeout > 0
                            ? config_.retry.op_timeout
                            : config_.default_io_timeout;
  set_io_timeout(fd, timeout);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw TransientFault(std::string("svc client: connect ") + host + ":" +
                         std::to_string(config_.port) + ": " +
                         std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
}

void ClientConn::send_all(const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    close();
    throw TransientFault(std::string("svc client: send: ") +
                         std::strerror(err));
  }
}

Frame ClientConn::recv_frame() {
  Frame frame;
  for (;;) {
    const DecodeResult d = decoder_.next(frame);
    if (d == DecodeResult::kFrame) return frame;
    if (d != DecodeResult::kNeedMore) {
      close();
      throw std::runtime_error(
          std::string("svc client: malformed response frame: ") +
          decode_result_name(d));
    }
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      decoder_.feed({chunk, static_cast<std::size_t>(n)});
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = n == 0 ? 0 : errno;
    close();
    if (n == 0) {
      throw TransientFault("svc client: connection closed by server");
    }
    if (err == EAGAIN || err == EWOULDBLOCK) {
      throw TransientFault("svc client: receive timeout");
    }
    throw TransientFault(std::string("svc client: recv: ") +
                         std::strerror(err));
  }
}

Frame ClientConn::call(Op op, std::vector<std::uint8_t> payload) {
  return call(op, std::move(payload), next_request_id_++, config_.deadline_ms);
}

Frame ClientConn::call(Op op, std::vector<std::uint8_t> payload,
                       std::uint64_t request_id, std::uint32_t deadline_ms) {
  if (!connected()) connect();
  Frame request{op, Status::kOk, request_id, std::move(payload)};
  request.deadline_ms = deadline_ms;
  scratch_.clear();
  encode_frame(request, scratch_);
  send_all(scratch_.data(), scratch_.size());
  Frame response = recv_frame();
  if (response.request_id != request.request_id || response.op != op) {
    close();
    throw std::runtime_error("svc client: response does not match request");
  }
  ++calls_;
  return response;
}

// --- ClientPool --------------------------------------------------------------

ClientPool::ClientPool(const ClientConfig& config, std::size_t size)
    : config_(config),
      size_(std::max<std::size_t>(1, size)),
      jitter_rng_(config.retry.seed) {}

std::unique_ptr<ClientConn> ClientPool::acquire() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (!idle_.empty()) {
      auto conn = std::move(idle_.front());
      idle_.pop_front();
      ++outstanding_;
      return conn;
    }
    if (created_ < size_) {
      ++created_;
      ++outstanding_;
      return std::make_unique<ClientConn>(config_);
    }
    available_.wait(lock);
  }
}

void ClientPool::release(std::unique_ptr<ClientConn> conn) {
  {
    std::lock_guard lock(mutex_);
    --outstanding_;
    // Broken connections are still pooled: the next call() reconnects.
    idle_.push_back(std::move(conn));
  }
  available_.notify_one();
}

Nanos ClientPool::backoff_for(std::size_t attempt) {
  // Mirrors kv::Client::backoff_for: base * multiplier^(attempt-2), +/-
  // jitter, drawn from the pool's deterministic RNG.
  const auto& p = config_.retry;
  double wait = static_cast<double>(p.base_backoff);
  for (std::size_t i = 2; i < attempt; ++i) wait *= p.backoff_multiplier;
  double jitter = 0.0;
  {
    std::lock_guard lock(mutex_);
    jitter = (jitter_rng_.next_double() * 2.0 - 1.0) * p.jitter;
  }
  wait *= 1.0 + jitter;
  if (wait < 0.0) wait = 0.0;
  return static_cast<Nanos>(std::llround(wait));
}

Frame ClientPool::call(Op op, std::vector<std::uint8_t> payload) {
  const std::size_t max_attempts = std::max<std::size_t>(1, config_.retry.max_attempts);
  // One id for the whole logical operation: every reconnect-and-replay
  // attempt re-sends the SAME request id, so the server (and anyone reading
  // traces) sees an idempotent replay, not a new operation.
  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const auto started = std::chrono::steady_clock::now();
  std::string last_error;
  std::size_t attempt = 1;
  for (; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      {
        std::lock_guard lock(mutex_);
        ++retries_;
      }
      const Nanos wait = backoff_for(attempt);
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      // The whole-operation budget bounds how long failover/replay may
      // stall this caller; the lapsed check sits after the backoff so a
      // sleep cannot push us past the deadline unnoticed.
      if (config_.retry.total_deadline > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::nanoseconds(config_.retry.total_deadline)) {
        last_error += " (total deadline exhausted)";
        break;
      }
    }
    auto conn = acquire();
    try {
      const bool fresh = !conn->connected();
      if (fresh) {
        conn->connect();
        std::lock_guard lock(mutex_);
        ++reconnects_;
      }
      Frame response =
          conn->call(op, payload, request_id, config_.deadline_ms);  // copy
      release(std::move(conn));
      if (retryable_status(response.status)) {
        last_error = status_name(response.status);
        continue;
      }
      if (response.status == Status::kDeadlineExceeded) {
        // Terminal by design: the server shed it because the budget this
        // client granted lapsed; retrying would blow the budget further.
        std::lock_guard lock(mutex_);
        ++deadline_exceeded_;
      }
      return response;
    } catch (const TransientFault& fault) {
      last_error = fault.what();
      release(std::move(conn));
      continue;
    } catch (...) {
      release(std::move(conn));
      throw;
    }
  }
  throw kv::RetriesExhausted(op_name(op), attempt - 1, last_error);
}

Status ClientPool::put(std::string_view key,
                       std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> body;
  encode_put_body(key, value, body);
  const Frame response = call(Op::kPut, std::move(body));
  return response.status;
}

Status ClientPool::put(std::string_view key, std::string_view value) {
  return put(key,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(value.data()),
                 value.size()));
}

Status ClientPool::get(std::string_view key,
                       std::vector<std::uint8_t>& value_out) {
  std::vector<std::uint8_t> body;
  encode_key_body(key, body);
  Frame response = call(Op::kGet, std::move(body));
  if (response.status == Status::kOk) value_out = std::move(response.payload);
  return response.status;
}

Status ClientPool::remove(std::string_view key) {
  std::vector<std::uint8_t> body;
  encode_key_body(key, body);
  return call(Op::kDelete, std::move(body)).status;
}

void ClientPool::ping() { call(Op::kPing, {}); }

std::string ClientPool::stats_json() {
  const Frame response = call(Op::kStats, {});
  return std::string(response.payload.begin(), response.payload.end());
}

std::string ClientPool::metrics_text() {
  const Frame response = call(Op::kMetrics, {});
  return std::string(response.payload.begin(), response.payload.end());
}

std::string ClientPool::digest() {
  const Frame response = call(Op::kDigest, {});
  return std::string(response.payload.begin(), response.payload.end());
}

std::string ClientPool::health_json() {
  // Single attempt, no retry loop: a health probe must report the server's
  // state *now*, and its caller (wait_serving, the chaos harness) owns the
  // polling cadence.
  auto conn = acquire();
  try {
    Frame response = conn->call(
        Op::kHealth, {}, next_request_id_.fetch_add(1, std::memory_order_relaxed),
        0);
    release(std::move(conn));
    return std::string(response.payload.begin(), response.payload.end());
  } catch (...) {
    release(std::move(conn));
    throw;
  }
}

bool ClientPool::wait_serving(Nanos timeout, Nanos poll_interval) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(timeout);
  for (;;) {
    try {
      const std::string health = health_json();
      if (health.find("\"serving\":true") != std::string::npos) return true;
    } catch (const TransientFault&) {
      // Connection refused / reset: the server is mid-restart. Keep polling.
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<Nanos>(poll_interval, kMillisecond)));
  }
}

std::uint64_t ClientPool::retries_total() const {
  std::lock_guard lock(mutex_);
  return retries_;
}

std::uint64_t ClientPool::reconnects_total() const {
  std::lock_guard lock(mutex_);
  return reconnects_;
}

std::uint64_t ClientPool::deadline_exceeded_total() const {
  std::lock_guard lock(mutex_);
  return deadline_exceeded_;
}

}  // namespace chameleon::svc
