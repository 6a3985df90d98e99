#include "load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "kv/client.hpp"
#include "svc/wire.hpp"

namespace chameleon::bench {

namespace {

/// One open-loop connection: requests go out whenever they are due, replies
/// are matched by request id as they arrive.
class PipelinedConn {
 public:
  explicit PipelinedConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("open loop: connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~PipelinedConn() { ::close(fd_); }
  PipelinedConn(const PipelinedConn&) = delete;
  PipelinedConn& operator=(const PipelinedConn&) = delete;

  void send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        throw std::runtime_error("open loop: send failed");
      }
    }
  }

  /// Wait up to `timeout` for bytes; false when none arrived.
  bool wait_readable(Nanos timeout) {
    if (timeout < 0) timeout = 0;
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{static_cast<std::time_t>(timeout / kSecond),
                      static_cast<long>(timeout % kSecond)};
    return ::ppoll(&p, 1, &ts, nullptr) > 0;
  }

  /// Drain the socket into `out`. Throws when the peer closed or the
  /// stream is malformed.
  void receive(std::vector<svc::Frame>& out) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed({buf, static_cast<std::size_t>(n)});
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      throw std::runtime_error("open loop: connection closed");
    }
    svc::Frame frame;
    for (;;) {
      const svc::DecodeResult r = decoder_.next(frame);
      if (r == svc::DecodeResult::kNeedMore) break;
      if (r != svc::DecodeResult::kFrame) {
        throw std::runtime_error(std::string("open loop: bad frame: ") +
                                 svc::decode_result_name(r));
      }
      out.push_back(std::move(frame));
    }
  }

 private:
  int fd_ = -1;
  svc::FrameDecoder decoder_;
};

template <typename Fn>
LoadStats run_threads(std::size_t threads, Fn&& body) {
  std::vector<LoadStats> parts(threads);
  std::vector<std::thread> pool;
  std::vector<std::string> errors(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(w, parts[w]);
      } catch (const std::exception& error) {
        errors[w] = error.what();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  LoadStats total;
  for (const LoadStats& part : parts) total.merge(part);
  return total;
}

std::uint32_t value_crc(const std::vector<std::uint8_t>& value) {
  return svc::crc32c({value.data(), value.size()});
}

/// Name the first few failed operations on stderr; the count is reported.
void note_failure(const std::string& what) {
  static std::atomic<int> shown{0};
  if (shown.fetch_add(1, std::memory_order_relaxed) < 10) {
    std::fprintf(stderr, "chameleon_benchmark: operation failed: %s\n",
                 what.c_str());
  }
}

}  // namespace

std::string key_name(std::uint64_t key) { return "key-" + std::to_string(key); }

OpStream::OpStream(const ServeSpec& spec, std::uint64_t seed, unsigned thread)
    : spec_(spec),
      thread_(thread),
      rng_(seed * 0x9E3779B97F4A7C15ULL + thread + 1),
      zipf_(spec.keys, 0.99) {}

std::uint64_t OpStream::draw() {
  return spec_.zipf ? zipf_.next(rng_) : rng_.next_below(spec_.keys);
}

OpStream::Op OpStream::next() {
  Op op;
  op.is_get = rng_.next_bool(spec_.read_ratio);
  op.key = draw();
  if (!op.is_get) {
    // Move the key into this thread's partition.
    op.key = op.key - op.key % kClientThreads + thread_;
    if (op.key >= spec_.keys) op.key -= kClientThreads;
  }
  return op;
}

std::vector<std::uint64_t> OpStream::partition() const {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = thread_; k < spec_.keys; k += kClientThreads) {
    keys.push_back(k);
  }
  return keys;
}

WriteLog::WriteLog(std::size_t value_bytes, std::uint64_t seed)
    : value_bytes_(value_bytes), seed_(seed) {}

WriteLog::Write WriteLog::next_write(const std::string& key) {
  const std::uint64_t tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
  Write w;
  w.value.resize(value_bytes_);
  std::uint64_t state = seed_ ^ (tag * 0xD1B54A32D192ED03ULL);
  for (std::size_t i = 0; i < value_bytes_; i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(w.value.data() + i, &word,
                std::min<std::size_t>(8, value_bytes_ - i));
  }
  std::memcpy(w.value.data(), &tag, std::min<std::size_t>(8, value_bytes_));
  w.seq = ledger_.issued(key, value_crc(w.value));
  return w;
}

void LoadStats::merge(const LoadStats& other) {
  get_ns.insert(get_ns.end(), other.get_ns.begin(), other.get_ns.end());
  put_ns.insert(put_ns.end(), other.put_ns.begin(), other.put_ns.end());
  lag_ns.insert(lag_ns.end(), other.lag_ns.begin(), other.lag_ns.end());
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  if (slice_ops.size() < other.slice_ops.size()) {
    slice_ops.resize(other.slice_ops.size());
  }
  for (std::size_t i = 0; i < other.slice_ops.size(); ++i) {
    slice_ops[i] += other.slice_ops[i];
  }
  attempted += other.attempted;
  ok += other.ok;
  failed += other.failed;
}

svc::ClientConfig client_config(std::uint16_t port) {
  svc::ClientConfig config;
  config.port = port;
  config.deadline_ms = kDeadlineMs;
  return config;
}

LoadStats preload(svc::ClientPool& pool, std::vector<OpStream>& streams,
                  WriteLog& log) {
  return run_threads(streams.size(), [&](std::size_t w, LoadStats& out) {
    for (const std::uint64_t k : streams[w].partition()) {
      const std::string key = key_name(k);
      const WriteLog::Write write = log.next_write(key);
      ++out.attempted;
      try {
        const svc::Status s = pool.put(key, write.value);
        if (s == svc::Status::kOk) {
          log.acked(key, write.seq);
          ++out.ok;
          continue;
        }
        note_failure("preload PUT " + key + ": " + svc::status_name(s));
      } catch (const std::exception& error) {
        note_failure("preload " + key + ": " + error.what());
      }
      ++out.failed;
    }
  });
}

LoadStats closed_loop(svc::ClientPool& pool, std::vector<OpStream>& streams,
                      WriteLog& log, double seconds) {
  const Nanos start = now_ns();
  const Nanos end = start + static_cast<Nanos>(seconds * 1e9);
  const std::size_t slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kSliceSeconds));
  const double slice_s = seconds / static_cast<double>(slices);
  const auto slice_ns = static_cast<Nanos>(slice_s * 1e9);
  LoadStats total = run_threads(streams.size(), [&](std::size_t w,
                                                    LoadStats& out) {
    out.slice_ops.assign(slices, 0.0);
    const auto count = [&](Nanos done) {
      const auto slice = static_cast<std::size_t>((done - start) / slice_ns);
      if (slice < slices) out.slice_ops[slice] += 1.0;
      ++out.ok;
    };
    std::vector<std::uint8_t> got;
    while (now_ns() < end) {
      const OpStream::Op op = streams[w].next();
      const std::string key = key_name(op.key);
      ++out.attempted;
      try {
        if (op.is_get) {
          const Nanos t0 = now_ns();
          const svc::Status s = pool.get(key, got);
          const Nanos t1 = now_ns();
          if (s == svc::Status::kOk) {
            out.get_ns.push_back(static_cast<double>(t1 - t0));
            count(t1);
            continue;
          }
          note_failure("GET " + key + ": " + svc::status_name(s));
        } else {
          const WriteLog::Write write = log.next_write(key);
          const Nanos t0 = now_ns();
          const svc::Status s = pool.put(key, write.value);
          const Nanos t1 = now_ns();
          if (s == svc::Status::kOk) {
            log.acked(key, write.seq);
            out.put_ns.push_back(static_cast<double>(t1 - t0));
            count(t1);
            continue;
          }
          note_failure("PUT " + key + ": " + svc::status_name(s));
        }
      } catch (const std::exception& error) {
        note_failure(key + ": " + error.what());
      }
      ++out.failed;
    }
  });
  total.slice_s = slice_s;
  return total;
}

LoadStats open_loop(std::uint16_t port, std::vector<OpStream>& streams,
                    WriteLog& log, double rate, double seconds) {
  const std::size_t threads = streams.size();
  const auto per_thread =
      static_cast<std::uint64_t>(rate * seconds / static_cast<double>(threads));
  const double interval_ns = 1e9 * static_cast<double>(threads) / rate;
  // Connect first so connection setup is not charged to the first requests.
  std::vector<std::unique_ptr<PipelinedConn>> conns;
  for (std::size_t w = 0; w < threads; ++w) {
    conns.push_back(std::make_unique<PipelinedConn>(port));
  }
  const Nanos start = now_ns() + 10 * kMillisecond;
  return run_threads(threads, [&](std::size_t w, LoadStats& out) {
    // Sleep to the nanosecond: the default 50us timer slack would show up
    // as generator lag.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    PipelinedConn& conn = *conns[w];
    struct Request {
      std::uint64_t id;
      Nanos due;
      bool is_get;
      std::string key;
      std::uint64_t seq;
      std::vector<std::uint8_t> wire;
      std::size_t attempts;
      Nanos not_before;
    };
    // Requests past their due time wait in `queued` while the connection
    // already has kOpenLoopWindow requests in flight: the server sheds a
    // session that exceeds its credits, so a well-behaved client queues.
    // A shed request (kRetryLater) is retried on svc::ClientPool's budget
    // after its backoff. Either wait counts in the latency, which runs from
    // the due time.
    const kv::RetryPolicy policy;
    std::deque<Request> queued;
    std::vector<Request> backing_off;
    std::unordered_map<std::uint64_t, Request> pending;
    std::vector<svc::Frame> replies;
    std::uint64_t generated = 0;
    Nanos drain_deadline = 0;
    const double offset_ns = static_cast<double>(w) * 1e9 / rate;
    const auto due_of = [&](std::uint64_t i) {
      return start + static_cast<Nanos>(offset_ns + static_cast<double>(i) *
                                                        interval_ns);
    };
    for (;;) {
      Nanos now = now_ns();
      while (generated < per_thread && due_of(generated) <= now) {
        const OpStream::Op op = streams[w].next();
        Request r{generated + 1, due_of(generated), op.is_get,
                  key_name(op.key), 0, {}, 1, 0};
        svc::Frame frame;
        frame.op = op.is_get ? svc::Op::kGet : svc::Op::kPut;
        frame.request_id = r.id;
        frame.deadline_ms = kDeadlineMs;
        if (op.is_get) {
          svc::encode_key_body(r.key, frame.payload);
        } else {
          const WriteLog::Write write = log.next_write(r.key);
          r.seq = write.seq;
          svc::encode_put_body(r.key, write.value, frame.payload);
        }
        svc::encode_frame(frame, r.wire);
        out.lag_ns.push_back(static_cast<double>(now - r.due));
        queued.push_back(std::move(r));
        ++out.attempted;
        ++generated;
      }
      Nanos next_retry = std::numeric_limits<Nanos>::max();
      for (auto it = backing_off.begin(); it != backing_off.end();) {
        if (it->not_before <= now) {
          queued.push_front(std::move(*it));
          it = backing_off.erase(it);
        } else {
          next_retry = std::min(next_retry, it->not_before);
          ++it;
        }
      }
      while (!queued.empty() && pending.size() < kOpenLoopWindow) {
        Request& r = queued.front();
        conn.send_all(r.wire);
        const std::uint64_t id = r.id;
        pending.emplace(id, std::move(r));
        queued.pop_front();
      }
      now = now_ns();
      Nanos wake = next_retry;
      if (generated < per_thread) {
        wake = std::min(wake, due_of(generated));
      } else {
        if (queued.empty() && pending.empty() && backing_off.empty()) break;
        if (drain_deadline == 0) drain_deadline = now + 10 * kSecond;
        if (now >= drain_deadline) break;
        wake = std::min(wake, drain_deadline);
      }
      if (!conn.wait_readable(wake - now)) continue;
      replies.clear();
      conn.receive(replies);
      const Nanos done = now_ns();
      for (const svc::Frame& reply : replies) {
        const auto it = pending.find(reply.request_id);
        if (it == pending.end()) {
          throw std::runtime_error("open loop: reply to unknown request");
        }
        Request& r = it->second;
        const bool retryable = reply.status == svc::Status::kRetryLater ||
                               reply.status == svc::Status::kShuttingDown;
        if (reply.status == svc::Status::kOk) {
          const auto latency = static_cast<double>(done - r.due);
          (r.is_get ? out.get_ns : out.put_ns).push_back(latency);
          out.samples.push_back(
              {static_cast<double>(r.due - start), latency, r.is_get});
          if (!r.is_get) log.acked(r.key, r.seq);
          ++out.ok;
        } else if (retryable && r.attempts < policy.max_attempts) {
          r.not_before =
              done + static_cast<Nanos>(
                         static_cast<double>(policy.base_backoff) *
                         std::pow(policy.backoff_multiplier,
                                  static_cast<double>(r.attempts - 1)));
          ++r.attempts;
          backing_off.push_back(std::move(r));
        } else {
          note_failure(r.key + ": " + svc::status_name(reply.status));
          ++out.failed;
        }
        pending.erase(it);
      }
    }
    const std::size_t unanswered =
        queued.size() + pending.size() + backing_off.size();
    if (unanswered > 0) {
      note_failure(std::to_string(unanswered) +
                   " open-loop requests unanswered");
    }
    out.failed += unanswered;
  });
}

ReadbackResult readback(svc::ClientPool& pool, const WriteLog& log) {
  const std::vector<std::string> keys = log.ledger().acked_keys();
  std::vector<ReadbackResult> parts(kClientThreads);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kClientThreads; ++w) {
    threads.emplace_back([&, w] {
      ReadbackResult& r = parts[w];
      std::vector<std::uint8_t> got;
      for (std::size_t i = w; i < keys.size(); i += kClientThreads) {
        ++r.keys;
        bool found = false;
        try {
          const svc::Status s = pool.get(keys[i], got);
          if (s != svc::Status::kOk && s != svc::Status::kNotFound) {
            ++r.failed;
            continue;
          }
          found = s == svc::Status::kOk;
        } catch (const std::exception&) {
          ++r.failed;
          continue;
        }
        const auto verdict =
            log.ledger().check(keys[i], found, found ? value_crc(got) : 0);
        if (verdict.verdict != svc::AckLedger::Verdict::kOk) {
          ++r.violations;
          std::fprintf(stderr, "chameleon_benchmark: key %s: %s\n",
                       keys[i].c_str(), verdict.detail.c_str());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ReadbackResult total;
  for (const ReadbackResult& r : parts) {
    total.keys += r.keys;
    total.failed += r.failed;
    total.violations += r.violations;
  }
  return total;
}

}  // namespace chameleon::bench
