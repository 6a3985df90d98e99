#include "svc/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/faults.hpp"
#include "common/json.hpp"
#include "durability/group_commit.hpp"
#include "fault/digest.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace chameleon::svc {

namespace {

/// Output buffered per session is capped: a peer that floods pipelined
/// requests without reading responses (each response can be far larger than
/// the request, e.g. METRICS or GET of a large value) is disconnected
/// instead of ballooning server memory. Enforced both on the inline
/// control-response path and on the completion path.
constexpr std::size_t kMaxSessionOutBytes = 32u << 20;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("svc: ") + what + ": " +
                           std::strerror(errno));
}

Nanos elapsed_ns(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

bool is_data_op(Op op) {
  // Peer store ops (kReplicate/kStripeWrite) and the wear snapshot ride the
  // same admission/deadline/store-pipeline path as client data ops;
  // kPeerHealth is answered inline like kHealth.
  return op == Op::kGet || op == Op::kPut || op == Op::kDelete ||
         op == Op::kDigest || op == Op::kReplicate || op == Op::kStripeWrite ||
         op == Op::kWearReport;
}

}  // namespace

const char* serving_state_name(ServingState s) {
  switch (s) {
    case ServingState::kRecovering: return "recovering";
    case ServingState::kServing: return "serving";
    case ServingState::kDraining: return "draining";
  }
  return "unknown";
}

Server::Server(core::Chameleon& system, const ServerConfig& config)
    : system_(system),
      config_(config),
      pipeline_(system, StorePipelineOptions{config.workers,
                                             config.drain_batch}),
      admission_(config.admission) {
  for (auto& fd : wake_fds_) fd.store(-1, std::memory_order_relaxed);
  if (obs::enabled()) {
    auto& reg = obs::metrics();
    for (std::size_t i = 0; i < static_cast<std::size_t>(Op::kCount); ++i) {
      const char* op = op_name(static_cast<Op>(i));
      metric_.requests[i] =
          &reg.counter("chameleon_svc_requests_total", {{"op", op}},
                       "Service requests received, by op");
      // Bin counts bound the exposition, which renders every bucket of every
      // {op} x {stage} series: at 1000 bins the METRICS payload outgrew the
      // client's 4 MiB frame cap once the peer data ops (replicate /
      // stripe_write / wear_report) joined the grid. Consumers of these
      // histograms read sum/count (bench attribution) or coarse quantiles
      // (Prometheus), so 100-200 linear bins lose nothing that was usable.
      metric_.latency[i] = &reg.histogram(
          "chameleon_svc_request_latency_ns", 0.0, 1e8, 200, {{"op", op}},
          "Admission-to-response latency of served requests");
      if (!is_data_op(static_cast<Op>(i))) continue;
      for (std::size_t s = 0;
           s < static_cast<std::size_t>(obs::SvcStage::kCount); ++s) {
        metric_.stage[i][s] = &reg.histogram(
            "chameleon_svc_stage_seconds", 0.0, 0.1, 100,
            {{"op", op},
             {"stage", obs::svc_stage_name(static_cast<obs::SvcStage>(s))}},
            "Per-pipeline-stage time of served data requests "
            "(decode/admission/queue/store_exec/wal_fsync/completion/flush; "
            "the stages partition the request's server-side wall time)");
      }
    }
    metric_.shed_session =
        &reg.counter("chameleon_svc_shed_total", {{"scope", "session"}},
                     "Requests shed by admission control, by scope");
    metric_.shed_global =
        &reg.counter("chameleon_svc_shed_total", {{"scope", "global"}},
                     "Requests shed by admission control, by scope");
    metric_.shed_deadline =
        &reg.counter("chameleon_svc_shed_total", {{"scope", "deadline"}},
                     "Requests shed by admission control, by scope");
    metric_.deadline_exceeded =
        &reg.counter("chameleon_svc_deadline_exceeded_total", {},
                     "Requests answered kDeadlineExceeded (shed on arrival "
                     "or past-deadline at store dequeue)");
    metric_.bytes_read = &reg.counter("chameleon_svc_bytes_read_total", {},
                                      "Bytes read from service sockets");
    metric_.bytes_written =
        &reg.counter("chameleon_svc_bytes_written_total", {},
                     "Bytes written to service sockets");
    metric_.sessions_opened =
        &reg.counter("chameleon_svc_sessions_opened_total", {},
                     "Connections accepted by the service");
    metric_.sessions_closed =
        &reg.counter("chameleon_svc_sessions_closed_total", {},
                     "Connections closed by the service");
    metric_.protocol_errors =
        &reg.counter("chameleon_svc_protocol_errors_total", {},
                     "Connections torn down on malformed frames");
    metric_.durable_gated =
        &reg.counter("chameleon_svc_durable_gated_total", {},
                     "Mutation acks held for a WAL group-commit fsync");
    metric_.inflight = &reg.gauge("chameleon_svc_inflight", {},
                                  "Admitted requests currently in flight");
    metric_.resolved = true;
  }
}

Server::~Server() {
  request_stop();
  wait();
}

void Server::open_reactor_sockets() {
  const bool reuse_port = reactors_.size() > 1;
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  std::uint16_t bound_port = config_.port;
  for (auto& rp : reactors_) {
    Reactor& r = *rp;
    r.listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (r.listen_fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(r.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuse_port) {
      // One accept socket per reactor on the same port: the kernel hashes
      // incoming connections across them, so accepts never funnel through
      // a single thread.
      if (::setsockopt(r.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                       sizeof(one)) < 0) {
        throw_errno("setsockopt(SO_REUSEPORT)");
      }
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(bound_port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("svc: cannot parse listen host '" +
                               config_.host + "' (numeric IPv4 expected)");
    }
    if (::bind(r.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      throw_errno("bind");
    }
    if (::listen(r.listen_fd, 128) < 0) throw_errno("listen");
    if (bound_port == 0) {
      // Ephemeral request: the first bind picks the port; every later
      // reactor binds the same number.
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(r.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &bound_len) < 0) {
        throw_errno("getsockname");
      }
      bound_port = ntohs(bound.sin_port);
    }

    r.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r.epoll_fd < 0) throw_errno("epoll_create1");
    r.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (r.wake_fd < 0) throw_errno("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r.listen_fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, r.listen_fd, &ev) < 0) {
      throw_errno("epoll_ctl(listen)");
    }
    ev.data.fd = r.wake_fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, r.wake_fd, &ev) < 0) {
      throw_errno("epoll_ctl(wake)");
    }
  }
  port_ = bound_port;
}

void Server::start() {
  if (running()) throw std::runtime_error("svc: server already running");

  const std::size_t nreactors = std::clamp<std::size_t>(
      config_.reactors == 0 ? 1 : config_.reactors, 1, kMaxReactors);
  reactors_.clear();
  for (std::size_t i = 0; i < nreactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->next_session_id = i + 1;
    r->fault_rng = Xoshiro256(config_.faults.seed + i);
    reactors_.push_back(std::move(r));
  }
  try {
    open_reactor_sockets();
  } catch (...) {
    for (auto& rp : reactors_) {
      if (rp->listen_fd >= 0) ::close(rp->listen_fd);
      if (rp->epoll_fd >= 0) ::close(rp->epoll_fd);
      if (rp->wake_fd >= 0) ::close(rp->wake_fd);
    }
    reactors_.clear();
    throw;
  }

  pipeline_.start();

  stop_requested_.store(false, std::memory_order_release);
  drained_clean_.store(false, std::memory_order_relaxed);
  state_.store(static_cast<std::uint8_t>(config_.start_recovering
                                             ? ServingState::kRecovering
                                             : ServingState::kServing),
               std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < nreactors; ++i) {
    wake_fds_[i].store(reactors_[i]->wake_fd, std::memory_order_release);
  }
  reactor_count_.store(nreactors, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& rp : reactors_) {
    Reactor* r = rp.get();
    r->thread = std::thread([this, r] { io_loop(*r); });
  }
}

void Server::request_stop() noexcept {
  // Async-signal-safe: one atomic store plus bounded write(2) calls against
  // a fixed array of fds (never a container wait() could be mutating).
  stop_requested_.store(true, std::memory_order_release);
  const std::size_t n = reactor_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n && i < kMaxReactors; ++i) {
    const int fd = wake_fds_[i].load(std::memory_order_acquire);
    if (fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t w = ::write(fd, &one, sizeof(one));
    }
  }
}

void Server::wait() {
  std::lock_guard lock(lifecycle_mutex_);
  // Everything below only matters for the teardown that actually had
  // serving state; a second wait() (e.g. the destructor after an explicit
  // stop()) must not re-touch the group-commit pointer, whose target may be
  // gone by then.
  const bool had_reactors = !reactors_.empty();
  for (auto& rp : reactors_) {
    if (rp->thread.joinable()) rp->thread.join();
  }
  // Stop the store pipeline next: queued jobs still execute (stop() drains
  // the queue) and may post completions or register group-commit waiters,
  // so the reactor structures they post into must still exist.
  pipeline_.stop();
  // Group-commit barrier: once wait_durable(appended_seq()) returns, every
  // ack continuation registered by the serving path has already fired
  // (committer fires callbacks before advancing durable_seq_), so nothing
  // references the reactors beyond this point.
  if (had_reactors) {
    if (auto* gc = group_commit_.load(std::memory_order_acquire)) {
      gc->wait_durable(gc->appended_seq());
    }
  }
  bool all_clean = !reactors_.empty();
  reactor_count_.store(0, std::memory_order_release);
  for (auto& rp : reactors_) {
    Reactor& r = *rp;
    all_clean = all_clean && r.drained_clean;
    {
      // Dropped completions may hold the last ref to a session whose
      // destructor recycles chunks into r.buffers — clear before the
      // reactor itself goes away.
      std::lock_guard clock(r.completion_mutex);
      r.completions.clear();
    }
    wake_fds_[r.index].store(-1, std::memory_order_release);
    if (r.epoll_fd >= 0) {
      ::close(r.epoll_fd);
      r.epoll_fd = -1;
    }
    if (r.wake_fd >= 0) {
      ::close(r.wake_fd);
      r.wake_fd = -1;
    }
  }
  if (!reactors_.empty()) {
    drained_clean_.store(all_clean, std::memory_order_relaxed);
  }
  reactors_.clear();
}

void Server::stop() {
  request_stop();
  wait();
}

void Server::set_serving() {
  std::uint8_t expected =
      static_cast<std::uint8_t>(ServingState::kRecovering);
  state_.compare_exchange_strong(
      expected, static_cast<std::uint8_t>(ServingState::kServing),
      std::memory_order_acq_rel);
}

void Server::set_recovery_info(const RecoveryInfo& info) {
  std::lock_guard lock(recovery_mutex_);
  recovery_ = info;
}

RecoveryInfo Server::recovery_info() const {
  std::lock_guard lock(recovery_mutex_);
  return recovery_;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted_total = accepted_total_.load(std::memory_order_relaxed);
  s.sessions_open = sessions_open_.load(std::memory_order_relaxed);
  s.sessions_closed_total =
      sessions_closed_total_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.responses_total = responses_total_.load(std::memory_order_relaxed);
  s.shed_total = admission_.shed_total();
  s.protocol_errors_total =
      protocol_errors_total_.load(std::memory_order_relaxed);
  s.faults_injected_total =
      faults_injected_total_.load(std::memory_order_relaxed);
  s.bytes_read_total = bytes_read_total_.load(std::memory_order_relaxed);
  s.bytes_written_total = bytes_written_total_.load(std::memory_order_relaxed);
  s.inflight = admission_.inflight();
  s.slow_requests_total = slow_requests_total_.load(std::memory_order_relaxed);
  s.deadline_exceeded_total =
      deadline_exceeded_total_.load(std::memory_order_relaxed);
  s.durable_gated_total =
      durable_gated_total_.load(std::memory_order_relaxed);
  s.pipeline_jobs_total = pipeline_.jobs_executed();
  s.pipeline_drains_total = pipeline_.drains();
  s.pipeline_bypass_windows_total = pipeline_.bypass_windows();
  s.state = state();
  s.trace_dropped = obs::trace().dropped();
  s.uptime_seconds =
      start_time_.time_since_epoch().count() == 0
          ? 0.0
          : static_cast<double>(
                elapsed_ns(start_time_, std::chrono::steady_clock::now())) /
                1e9;
  s.drained_clean = drained_clean_.load(std::memory_order_relaxed);
  return s;
}

void Server::io_loop(Reactor& r) {
  std::array<epoll_event, 64> events;
  for (;;) {
    const int n = ::epoll_wait(r.epoll_fd, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == r.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rd =
            ::read(r.wake_fd, &drained, sizeof(drained));
        continue;
      }
      if (fd == r.listen_fd) {
        accept_ready(r);
        continue;
      }
      const auto it = r.sessions.find(fd);
      if (it == r.sessions.end()) continue;
      const std::shared_ptr<Session> session = it->second;  // keep alive
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) session->peer_gone = true;
      if ((mask & EPOLLIN) != 0) on_readable(r, session);
      if (!session->closed() && (mask & EPOLLOUT) != 0) pump_out(r, session);
      if (!session->closed() && session->peer_gone &&
          session->inflight == 0 && !session->pending()) {
        close_session(r, session);
      }
    }
    drain_completions(r);

    const auto now = std::chrono::steady_clock::now();
    if (stop_requested_.load(std::memory_order_acquire) && !r.draining) {
      r.draining = true;
      state_.store(static_cast<std::uint8_t>(ServingState::kDraining),
                   std::memory_order_release);
      r.drain_deadline =
          now + std::chrono::nanoseconds(config_.drain_timeout);
      if (r.listen_fd >= 0) {
        ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, r.listen_fd, nullptr);
        ::close(r.listen_fd);
        r.listen_fd = -1;
      }
    }
    if (r.draining) {
      // admission_.inflight() is global, so with several reactors each one
      // holds its sockets open until the whole server has quiesced — a
      // response executing anywhere can still need flushing here.
      bool busy = admission_.inflight() > 0;
      if (!busy) {
        for (const auto& [sfd, session] : r.sessions) {
          if (session->inflight > 0 || session->pending()) {
            busy = true;
            break;
          }
        }
      }
      if (!busy || now >= r.drain_deadline) {
        r.drained_clean = !busy;
        break;
      }
    } else if (config_.idle_timeout > 0) {
      reap_idle(r, now);
    }
    flush_deferred_closes(r);
  }
  while (!r.sessions.empty()) close_session(r, r.sessions.begin()->second);
  flush_deferred_closes(r);
  if (r.listen_fd >= 0) {
    ::close(r.listen_fd);
    r.listen_fd = -1;
  }
  if (r.index == 0) running_.store(false, std::memory_order_release);
}

void Server::accept_ready(Reactor& r) {
  for (;;) {
    const int fd = ::accept4(r.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; stay alive
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_shared<Session>(fd, r.next_session_id,
                                             config_.max_payload, &r.buffers);
    r.next_session_id += reactors_.size();  // ids unique across reactors
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // session destructor closes the fd
    }
    r.sessions.emplace(fd, session);
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) metric_.sessions_opened->inc();
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kSvcSessionOpen)) {
      obs::TraceEvent e;
      e.epoch = epoch_cache_.load(std::memory_order_relaxed);
      e.type = obs::TraceType::kSvcSessionOpen;
      e.server = session->id();
      sink.record(std::move(e));
    }
  }
}

void Server::on_readable(Reactor& r, const std::shared_ptr<Session>& session) {
  std::uint64_t nread = 0;
  const Session::IoResult res = session->read_some(&nread);
  if (nread > 0) {
    bytes_read_total_.fetch_add(nread, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) metric_.bytes_read->inc(nread);
  }
  Frame frame;
  for (;;) {
    // The span opens before frame extraction, so the decode stage covers
    // parsing/validating this frame out of the buffered socket bytes. One
    // relaxed load + no clock reads when observability is off.
    obs::Span span = obs::Span::begin();
    const DecodeResult d = session->decoder().next(frame);
    span.stamp(obs::SvcStage::kDecode);
    if (d == DecodeResult::kFrame) {
      if (!handle_frame(r, session, std::move(frame), std::move(span))) {
        return;
      }
      continue;
    }
    if (d == DecodeResult::kNeedMore) break;
    // Malformed frame: framing is lost, tear the connection down.
    protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) metric_.protocol_errors->inc();
    close_session(r, session);
    return;
  }
  if (res == Session::IoResult::kEof || res == Session::IoResult::kError) {
    session->peer_gone = true;
  }
  pump_out(r, session);
  if (!session->closed() && session->peer_gone && session->inflight == 0 &&
      !session->pending()) {
    close_session(r, session);
  }
}

bool Server::handle_frame(Reactor& r, const std::shared_ptr<Session>& session,
                          Frame frame, obs::Span span) {
  note_request(frame.op);
  if (frame.status != Status::kOk) {
    // Requests must carry kOk; anything else is a confused peer.
    protocol_errors_total_.fetch_add(1, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) metric_.protocol_errors->inc();
    close_session(r, session);
    return false;
  }

  // Serving-path fault hooks: fixed roll order (drop, then stall) keeps the
  // stream reproducible for a given seed, like the network fault plan. Each
  // reactor rolls its own stream (seed + reactor index).
  Nanos stall = 0;
  if (config_.faults.conn_drop_rate > 0.0 || config_.faults.stall_rate > 0.0) {
    const bool drop = r.fault_rng.next_bool(config_.faults.conn_drop_rate);
    const bool do_stall = r.fault_rng.next_bool(config_.faults.stall_rate);
    if (drop) {
      faults_injected_total_.fetch_add(1, std::memory_order_relaxed);
      note_fault("svc_conn_drop");
      close_session(r, session);
      return false;
    }
    if (do_stall) {
      faults_injected_total_.fetch_add(1, std::memory_order_relaxed);
      note_fault("svc_stall");
      stall = config_.faults.stall;
    }
  }

  if (!is_data_op(frame.op)) {
    session->enqueue(control_response(frame));
    responses_total_.fetch_add(1, std::memory_order_relaxed);
    if (session->pending_bytes() > kMaxSessionOutBytes) {
      close_session(r, session);
      return false;
    }
    return true;
  }

  if (r.draining) {
    session->enqueue(Frame{frame.op, Status::kShuttingDown, frame.request_id,
                           {}});
    responses_total_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // A recovering server (durable boot mid-WAL-replay) sheds data ops with
  // kRetryLater — clients back off and retry, and HEALTH reports the state —
  // instead of racing the recovery's store mutations.
  if (state() == ServingState::kRecovering) {
    session->enqueue(Frame{frame.op, Status::kRetryLater, frame.request_id,
                           {}});
    responses_total_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // The deadline base is when the frame's bytes arrived (the session's last
  // read), not when the IO thread got around to parsing them — time spent
  // buffered in the session counts against the budget too.
  const auto now = std::chrono::steady_clock::now();
  const auto deadline =
      frame.deadline_ms > 0
          ? session->last_activity + std::chrono::milliseconds(frame.deadline_ms)
          : std::chrono::steady_clock::time_point::max();

  const auto decision = admission_.admit(session->inflight, now >= deadline);
  if (decision != AdmissionController::Decision::kAdmit) {
    const bool deadline_shed =
        decision == AdmissionController::Decision::kShedDeadline;
    if (deadline_shed) {
      deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
    }
    if (metric_.resolved && obs::enabled()) {
      (decision == AdmissionController::Decision::kShedSession
           ? metric_.shed_session
           : deadline_shed ? metric_.shed_deadline
                           : metric_.shed_global)
          ->inc();
      if (deadline_shed) metric_.deadline_exceeded->inc();
    }
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kSvcShed)) {
      obs::TraceEvent e;
      e.epoch = epoch_cache_.load(std::memory_order_relaxed);
      e.type = obs::TraceType::kSvcShed;
      e.server = session->id();
      e.from = op_name(frame.op);
      sink.record(std::move(e));
    }
    session->enqueue(Frame{frame.op,
                           deadline_shed ? Status::kDeadlineExceeded
                                         : Status::kRetryLater,
                           frame.request_id,
                           {}});
    responses_total_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  session->inflight += 1;
  if (metric_.resolved && obs::enabled()) {
    metric_.inflight->set(static_cast<double>(admission_.inflight()));
  }
  Completion seed;
  seed.session = session;
  seed.reactor = &r;
  seed.op = frame.op;
  seed.admitted_at = now;
  seed.deadline = deadline;
  seed.request_bytes = frame.payload.size();
  seed.request_id = frame.request_id;
  // Fault rolls + the admission decision happened since the decode stamp.
  span.stamp(obs::SvcStage::kAdmission);
  seed.span = span;
  auto job = [this, request = std::move(frame), stall,
              seed = std::move(seed)]() mutable {
    run_request(std::move(request), stall, std::move(seed));
  };
  pipeline_.submit(std::move(job));
  return true;
}

void Server::run_request(Frame request, Nanos stall, Completion seed) {
  if (stall > 0) {
    // An injected stall sleeps right here on the coordinator, which delays
    // everything behind it: exactly the head-of-line pathology the chaos
    // runs want to model.
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
  }
  // Everything since the admission stamp was time on the store queue. An
  // injected stall is deliberately left in the queue stage: it is
  // scheduling delay, not store work.
  seed.span.stamp(obs::SvcStage::kQueue);
  if (std::chrono::steady_clock::now() >= seed.deadline) {
    // The deadline lapsed while the request sat on the queue: the client
    // has stopped waiting, so executing now would burn store time for a
    // response nobody reads. Shed without touching the store.
    seed.response = Frame{request.op, Status::kDeadlineExceeded,
                          request.request_id, {}};
    deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) {
      metric_.deadline_exceeded->inc();
    }
    seed.span.stamp(obs::SvcStage::kStoreExec);
    post_completion(std::move(seed));
    return;
  }
  // Drop any WAL time a previous request on this thread left behind (e.g.
  // its span was inactive), then carve this request's WAL append+fsync out
  // of the store-exec stage. Under group commit the fsync happens on the
  // committer thread, so the carve-out shrinks toward the append cost and
  // the wait shows up (truthfully) as completion-stage time.
  obs::span_tls_take(obs::SvcStage::kWalFsync);
  seed.response = execute(request);
  const std::uint64_t wal_ns = obs::span_tls_take(obs::SvcStage::kWalFsync);
  seed.span.stamp(obs::SvcStage::kStoreExec);
  seed.span.carve(obs::SvcStage::kStoreExec, obs::SvcStage::kWalFsync,
                  wal_ns);

  // Group-commit gate: a journaled mutation is acked only once its WAL
  // records are fsynced. appended_seq() read here runs on the coordinator,
  // the WAL's only appender, so it is >= every seq this op appended; gating on
  // it can only delay the ack, never release it early.
  auto* gc = group_commit_.load(std::memory_order_acquire);
  const bool journaled =
      (request.op == Op::kPut || request.op == Op::kDelete) &&
      seed.response.status == Status::kOk;
  if (gc != nullptr && journaled) {
    durable_gated_total_.fetch_add(1, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) metric_.durable_gated->inc();
    const std::uint64_t seq = gc->appended_seq();
    auto held = std::make_shared<Completion>(std::move(seed));
    gc->when_durable(seq, [this, held]() mutable {
      post_completion(std::move(*held));
    });
    return;
  }
  post_completion(std::move(seed));
}

Frame Server::control_response(const Frame& request) {
  Frame resp{request.op, Status::kOk, request.request_id, {}};
  switch (request.op) {
    case Op::kPing:
      break;
    case Op::kStats: {
      const std::string body = stats_json();
      resp.payload.assign(body.begin(), body.end());
      break;
    }
    case Op::kMetrics: {
      obs::sync_trace_metrics();
      const std::string body = obs::render_prometheus(obs::metrics());
      resp.payload.assign(body.begin(), body.end());
      break;
    }
    case Op::kHealth: {
      // Answered inline in every serving state (including kRecovering and
      // kDraining): readiness probes must get a truthful answer precisely
      // when data ops are being shed.
      const std::string body = health_json();
      resp.payload.assign(body.begin(), body.end());
      break;
    }
    case Op::kPeerHealth: {
      // The router's liveness probe (docs/DISTRIBUTED.md), answered like
      // HEALTH in every serving state: the router counts a node live only
      // while it reports serving, so a recovering or draining node must
      // still say so.
      if (!request.payload.empty()) {
        resp.status = Status::kBadRequest;
        break;
      }
      PeerHealthBody body;
      body.node_id = config_.node_id;
      body.state = static_cast<std::uint8_t>(state());
      encode_peer_health_body(body, resp.payload);
      break;
    }
    default:
      resp.status = Status::kBadRequest;
      break;
  }
  return resp;
}

Frame Server::execute(const Frame& request) {
  Frame resp{request.op, Status::kOk, request.request_id, {}};
  // Runs on the pipeline coordinator, the store's single logical owner, so
  // no lock exists at all.
  try {
    switch (request.op) {
      case Op::kGet: {
        std::string key;
        if (!decode_key_body(request.payload, key)) {
          resp.status = Status::kBadRequest;
          break;
        }
        if (!system_.client().contains(key)) {
          resp.status = Status::kNotFound;
          break;
        }
        resp.payload = system_.client().get(key, system_.current_epoch());
        break;
      }
      case Op::kPut: {
        PutBody body;
        if (!decode_put_body(request.payload, body)) {
          resp.status = Status::kBadRequest;
          break;
        }
        system_.client().put(
            body.key,
            std::span<const std::uint8_t>(body.value.data(),
                                          body.value.size()),
            system_.current_epoch());
        maybe_tick_epoch();
        break;
      }
      case Op::kDelete: {
        std::string key;
        if (!decode_key_body(request.payload, key)) {
          resp.status = Status::kBadRequest;
          break;
        }
        resp.status = system_.client().remove(key) ? Status::kOk
                                                   : Status::kNotFound;
        break;
      }
      case Op::kDigest: {
        // Whole-cluster state fingerprint, taken as a consistent
        // point-in-time value. Crash-recovery CI compares this across a
        // kill -9 restart, and the equivalence suite compares it against a
        // sequential replay; the bypass window's drain fence is what makes
        // the snapshot consistent.
        pipeline_.bypass_inline([&] {
          const std::uint64_t digest = fault::cluster_digest(system_.store());
          char hex[17];
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(digest));
          resp.payload.assign(hex, hex + 16);
        });
        break;
      }
      case Op::kReplicate: {
        // A router-fanned replica write: like kPut, but the value must be a
        // well-formed versioned replica blob and it is applied NEWEST-WINS.
        // Same-key fan-outs from the router race unserialized across nodes,
        // so without the version gate two concurrent PUTs could leave one
        // node on v1 and another on v2 forever — and reads only mask that
        // while the node holding v2 is live. The whole case runs on the
        // pipeline coordinator, so the read-compare-put is atomic.
        ReplicateBody body;
        if (!decode_replicate_body(request.payload, body)) {
          resp.status = Status::kBadRequest;
          break;
        }
        ReplicaBlob incoming;
        if (!decode_replica_blob(body.value, incoming)) {
          resp.status = Status::kBadRequest;
          break;
        }
        if (system_.client().contains(body.key)) {
          ReplicaBlob stored;
          if (decode_replica_blob(
                  system_.client().get(body.key, system_.current_epoch()),
                  stored) &&
              stored.version >= incoming.version) {
            break;  // already at this version or newer: ack without writing
          }
        }
        system_.client().put(
            body.key,
            std::span<const std::uint8_t>(body.value.data(),
                                          body.value.size()),
            system_.current_epoch());
        maybe_tick_epoch();
        break;
      }
      case Op::kStripeWrite: {
        // One erasure-coded shard of a cross-node stripe: stored as a
        // self-describing blob (ShardMeta + shard bytes) under the internal
        // shard key, through the ordinary put path so the WAL, checkpoints,
        // and DIGEST all cover shards with zero extra machinery.
        StripeShardBody body;
        if (!decode_stripe_shard_body(request.payload, body)) {
          resp.status = Status::kBadRequest;
          break;
        }
        std::vector<std::uint8_t> blob;
        encode_shard_blob(body.meta,
                          std::span<const std::uint8_t>(body.shard.data(),
                                                        body.shard.size()),
                          blob);
        const std::string skey = shard_key(body.key, body.meta.index);
        // Newest-wins, for the same reason as kReplicate: racing same-key
        // fan-outs must converge on the highest version at every node.
        if (system_.client().contains(skey)) {
          ShardMeta stored_meta;
          std::vector<std::uint8_t> stored_shard;
          if (decode_shard_blob(
                  system_.client().get(skey, system_.current_epoch()),
                  stored_meta, stored_shard) &&
              stored_meta.version >= body.meta.version) {
            break;  // already at this version or newer: ack without writing
          }
        }
        system_.client().put(
            skey, std::span<const std::uint8_t>(blob.data(), blob.size()),
            system_.current_epoch());
        maybe_tick_epoch();
        break;
      }
      case Op::kWearReport: {
        if (!request.payload.empty()) {
          resp.status = Status::kBadRequest;
          break;
        }
        // Consistent point-in-time wear snapshot: like kDigest, the erase
        // counters live in FTL state that shard threads mutate, so they are
        // read inside a drain-fenced bypass window.
        pipeline_.bypass_inline([&] {
          WearReportBody body;
          body.node_id = config_.node_id;
          body.epoch = system_.current_epoch();
          body.server_erases = system_.cluster().erase_counts();
          for (const std::uint64_t e : body.server_erases) {
            body.total_erases += e;
          }
          encode_wear_report_body(body, resp.payload);
        });
        break;
      }
      default:
        resp.status = Status::kBadRequest;
        break;
    }
  } catch (const TransientFault& fault) {
    resp.status = Status::kRetryLater;
    const std::string what = fault.what();
    resp.payload.assign(what.begin(), what.end());
  } catch (const std::out_of_range&) {
    resp.status = Status::kNotFound;
    resp.payload.clear();
  } catch (const std::exception& error) {
    resp.status = Status::kError;
    const std::string what = error.what();
    resp.payload.assign(what.begin(), what.end());
  }
  return resp;
}

void Server::maybe_tick_epoch() {
  if (config_.epoch_every_ops == 0) return;
  if (++ops_since_epoch_ < config_.epoch_every_ops) return;
  ops_since_epoch_ = 0;
  // Inline bypass window, not a queued job: the tick must land exactly
  // after the Nth data op, with that op's device work drained, as it does in
  // a sequential run — not drift behind ops that were already queued.
  pipeline_.bypass_inline([this] {
    system_.advance_time(system_.now() + system_.config().epoch_length);
    epoch_cache_.store(system_.current_epoch(), std::memory_order_relaxed);
  });
}

void Server::post_completion(Completion&& c) {
  Reactor& r = *c.reactor;
  bool was_empty = false;
  {
    std::lock_guard lock(r.completion_mutex);
    was_empty = r.completions.empty();
    r.completions.push_back(std::move(c));
  }
  // Batched wakeup: only the empty→non-empty transition needs the eventfd —
  // the reactor drains the whole queue per wake, so later posts ride along.
  if (was_empty) {
    const int fd = r.wake_fd;
    if (fd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t w = ::write(fd, &one, sizeof(one));
    }
  }
}

void Server::drain_completions(Reactor& r) {
  std::deque<Completion> batch;
  {
    std::lock_guard lock(r.completion_mutex);
    batch.swap(r.completions);
  }
  const auto now = std::chrono::steady_clock::now();
  for (Completion& c : batch) {
    admission_.release();
    if (c.session->inflight > 0) c.session->inflight -= 1;
    responses_total_.fetch_add(1, std::memory_order_relaxed);
    note_response(c.op, elapsed_ns(c.admitted_at, now));
    // Time from the store's last stamp to here sat in the completion queue
    // waiting for the IO thread (and, under group commit, for the fsync).
    c.span.stamp(obs::SvcStage::kCompletion);
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kSvcRequest)) {
      obs::TraceEvent e;
      e.epoch = epoch_cache_.load(std::memory_order_relaxed);
      e.type = obs::TraceType::kSvcRequest;
      e.server = c.session->id();
      e.from = op_name(c.op);
      e.to = status_name(c.response.status);
      e.a = c.request_bytes;
      e.value = static_cast<double>(elapsed_ns(c.admitted_at, now));
      e.has_value = true;
      sink.record(std::move(e));
    }
    if (!c.session->closed()) {
      c.session->enqueue(c.response);
      pump_out(r, c.session);
      // Same cap handle_frame enforces on control responses: a client
      // pipelining data ops without reading its socket must not buffer
      // unbounded output (credits x max_payload can far exceed the cap).
      if (!c.session->closed() &&
          c.session->pending_bytes() > kMaxSessionOutBytes) {
        close_session(r, c.session);
      }
    }
    c.span.stamp(obs::SvcStage::kFlush);
    finalize_span(c);
    if (!c.session->closed() && c.session->peer_gone &&
        c.session->inflight == 0 && !c.session->pending()) {
      close_session(r, c.session);
    }
  }
  if (!batch.empty() && metric_.resolved && obs::enabled()) {
    metric_.inflight->set(static_cast<double>(admission_.inflight()));
  }
}

void Server::pump_out(Reactor& r, const std::shared_ptr<Session>& session) {
  if (session->closed()) return;
  std::uint64_t written = 0;
  const Session::IoResult res = session->flush(&written);
  if (written > 0) {
    bytes_written_total_.fetch_add(written, std::memory_order_relaxed);
    if (metric_.resolved && obs::enabled()) {
      metric_.bytes_written->inc(written);
    }
  }
  if (res == Session::IoResult::kError) {
    close_session(r, session);
    return;
  }
  update_epoll(r, *session);
}

void Server::update_epoll(Reactor& r, Session& session) {
  const bool want = session.pending();
  if (want == session.want_write || session.closed()) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = session.fd();
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, session.fd(), &ev) == 0) {
    session.want_write = want;
  }
}

void Server::close_session(Reactor& r, std::shared_ptr<Session> session) {
  const int fd = session->fd();
  if (fd < 0) return;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  r.sessions.erase(fd);
  // Park the fd instead of closing it: the current epoll batch may still
  // hold queued events for this fd number, and closing now would let a
  // same-batch accept4 reuse the number, misrouting those stale events
  // (e.g. EPOLLHUP) to the fresh session. flush_deferred_closes() runs once
  // the batch is fully dispatched.
  r.deferred_close_fds.push_back(session->release_fd());
  sessions_open_.fetch_sub(1, std::memory_order_relaxed);
  sessions_closed_total_.fetch_add(1, std::memory_order_relaxed);
  if (metric_.resolved && obs::enabled()) metric_.sessions_closed->inc();
  auto& sink = obs::trace();
  if (sink.accepts(obs::TraceType::kSvcSessionClose)) {
    obs::TraceEvent e;
    e.epoch = epoch_cache_.load(std::memory_order_relaxed);
    e.type = obs::TraceType::kSvcSessionClose;
    e.server = session->id();
    sink.record(std::move(e));
  }
}

void Server::flush_deferred_closes(Reactor& r) {
  for (const int fd : r.deferred_close_fds) {
    if (fd >= 0) ::close(fd);
  }
  r.deferred_close_fds.clear();
}

void Server::reap_idle(Reactor& r, std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Session>> victims;
  for (const auto& [fd, session] : r.sessions) {
    if (session->inflight > 0 || session->pending()) continue;
    if (elapsed_ns(session->last_activity, now) > config_.idle_timeout) {
      victims.push_back(session);
    }
  }
  for (const auto& session : victims) close_session(r, session);
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  std::string out;
  out.reserve(256);
  const auto field = [&out](const char* key, std::uint64_t v, bool first =
                                                                  false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  out += '{';
  field("accepted_total", s.accepted_total, true);
  field("sessions_open", s.sessions_open);
  field("sessions_closed_total", s.sessions_closed_total);
  field("requests_total", s.requests_total);
  field("responses_total", s.responses_total);
  field("shed_total", s.shed_total);
  field("protocol_errors_total", s.protocol_errors_total);
  field("faults_injected_total", s.faults_injected_total);
  field("bytes_read_total", s.bytes_read_total);
  field("bytes_written_total", s.bytes_written_total);
  field("inflight", s.inflight);
  field("slow_requests_total", s.slow_requests_total);
  field("trace_dropped", s.trace_dropped);
  field("shed_session_total", admission_.shed_session_total());
  field("shed_global_total", admission_.shed_global_total());
  field("shed_deadline_total", admission_.shed_deadline_total());
  field("deadline_exceeded_total", s.deadline_exceeded_total);
  field("node_id", config_.node_id);
  field("reactors", reactor_count_.load(std::memory_order_relaxed));
  field("pipeline_jobs_total", s.pipeline_jobs_total);
  field("pipeline_drains_total", s.pipeline_drains_total);
  field("pipeline_bypass_windows_total", s.pipeline_bypass_windows_total);
  field("durable_gated_total", s.durable_gated_total);
  out += ",\"state\":\"";
  out += serving_state_name(s.state);
  out += '"';
  out += ",\"uptime_seconds\":";
  out += json_number(s.uptime_seconds);
  out += ",\"draining\":";
  out += s.state == ServingState::kDraining ? "true" : "false";
  const RecoveryInfo rec = recovery_info();
  out += ",\"recovered\":";
  out += rec.recovered ? "true" : "false";
  field("recoveries_total", rec.recoveries_total);
  field("recovery_replayed_records", rec.replayed_records);
  field("recovery_checkpoint_seq", rec.checkpoint_seq);
  field("last_recovery_unix_ms", rec.last_recovery_unix_ms);
  out += ",\"last_recovery_seconds\":";
  out += json_number(rec.last_recovery_seconds);
  if (obs::enabled()) {
    // Durability counters, surfaced over the wire so the chaos harness and
    // operators can watch WAL progress without scraping the metrics op. The
    // names/help strings must match the durability registrations exactly —
    // obs::Registry::counter() is get-or-create.
    auto& reg = obs::metrics();
    field("wal_records_total",
          reg.counter("chameleon_wal_records_total", {},
                      "WAL records appended since process start")
              .value());
    field("wal_bytes_appended",
          static_cast<std::uint64_t>(
              reg.gauge("chameleon_wal_bytes_appended", {},
                        "WAL bytes appended since process start")
                  .value()));
    field("wal_fsyncs",
          static_cast<std::uint64_t>(
              reg.gauge("chameleon_wal_fsyncs", {},
                        "WAL fsync calls since process start")
                  .value()));
    field("wal_group_commits_total",
          reg.counter("chameleon_wal_group_commits_total", {},
                      "Group-commit fsync batches issued")
              .value());
    field("wal_group_commit_acks_total",
          reg.counter("chameleon_wal_group_commit_acks_total", {},
                      "Acks released by group-commit fsync batches")
              .value());
    field("recovery_replayed_records_total",
          reg.counter("chameleon_recovery_replayed_records_total", {},
                      "WAL records re-applied during crash recovery")
              .value());
    out += ",\"recovery_duration_seconds\":";
    out += json_number(
        reg.gauge("chameleon_recovery_duration_seconds", {},
                  "Wall-clock duration of the last crash recovery")
            .value());
  }
  out += '}';
  return out;
}

std::string Server::health_json() const {
  const RecoveryInfo rec = recovery_info();
  const ServingState st = state();
  std::string out;
  out.reserve(192);
  out += "{\"state\":\"";
  out += serving_state_name(st);
  out += "\",\"serving\":";
  out += st == ServingState::kServing ? "true" : "false";
  out += ",\"node_id\":";
  out += std::to_string(config_.node_id);
  out += ",\"uptime_seconds\":";
  out += json_number(
      start_time_.time_since_epoch().count() == 0
          ? 0.0
          : static_cast<double>(
                elapsed_ns(start_time_, std::chrono::steady_clock::now())) /
                1e9);
  out += ",\"recovered\":";
  out += rec.recovered ? "true" : "false";
  out += ",\"recoveries_total\":";
  out += std::to_string(rec.recoveries_total);
  out += ",\"recovery_replayed_records\":";
  out += std::to_string(rec.replayed_records);
  out += ",\"recovery_checkpoint_seq\":";
  out += std::to_string(rec.checkpoint_seq);
  out += ",\"last_recovery_unix_ms\":";
  out += std::to_string(rec.last_recovery_unix_ms);
  out += ",\"last_recovery_seconds\":";
  out += json_number(rec.last_recovery_seconds);
  out += '}';
  return out;
}

void Server::note_request(Op op) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (metric_.resolved && obs::enabled()) {
    metric_.requests[static_cast<std::size_t>(op)]->inc();
  }
}

void Server::note_response(Op op, Nanos latency) {
  if (metric_.resolved && obs::enabled()) {
    metric_.latency[static_cast<std::size_t>(op)]->observe(
        static_cast<double>(latency));
  }
}

void Server::finalize_span(const Completion& c) {
  if (!c.span.active()) return;
  const std::size_t op = static_cast<std::size_t>(c.op);
  if (metric_.resolved && obs::enabled() && metric_.stage[op][0] != nullptr) {
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(obs::SvcStage::kCount); ++s) {
      metric_.stage[op][s]->observe(
          static_cast<double>(c.span.ns(static_cast<obs::SvcStage>(s))) / 1e9);
    }
  }
  const std::uint64_t total = c.span.total_ns();
  const bool slow = config_.slow.threshold > 0 &&
                    total >= static_cast<std::uint64_t>(config_.slow.threshold);
  const bool sampled = obs::span_sampled(
      config_.slow.seed, config_.slow.sample_every, c.request_id);
  if (!slow && !sampled) return;
  slow_requests_total_.fetch_add(1, std::memory_order_relaxed);
  auto& sink = obs::trace();
  if (!sink.accepts(obs::TraceType::kSvcSlowRequest)) return;
  obs::TraceEvent e;
  e.epoch = epoch_cache_.load(std::memory_order_relaxed);
  e.type = obs::TraceType::kSvcSlowRequest;
  e.server = c.session->id();
  e.from = op_name(c.op);
  e.to = slow ? "threshold" : "sample";
  e.a = c.request_id;
  e.b = c.request_bytes;
  e.value = static_cast<double>(total);
  e.has_value = true;
  e.detail = c.span.stages_json();
  sink.record(std::move(e));
}

void Server::note_fault(const char* kind) {
  if (!obs::enabled()) return;
  auto& counter = obs::metrics().counter("chameleon_fault_injected_total",
                                         {{"kind", kind}},
                                         "Injected faults fired, by kind");
  counter.inc();
}

// --- signal-triggered drain --------------------------------------------------

namespace {
std::atomic<Server*> g_drain_server{nullptr};

extern "C" void drain_signal_handler(int) {
  Server* server = g_drain_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_stop();
}
}  // namespace

void drain_on_signals(Server* server, std::initializer_list<int> signals) {
  g_drain_server.store(server, std::memory_order_release);
  struct sigaction action{};
  if (server != nullptr) {
    action.sa_handler = drain_signal_handler;
    action.sa_flags = SA_RESTART;
  } else {
    action.sa_handler = SIG_DFL;
  }
  sigemptyset(&action.sa_mask);
  for (const int sig : signals) {
    ::sigaction(sig, &action, nullptr);
  }
}

}  // namespace chameleon::svc
