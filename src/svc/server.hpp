// Epoll-based reactor server for the Chameleon KV cluster over the svc wire
// protocol (docs/SERVICE.md). One or more IO (reactor) threads own the
// sockets and session state; admitted data ops execute on a StorePipeline:
// one coordinator thread owns every core::Chameleon call (no store mutex
// exists) and fans per-device flash work out to sim::ShardExecutor shard
// threads. Balancer epochs and DIGEST run in bypass windows behind drain
// fences, so a single connection's op stream lands on exactly the state the
// sequential core::Chameleon reaches (docs/PARALLELISM.md).
//
// With config.reactors > 1 each reactor owns its own epoll set, wake fd,
// accept socket (SO_REUSEPORT — the kernel spreads connections), session
// table, buffer pool, and completion queue; completions route back to the
// reactor owning the session, and the completion eventfd is written only on
// an empty→non-empty queue transition (batched wakeups).
//
// Lifecycle: start() binds/listens and spawns the threads; request_stop() is
// async-signal-safe (eventfd writes), so a SIGTERM handler can trigger the
// graceful drain: stop accepting, answer new requests with kShuttingDown,
// finish every admitted request, flush every response, then close. stop() is
// request_stop() + wait().
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/chameleon.hpp"
#include "obs/span.hpp"
#include "svc/admission.hpp"
#include "svc/session.hpp"
#include "svc/store_pipeline.hpp"
#include "svc/wire.hpp"

namespace chameleon::obs {
class Counter;
class Gauge;
class HistogramMetric;
}  // namespace chameleon::obs

namespace chameleon::durability {
class GroupCommit;
}  // namespace chameleon::durability

namespace chameleon::svc {

/// Seeded serving-path fault hooks (the chaos harness drives these): each
/// received frame rolls connection-drop first, then response-stall, on one
/// deterministic RNG stream, mirroring the FaultInjector's arming discipline.
/// With multiple reactors each reactor derives its own stream (seed + index).
struct ServiceFaultPlan {
  double conn_drop_rate = 0.0;  ///< P(kill the connection on a frame)
  double stall_rate = 0.0;      ///< P(delay the response by `stall`)
  Nanos stall = 20 * kMillisecond;  ///< real-time response delay
  std::uint64_t seed = 0x5eed;
};

/// Slow-request capture (docs/OBSERVABILITY.md): a data op whose span total
/// exceeds `threshold` (0 = off), or that the deterministic 1-in-N sampler
/// picks, records a kSvcSlowRequest trace event carrying the full per-stage
/// breakdown. The sampler is a pure function of (seed, request_id) —
/// obs::span_sampled — so replay/chaos runs capture byte-identical sets no
/// matter how threads interleave.
struct SlowRequestConfig {
  Nanos threshold = 0;             ///< capture when span total >= this; 0=off
  std::uint64_t sample_every = 0;  ///< deterministic 1-in-N sample; 0=off
  std::uint64_t seed = 0x5eed;
};

/// Coarse lifecycle state the server reports over the wire (HEALTH op) so
/// supervisors and load generators can probe readiness instead of sleeping:
/// a freshly exec'd durable server listens immediately but sheds data ops
/// with kRetryLater while recovery replays the WAL (kRecovering), serves
/// once set_serving() is called, and reports kDraining during the graceful
/// drain.
enum class ServingState : std::uint8_t { kRecovering, kServing, kDraining };
const char* serving_state_name(ServingState s);

/// Recovery facts a durable boot hands the server (chameleon_server does
/// this after durability::Manager::open()) so restarts are observable over
/// the wire: both STATS and HEALTH carry these fields.
struct RecoveryInfo {
  bool recovered = false;            ///< prior on-disk state was restored
  std::uint64_t recoveries_total = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t checkpoint_seq = 0;
  std::uint64_t last_recovery_unix_ms = 0;  ///< wall clock, for operators
  double last_recovery_seconds = 0.0;       ///< how long recovery took
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = ephemeral (read back via port())
  /// This process's node id in a multi-node deployment (docs/DISTRIBUTED.md);
  /// surfaced in STATS/HEALTH and echoed in PEER_HEALTH and WEAR_REPORT
  /// bodies.
  std::uint32_t node_id = 0;
  /// Shard worker threads under the store coordinator.
  std::uint32_t workers = 2;
  /// IO (reactor) threads. >1 binds one SO_REUSEPORT accept socket per
  /// reactor and partitions sessions across them.
  std::uint32_t reactors = 1;
  /// Executor drain cadence (ops between drain fences while busy).
  std::uint32_t drain_batch = 64;
  /// Start in ServingState::kRecovering: listen and answer control ops
  /// (HEALTH/STATS/PING) immediately, but shed data ops with kRetryLater
  /// until set_serving() flips the state. A durable boot uses this so
  /// recovery time is probe-able downtime, not connection-refused darkness.
  bool start_recovering = false;
  AdmissionConfig admission;
  SlowRequestConfig slow;
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Sessions idle longer than this (no traffic, nothing in flight) are
  /// reaped. 0 disables reaping.
  Nanos idle_timeout = 60 * kSecond;
  /// stop(): maximum real time to wait for in-flight requests and pending
  /// responses before closing sessions anyway.
  Nanos drain_timeout = 5 * kSecond;
  /// Advance the balancer's virtual clock by one epoch every N executed
  /// writes (PUT/REPLICATE/STRIPE_WRITE; 0 = never), so wear balancing runs
  /// under served traffic.
  std::uint64_t epoch_every_ops = 10'000;
  ServiceFaultPlan faults;
};

/// Point-in-time counters (all monotone except sessions_open/inflight).
struct ServerStats {
  std::uint64_t accepted_total = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t sessions_closed_total = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t responses_total = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t protocol_errors_total = 0;
  std::uint64_t faults_injected_total = 0;
  std::uint64_t bytes_read_total = 0;
  std::uint64_t bytes_written_total = 0;
  std::uint64_t inflight = 0;
  std::uint64_t slow_requests_total = 0;  ///< kSvcSlowRequest events recorded
  std::uint64_t trace_dropped = 0;  ///< trace-ring events lost to wraparound
  /// Requests answered kDeadlineExceeded: shed on arrival (deadline already
  /// lapsed) plus shed at dequeue (deadline lapsed on the store queue).
  std::uint64_t deadline_exceeded_total = 0;
  std::uint64_t pipeline_jobs_total = 0;
  std::uint64_t pipeline_drains_total = 0;
  std::uint64_t pipeline_bypass_windows_total = 0;
  /// Acks held for a group-commit fsync (mutations gated on when_durable).
  std::uint64_t durable_gated_total = 0;
  double uptime_seconds = 0.0;      ///< since the last successful start()
  bool drained_clean = false;  ///< last drain finished inside drain_timeout
  ServingState state = ServingState::kServing;
};

class Server {
 public:
  /// `system` must outlive the server. Serving enables the payload plane on
  /// the first PUT (via kv::Client).
  Server(core::Chameleon& system, const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn the reactor threads and the store pipeline. Throws
  /// std::runtime_error on socket errors.
  void start();

  /// Actual bound port (differs from config when config.port == 0).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return config_.host; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Async-signal-safe drain trigger (eventfd writes; callable from a signal
  /// handler). The reactor threads notice and start the graceful drain.
  void request_stop() noexcept;

  /// Block until every reactor finishes the drain, then stop the store
  /// pipeline, flush any durability-gated acks, and release every socket.
  /// Idempotent; safe to call concurrently.
  void wait();

  /// request_stop() + wait().
  void stop();

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }

  /// Leave ServingState::kRecovering and start accepting data ops. Safe to
  /// call from any thread; a no-op when already serving or draining.
  void set_serving();
  ServingState state() const {
    return static_cast<ServingState>(state_.load(std::memory_order_acquire));
  }

  /// Install the recovery facts reported by STATS and HEALTH. Call before
  /// set_serving() on a durable boot; callable from any thread.
  void set_recovery_info(const RecoveryInfo& info);
  RecoveryInfo recovery_info() const;

  /// Gate acks for journaled mutations on WAL group commit: a PUT/DELETE
  /// that appended WAL records is answered only once its records are
  /// fsynced (GroupCommit::when_durable). Call between durability
  /// Manager::open() and set_serving() on a durable boot; nullptr disables.
  /// `gc` must outlive the server's serving phase (it is flushed in wait()).
  void set_group_commit(durability::GroupCommit* gc) {
    group_commit_.store(gc, std::memory_order_release);
  }

 private:
  struct Completion;

  /// Per-IO-thread state: epoll set, wake eventfd, accept socket, session
  /// table, deferred closes, output-buffer pool, and the completion queue
  /// store threads post into. Everything except `completions`/`wake_fd` is
  /// touched only by the owning IO thread.
  struct Reactor {
    std::size_t index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    int listen_fd = -1;
    std::thread thread;
    std::map<int, std::shared_ptr<Session>> sessions;
    /// Fds removed from sessions this epoll batch, held open until the batch
    /// finishes so accept4 cannot recycle a number that stale queued events
    /// still reference.
    std::vector<int> deferred_close_fds;
    /// Session ids: index+1, index+1+reactors, ... — unique across reactors.
    std::uint64_t next_session_id = 0;
    BufferPool buffers;
    Xoshiro256 fault_rng{0x5eed};
    bool draining = false;
    std::chrono::steady_clock::time_point drain_deadline{};
    bool drained_clean = false;
    std::mutex completion_mutex;
    std::deque<Completion> completions;
  };

  struct Completion {
    std::shared_ptr<Session> session;
    Reactor* reactor = nullptr;  ///< owns the session; receives the post
    Frame response;
    Op op = Op::kPing;
    std::chrono::steady_clock::time_point admitted_at;
    /// Absolute deadline (receipt time + the frame's deadline_ms); the
    /// coordinator sheds instead of executing once this passes.
    /// time_point::max() when the request carried no deadline.
    std::chrono::steady_clock::time_point deadline;
    std::uint64_t request_bytes = 0;
    std::uint64_t request_id = 0;
    /// Stage attribution, stamped along the way: decode/admission on the IO
    /// thread, queue/store-exec (with the WAL carve-out) on the
    /// coordinator, completion/flush back on the IO thread. Never touched
    /// concurrently — ownership moves with the completion through the queue.
    obs::Span span;
  };
  struct MetricHandles {
    obs::Counter* requests[static_cast<std::size_t>(Op::kCount)] = {};
    obs::HistogramMetric* latency[static_cast<std::size_t>(Op::kCount)] = {};
    /// chameleon_svc_stage_seconds{op,stage}: resolved for data ops only.
    obs::HistogramMetric* stage[static_cast<std::size_t>(Op::kCount)]
                               [static_cast<std::size_t>(
                                   obs::SvcStage::kCount)] = {};
    obs::Counter* shed_session = nullptr;
    obs::Counter* shed_global = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* sessions_opened = nullptr;
    obs::Counter* sessions_closed = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* durable_gated = nullptr;
    obs::Gauge* inflight = nullptr;
    bool resolved = false;
  };

  void open_reactor_sockets();
  void io_loop(Reactor& r);
  void accept_ready(Reactor& r);
  void on_readable(Reactor& r, const std::shared_ptr<Session>& session);
  /// Returns false when the frame tore the session down. `span` carries the
  /// decode stamp taken by on_readable.
  bool handle_frame(Reactor& r, const std::shared_ptr<Session>& session,
                    Frame frame, obs::Span span);
  Frame control_response(const Frame& request);
  /// The store half of a request; runs on the pipeline coordinator.
  Frame execute(const Frame& request);
  /// Stall/deadline-check/execute/ack-gate body of one queued data op.
  void run_request(Frame request, Nanos stall, Completion seed);
  void maybe_tick_epoch();
  /// Push a finished completion to its reactor; wakes the reactor's eventfd
  /// only on the queue's empty→non-empty transition. Any-thread safe.
  void post_completion(Completion&& c);
  void drain_completions(Reactor& r);
  void pump_out(Reactor& r, const std::shared_ptr<Session>& session);
  /// Takes its argument by value: callers often pass the shared_ptr stored
  /// in r.sessions itself, which the erase below would otherwise destroy
  /// while we still hold a reference to it.
  void close_session(Reactor& r, std::shared_ptr<Session> session);
  /// ::close the fds parked by close_session. Must run between epoll batches
  /// (and after the loop exits), never while a batch's events are still being
  /// dispatched — see close_session.
  void flush_deferred_closes(Reactor& r);
  void reap_idle(Reactor& r, std::chrono::steady_clock::time_point now);
  void update_epoll(Reactor& r, Session& session);
  std::string stats_json() const;
  std::string health_json() const;
  void note_request(Op op);
  void note_response(Op op, Nanos latency);
  void note_fault(const char* kind);
  /// Feed the finished span into the per-stage histograms and, when the
  /// request was slow or deterministically sampled, record the
  /// kSvcSlowRequest trace event with the full breakdown. IO thread only.
  void finalize_span(const Completion& c);

  core::Chameleon& system_;
  ServerConfig config_;
  MetricHandles metric_;

  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Hard cap on config.reactors (clamped in start()).
  static constexpr std::size_t kMaxReactors = 16;
  /// Wake eventfds mirrored into a fixed array of atomics so request_stop()
  /// stays async-signal-safe: no container traversal that wait() could be
  /// mutating when the signal lands. -1 = slot closed.
  std::array<std::atomic<int>, kMaxReactors> wake_fds_;
  std::atomic<std::size_t> reactor_count_{0};
  /// Coordinator + shard executor: the only thread that touches system_
  /// while the server runs.
  StorePipeline pipeline_;
  std::mutex lifecycle_mutex_;  ///< serializes wait()/cleanup

  AdmissionController admission_;

  std::atomic<durability::GroupCommit*> group_commit_{nullptr};

  /// Data ops since the last epoch tick; coordinator thread only.
  std::uint64_t ops_since_epoch_ = 0;
  /// Last epoch observed by the coordinator, republished for trace events
  /// recorded on the IO threads without store access.
  std::atomic<std::uint64_t> epoch_cache_{0};

  std::chrono::steady_clock::time_point start_time_{};

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// ServingState, readable from any thread (HEALTH/STATS render it).
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ServingState::kServing)};
  mutable std::mutex recovery_mutex_;
  RecoveryInfo recovery_;

  // stats (atomics: read from any thread via stats())
  std::atomic<std::uint64_t> accepted_total_{0};
  std::atomic<std::uint64_t> sessions_closed_total_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_total_{0};
  std::atomic<std::uint64_t> protocol_errors_total_{0};
  std::atomic<std::uint64_t> faults_injected_total_{0};
  std::atomic<std::uint64_t> bytes_read_total_{0};
  std::atomic<std::uint64_t> bytes_written_total_{0};
  std::atomic<std::uint64_t> sessions_open_{0};
  std::atomic<std::uint64_t> slow_requests_total_{0};
  std::atomic<std::uint64_t> deadline_exceeded_total_{0};
  std::atomic<std::uint64_t> durable_gated_total_{0};
  std::atomic<bool> drained_clean_{false};
};

/// Register a signal handler on each of `signals` that triggers `server`'s
/// graceful drain via request_stop() (async-signal-safe). One server at a
/// time; passing nullptr unregisters.
void drain_on_signals(Server* server, std::initializer_list<int> signals);

}  // namespace chameleon::svc
