// The serving path's store backend: ONE coordinator thread owns every
// core::Chameleon call (so no global store mutex exists at all), and a
// sim::ShardExecutor fans the per-device flash work of independent servers
// out to shard worker threads — the simulator's phase model
// (docs/PARALLELISM.md) carried into the live TCP path. Reactor threads
// submit closed-over requests into an MPSC queue; the coordinator executes
// their logical plans in arrival order, drains the executor every
// `drain_batch` jobs (and before going idle), and runs control-plane
// sections (balancer epochs, DIGEST) inside bypass windows behind a drain
// fence — exactly the sequential interleaving, which is what makes sharded
// serving digest-equivalent to a sequential core::Chameleon fed the same op
// stream.
//
// The executor starts BYPASSED: a durable boot replays the WAL on the main
// thread before any job is submitted, and a bypassed executor is inert
// (OpScope/GroupScope fall back to the inline path), so replay needs no
// cross-thread coordination. The coordinator engages the executor when the
// first data job arrives.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/chameleon.hpp"
#include "sim/shard_executor.hpp"

namespace chameleon::svc {

struct StorePipelineOptions {
  std::size_t workers = 2;  ///< shard worker threads (>= 1)
  /// Executor drain cadence: jobs between drain fences while the queue is
  /// busy (the coordinator always drains before idling or a bypass window).
  std::size_t drain_batch = 64;
};

class StorePipeline {
 public:
  /// `system` must outlive the pipeline. Does not start any thread.
  StorePipeline(core::Chameleon& system, const StorePipelineOptions& options);
  ~StorePipeline();

  StorePipeline(const StorePipeline&) = delete;
  StorePipeline& operator=(const StorePipeline&) = delete;

  /// Create the shard executor (bypassed), attach it to the cluster, and
  /// spawn the coordinator thread.
  void start();

  /// Drain every queued job, run a final drain fence, detach the executor,
  /// and join. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Run `fn` on the coordinator thread with the executor engaged. `fn` must
  /// not throw (wrap store exceptions inside, the way Server::execute does).
  void submit(std::function<void()> fn);

  /// Bypass window entered from WITHIN a running job (coordinator thread
  /// only): drain fence (covering the running job's own device work),
  /// bypass, `fn`, re-engage. This is how an epoch tick stays ordered
  /// exactly after the Nth data op instead of drifting behind whatever was
  /// already queued — the digest-equivalence tests depend on that ordering
  /// matching a sequential run's.
  void bypass_inline(const std::function<void()>& fn);

  std::uint64_t jobs_executed() const {
    return jobs_executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t drains() const {
    return drains_.load(std::memory_order_relaxed);
  }
  std::uint64_t bypass_windows() const {
    return bypass_windows_.load(std::memory_order_relaxed);
  }
  /// Shard-phase errors swallowed by the coordinator (should stay 0: fault
  /// injection forces inline execution, so shard closures cannot throw).
  std::uint64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

  std::size_t shard_workers() const { return options_.workers; }

 private:
  void coordinator_loop();
  void drain_if_dirty();

  core::Chameleon& system_;
  StorePipelineOptions options_;
  std::unique_ptr<sim::ShardExecutor> executor_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::thread thread_;
  std::atomic<bool> running_{false};

  // Coordinator-thread-only.
  bool engaged_ = false;
  std::size_t since_drain_ = 0;

  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> bypass_windows_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace chameleon::svc
