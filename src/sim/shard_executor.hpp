// Sharded parallel simulation engine: runs ONE experiment's per-device flash
// work across worker threads while staying byte-for-byte identical to
// sequential mode (the Ceph-OSD-shard / DINOMO-worker shape).
//
// Servers are partitioned into shards (server % workers); each shard owns a
// worker thread with a FIFO inbox the coordinator publishes device closures
// into. A simulation batch is three barriered phases:
//
//   A. coordinator: every logical decision (placement, mapping table, extent
//      allocation, network accounting) in request order — identical to
//      sequential mode by construction — emitting physical closures into the
//      per-shard outboxes;
//   B. shards: execute each server's closures in submission order (FTL
//      programs/reads/trims + GC), concurrently across shards;
//   C. drain fence: coordinator waits for all shards, folds completion
//      journals into a (server-id, seq)-ordered drain log, and resolves
//      client-visible op latencies in submission order.
//
// Control-plane sections (balancer epochs, fault injector, supervisor) run
// between a drain fence and resume, with the executor *bypassed*, so they
// execute fully inline exactly as sequential mode would. See
// docs/PARALLELISM.md for the determinism argument.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/device_exec.hpp"

namespace chameleon::sim {

/// One completed device closure, for the phase-ordering property tests: the
/// drain log is the concatenation of per-shard journals merged into
/// (server, seq) order, so per-server execution order is auditable.
struct DrainRecord {
  ServerId server = 0;
  std::uint64_t seq = 0;  ///< per-server submission sequence number
};

class ShardExecutor final : public cluster::DeviceExecutor {
 public:
  struct Options {
    std::size_t workers = 2;        ///< shard / worker-thread count (>= 1)
    std::size_t publish_chunk = 32; ///< closures buffered per shard before
                                    ///< the queue lock is taken
    bool keep_drain_log = false;    ///< record DrainRecords (tests only)
  };

  /// Does NOT attach itself; callers pair it with
  /// cluster.attach_executor(&exec) so tests can compose freely.
  ShardExecutor(cluster::Cluster& cluster, const Options& options);
  ~ShardExecutor() override;

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  // --- DeviceExecutor ---
  bool deferrable(const cluster::FlashServer& server) const override;
  void defer(cluster::FlashServer& server, std::function<Nanos()> fn,
             bool latency_counts) override;
  bool engaged() const override { return !bypassed_; }
  void group_begin() override;
  void group_end(Nanos inline_max) override;
  void op_begin() override;
  std::int64_t op_end(Nanos inline_latency,
                      std::function<void(Nanos)> on_resolved) override;
  void op_abort() override;

  // --- coordinator-side control ---

  /// Barrier: publish every buffered closure, wait until all shards go idle,
  /// rethrow the first shard exception (if any), then resolve every closed
  /// op in submission order (invoking on_resolved callbacks).
  void drain();

  /// Resolved latency of an op token; valid after the drain that covered it
  /// and until the next op_begin.
  Nanos resolved_latency(std::int64_t token) const;

  /// Bypass window: control-plane code runs fully inline while bypassed
  /// (deferrable() == false for every server). Must only be flipped when the
  /// executor is drained.
  void set_bypassed(bool on);
  bool bypassed() const { return bypassed_; }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(ServerId server) const {
    return server % shards_.size();
  }

  /// Closures executed since construction (all shards, post-drain only).
  std::uint64_t executed_count() const;

  /// The (server, seq)-merged completion journal of every drain so far.
  /// Empty unless Options::keep_drain_log.
  const std::vector<DrainRecord>& drain_log() const { return drain_log_; }

 private:
  struct Task {
    std::function<Nanos()> fn;
    Nanos* slot = nullptr;  ///< latency destination (nullptr: discard)
    ServerId server = 0;
    std::uint64_t seq = 0;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;        ///< work arrived / stopping
    std::condition_variable idle_cv;   ///< queue empty and not busy
    std::vector<Task> queue;
    std::vector<DrainRecord> journal;  ///< completed (server, seq), in
                                       ///< execution order
    std::uint64_t executed = 0;
    bool busy = false;
    bool stopping = false;
    std::exception_ptr error;
    std::thread thread;
    /// Coordinator-local buffer; handed to `queue` under the mutex every
    /// `publish_chunk` closures (amortizes lock traffic). The hand-off swaps
    /// buffers when the worker has taken the last one, so `pending`,
    /// `queue` and the worker's batch circulate without reallocating.
    std::vector<Task> pending;
  };

  /// One client-visible op: inline latency + fan-out groups of slots.
  struct OpRecord {
    Nanos inline_latency = 0;
    std::function<void(Nanos)> on_resolved;
    /// (first slot index, count, inline max) per group.
    struct Group {
      std::size_t first = 0;
      std::size_t count = 0;
      Nanos inline_max = 0;
    };
    std::vector<Group> groups;
    Nanos resolved = 0;
    bool closed = false;
  };

  void worker_loop(Shard& shard);
  void publish(Shard& shard);
  void recycle_if_resolved();

  cluster::Cluster& cluster_;
  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Coordinator-only state (no locking needed).
  /// Slots live in a deque: push_back never moves existing elements, so
  /// shard threads may write through their Nanos* while the coordinator
  /// appends (happens-before established by the shard queue mutex on
  /// publish and by the idle handshake on drain).
  std::deque<Nanos> slots_;
  std::deque<OpRecord> ops_;
  std::int64_t first_token_ = 0;
  std::vector<std::uint64_t> next_seq_;  ///< per server
  bool op_open_ = false;
  bool group_open_ = false;
  OpRecord::Group current_group_;
  bool bypassed_ = false;
  bool synced_ = true;             ///< every deferred closure drained
  std::size_t resolve_cursor_ = 0; ///< first unresolved op index
  std::vector<DrainRecord> drain_log_;
  std::vector<DrainRecord> merge_scratch_;
};

}  // namespace chameleon::sim
