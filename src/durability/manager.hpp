// The durability manager: glues the WAL and the checkpointer to a live
// core::Chameleon as its MutationJournal. Epoch boundaries are the
// checkpoint barriers — on_epoch() rotates the WAL and snapshots the whole
// cluster, so the WAL tail between checkpoints carries only deterministic
// data-path records and replaying it over the snapshot restores the crashed
// process fault::cluster_digest-exact.
//
// Lifecycle: construct with a FRESH system (same config as the crashed one),
// call open() — it recovers from the newest valid checkpoint + WAL tail (or
// initializes an empty data dir), writes a fresh barrier checkpoint, and
// attaches itself as the system's journal. From then on every mutation is
// logged per the fsync policy until the manager is destroyed.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "common/journal.hpp"
#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"

namespace chameleon::core {
class Chameleon;
}

namespace chameleon::durability {

class GroupCommit;

struct DurabilityConfig {
  std::filesystem::path dir;  ///< data directory (created if absent)
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  std::uint64_t segment_bytes = 8 * kMiB;        ///< WAL rotation size cap
  std::uint64_t fsync_interval_bytes = 256 * kKiB;  ///< kInterval cadence
  /// Checkpoint every Nth balancing epoch. 1 (the default) makes every
  /// epoch a barrier — the only cadence with a digest-exactness guarantee
  /// (between barriers kEpoch records replay the balancer best-effort).
  std::uint32_t checkpoint_every_epochs = 1;
  std::uint32_t retain_checkpoints = 2;  ///< older snapshots are pruned
  /// Amortize fsync=always across concurrent writers: appends skip the
  /// per-record fsync and a GroupCommit committer thread (started by
  /// open()) batches one fsync per group; acks gate on when_durable().
  /// Ignored unless fsync == kAlways.
  bool group_commit = false;
};

/// What recovery found and did; printed by chameleon_server at boot and
/// asserted by the durability tests.
struct RecoveryReport {
  bool recovered = false;          ///< any prior state was restored
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_seq = 0;
  Epoch checkpoint_epoch = 0;
  std::uint32_t corrupt_checkpoints = 0;  ///< snapshots rejected on the way
  std::uint64_t replayed_records = 0;     ///< WAL records re-applied
  std::uint64_t segments_scanned = 0;
  std::uint64_t truncated_bytes = 0;  ///< bytes dropped from a torn tail
  bool torn_tail = false;             ///< the final WAL record was torn
  std::uint64_t digest = 0;           ///< cluster digest after recovery
  double duration_seconds = 0.0;      ///< wall-clock recovery time
};

class Manager : public MutationJournal {
 public:
  /// `system` must be freshly constructed and outlive the manager.
  Manager(core::Chameleon& system, DurabilityConfig config);
  ~Manager() override;

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Recover-or-initialize, then attach as the system's journal. Throws
  /// std::runtime_error on unrecoverable corruption (every checkpoint bad
  /// AND the WAL broken mid-log).
  RecoveryReport open();

  /// Manual barrier: rotate the WAL, snapshot, prune. (Normally driven by
  /// on_epoch; exposed for shutdown and for tests.)
  CheckpointMeta checkpoint();

  /// Force buffered WAL records to stable storage regardless of policy.
  void sync() {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    wal_->sync();
  }

  /// Group-commit primitive: one fsync covering every record appended
  /// before the call. Returns the highest record seq now durable. Safe to
  /// call from the committer thread while the store thread appends: the
  /// fsync itself runs outside wal_mutex_, so appends never wait for it.
  std::uint64_t sync_covering();

  /// Test hook: runs in sync_covering() after the covered seq is taken and
  /// before the unlocked fsync, so a test can hold a group fsync open.
  void set_sync_hook_for_test(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    sync_hook_for_test_ = std::move(hook);
  }

  /// Seq of the most recently appended record (0 = none). Lock-free; the
  /// serving path reads it right after a mutation to learn which commit
  /// seq its ack must wait for.
  std::uint64_t last_appended_seq() const {
    return last_appended_seq_.load(std::memory_order_acquire);
  }

  /// True when deferred-fsync group commit is running (config.group_commit
  /// under fsync=always, after open()).
  bool group_commit_active() const { return group_commit_ != nullptr; }
  GroupCommit* group_commit() { return group_commit_.get(); }

  const DurabilityConfig& config() const { return config_; }
  const RecoveryReport& last_recovery() const { return recovery_; }
  const WalWriter& wal() const { return *wal_; }

  // --- MutationJournal ------------------------------------------------------
  void on_put_sim(ObjectId oid, std::uint64_t bytes, Epoch epoch) override;
  void on_put_value(ObjectId oid, std::span<const std::uint8_t> value,
                    Epoch epoch) override;
  void on_remove(ObjectId oid) override;
  void on_epoch(Epoch epoch) override;
  void on_membership(ServerId server, bool up) override;

 private:
  void append(WalRecord record);
  /// Apply one replayed WAL record to the (journal-less) system.
  void replay_record(const WalRecord& record);
  /// Delete checkpoints beyond the retain count and WAL segments older
  /// than the oldest retained checkpoint still needs.
  void prune();
  void export_metrics();

  core::Chameleon& system_;
  DurabilityConfig config_;
  std::unique_ptr<WalWriter> wal_;
  /// Guards wal_ (and the checkpoint barrier's WAL half): the store thread
  /// appends while the group-commit committer takes and settles its fsync
  /// tickets.
  std::mutex wal_mutex_;
  std::function<void()> sync_hook_for_test_;  ///< guarded by wal_mutex_
  std::atomic<std::uint64_t> last_appended_seq_{0};
  std::unique_ptr<GroupCommit> group_commit_;
  std::uint64_t checkpoint_seq_ = 0;       ///< last checkpoint written/loaded
  std::uint64_t records_since_checkpoint_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  bool opened_ = false;
  RecoveryReport recovery_;
  /// (checkpoint seq, first WAL segment it needs), oldest first.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> retained_;
};

}  // namespace chameleon::durability
