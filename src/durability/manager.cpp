#include "durability/manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/chameleon.hpp"
#include "durability/group_commit.hpp"
#include "fault/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::durability {

Manager::Manager(core::Chameleon& system, DurabilityConfig config)
    : system_(system), config_(std::move(config)) {
  if (config_.checkpoint_every_epochs == 0) {
    throw std::invalid_argument(
        "durability: checkpoint_every_epochs must be >= 1");
  }
  if (config_.retain_checkpoints == 0) {
    throw std::invalid_argument("durability: retain_checkpoints must be >= 1");
  }
  wal_ = std::make_unique<WalWriter>(config_.dir, config_.fsync,
                                     config_.segment_bytes,
                                     config_.fsync_interval_bytes);
  if (config_.group_commit && config_.fsync == FsyncPolicy::kAlways) {
    // The committer thread owns durability; appends stay in page cache
    // until the group fsync (acks gate on GroupCommit::when_durable).
    wal_->set_auto_fsync(false);
  }
}

Manager::~Manager() {
  group_commit_.reset();  // drains pending waiters with a final group fsync
  if (opened_) system_.attach_journal(nullptr);
  if (wal_) {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    wal_->sync();
  }
}

RecoveryReport Manager::open() {
  if (opened_) throw std::runtime_error("durability: open() called twice");
  const auto t0 = std::chrono::steady_clock::now();
  std::filesystem::create_directories(config_.dir);

  RecoveryReport report;
  if (obs::enabled()) {
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kRecoveryStart)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kRecoveryStart;
      sink.record(std::move(e));
    }
  }

  // 1. Newest valid checkpoint wins; corrupt ones are skipped (loudly via
  // the report) and recovery falls back to the next older snapshot.
  CheckpointMeta loaded;
  const std::vector<std::filesystem::path> checkpoints =
      list_checkpoints(config_.dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    try {
      loaded = load_checkpoint(*it, system_);
      report.checkpoint_loaded = true;
      report.checkpoint_seq = loaded.seq;
      report.checkpoint_epoch = loaded.epoch;
      break;
    } catch (const std::runtime_error&) {
      ++report.corrupt_checkpoints;
    }
  }

  // 2. Replay the WAL tail: every segment the checkpoint does not cover,
  // in order. A torn final record truncates; damage earlier throws.
  std::uint64_t expected_seq =
      report.checkpoint_loaded ? loaded.next_record_seq : 0;
  WalReplayStats stats;
  const std::vector<std::filesystem::path> segments =
      list_wal_segments(config_.dir);
  std::vector<std::filesystem::path> to_replay;
  for (const auto& path : segments) {
    if (report.checkpoint_loaded &&
        wal_segment_seq(path) < loaded.wal_segment_seq) {
      continue;  // already folded into the checkpoint
    }
    to_replay.push_back(path);
  }
  for (std::size_t i = 0; i < to_replay.size(); ++i) {
    const bool last = i + 1 == to_replay.size();
    read_wal_segment(
        to_replay[i], last,
        [this](const WalRecord& record) { replay_record(record); }, &stats,
        &expected_seq);
  }
  report.replayed_records = stats.records;
  report.segments_scanned = stats.segments;
  report.truncated_bytes = stats.truncated_bytes;
  report.torn_tail = stats.torn_tail;
  report.recovered = report.checkpoint_loaded || stats.records > 0;

  if (obs::enabled()) {
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kRecoveryReplay)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kRecoveryReplay;
      e.a = stats.records;
      e.b = stats.truncated_bytes;
      sink.record(std::move(e));
    }
  }

  // 3. Fresh barrier: rotate past everything replayed, snapshot the
  // recovered state, prune. From here the directory is self-consistent
  // even if the old tail was torn.
  const std::uint64_t next_segment =
      segments.empty() ? 1 : wal_segment_seq(segments.back()) + 1;
  const std::uint64_t next_record = expected_seq == 0 ? 1 : expected_seq;
  wal_->set_next_record_seq(next_record);
  wal_->open_segment(next_segment, next_record);
  last_appended_seq_.store(next_record - 1, std::memory_order_release);
  checkpoint_seq_ = report.checkpoint_loaded ? loaded.seq : 0;
  if (report.checkpoint_loaded) {
    retained_.emplace_back(loaded.seq, loaded.wal_segment_seq);
  }
  checkpoint();

  report.digest = fault::cluster_digest(system_.store());
  report.duration_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  recovery_ = report;

  system_.attach_journal(this);
  opened_ = true;
  if (config_.group_commit && config_.fsync == FsyncPolicy::kAlways) {
    group_commit_ = std::make_unique<GroupCommit>(*this);
  }

  if (obs::enabled()) {
    obs::metrics()
        .counter("chameleon_recovery_replayed_records_total", {},
                 "WAL records re-applied during crash recovery")
        .inc(report.replayed_records);
    if (report.torn_tail) {
      obs::metrics()
          .counter("chameleon_recovery_truncated_tail_total", {},
                   "Recoveries that found (and truncated) a torn WAL tail")
          .inc();
    }
    obs::metrics()
        .gauge("chameleon_recovery_duration_seconds", {},
               "Wall-clock duration of the last crash recovery")
        .set(report.duration_seconds);
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kRecoveryDone)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kRecoveryDone;
      e.epoch = report.checkpoint_epoch;
      e.a = report.checkpoint_seq;
      e.value = report.duration_seconds;
      e.has_value = true;
      sink.record(std::move(e));
    }
  }
  return report;
}

void Manager::replay_record(const WalRecord& record) {
  // The journal is not attached during replay, so nothing re-logs; records
  // apply through the same store/system paths that produced them.
  switch (record.type) {
    case WalRecordType::kPutSim:
      system_.store().put(record.oid, record.bytes, record.epoch);
      break;
    case WalRecordType::kPutValue:
      system_.store().enable_payloads();
      system_.store().put_value(record.oid, record.value, record.epoch);
      break;
    case WalRecordType::kRemove:
      system_.store().remove(record.oid);
      break;
    case WalRecordType::kEpoch:
      // Best-effort for checkpoint cadences > 1: re-runs the balancer at
      // the recorded boundary. With cadence 1 (the default) no kEpoch
      // record ever survives past its own barrier checkpoint.
      system_.advance_time(static_cast<Nanos>(record.epoch) *
                           system_.config().epoch_length);
      break;
    case WalRecordType::kMembership:
      if (system_.supervisor() != nullptr) {
        if (record.up) {
          system_.supervisor()->rejoin_server(record.server, system_.now());
        } else {
          system_.supervisor()->restore_failed(record.server);
        }
      }
      break;
  }
}

CheckpointMeta Manager::checkpoint() {
  // Barrier order matters: (1) everything logged so far reaches the disk,
  // (2) the WAL rotates so the snapshot's cursor points at a fresh segment,
  // (3) the snapshot commits atomically, (4) old files become garbage.
  // Only the WAL half needs wal_mutex_ (the committer thread may fsync
  // concurrently); the snapshot itself runs on the store thread, which is
  // the only appender.
  std::uint64_t wal_segment = 0;
  std::uint64_t next_record = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    wal_->sync();
    if (opened_ || records_since_checkpoint_ > 0) {
      wal_->open_segment(wal_->segment_seq() + 1, wal_->next_record_seq());
    }
    wal_segment = wal_->segment_seq();
    next_record = wal_->next_record_seq();
  }
  const std::uint64_t seq = ++checkpoint_seq_;
  const auto t0 = std::chrono::steady_clock::now();
  const CheckpointMeta meta =
      save_checkpoint(config_.dir, seq, system_, wal_segment, next_record);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  retained_.emplace_back(seq, meta.wal_segment_seq);
  ++checkpoints_written_;
  const std::uint64_t records = records_since_checkpoint_;
  records_since_checkpoint_ = 0;
  prune();
  if (obs::enabled()) {
    obs::metrics()
        .counter("chameleon_checkpoints_total", {},
                 "Full-cluster durability snapshots written")
        .inc();
    obs::metrics()
        .gauge("chameleon_checkpoint_seconds", {},
               "Wall-clock duration of the last checkpoint (digest, "
               "serialize, write, fsync, rename)")
        .set(seconds);
    obs::metrics()
        .gauge("chameleon_checkpoint_bytes", {},
               "Size of the last checkpoint file")
        .set(static_cast<double>(meta.file_bytes));
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kCheckpoint)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kCheckpoint;
      e.epoch = meta.epoch;
      e.a = meta.seq;
      e.b = records;
      sink.record(std::move(e));
    }
  }
  return meta;
}

void Manager::prune() {
  while (retained_.size() > config_.retain_checkpoints) {
    retained_.erase(retained_.begin());
  }
  const std::uint64_t keep_ckpt = retained_.front().first;
  const std::uint64_t keep_wal = retained_.front().second;
  for (const auto& path : list_checkpoints(config_.dir)) {
    if (checkpoint_file_seq(path) < keep_ckpt) {
      std::filesystem::remove(path);
    }
  }
  for (const auto& path : list_wal_segments(config_.dir)) {
    if (wal_segment_seq(path) < keep_wal) {
      std::filesystem::remove(path);
    }
  }
}

std::uint64_t Manager::sync_covering() {
  WalWriter::SyncTicket ticket;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    ticket = wal_->begin_sync();
    hook = sync_hook_for_test_;
  }
  if (ticket.fd >= 0) {
    if (hook) hook();
    WalWriter::sync_ticket(ticket);
    std::lock_guard<std::mutex> lock(wal_mutex_);
    wal_->end_sync(ticket);
  }
  return ticket.last_record_seq;
}

void Manager::append(WalRecord record) {
  const bool export_metrics = obs::enabled();
  if (export_metrics && wal_records_metric_ == nullptr) resolve_wal_metrics();
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    seq = wal_->append(std::move(record));
    // Counter reads stay under the lock: fsyncs() moves on the committer
    // thread in group-commit mode.
    if (export_metrics) {
      wal_records_metric_->inc();
      wal_bytes_metric_->set(static_cast<double>(wal_->bytes_appended()));
      wal_fsyncs_metric_->set(static_cast<double>(wal_->fsyncs()));
    }
  }
  last_appended_seq_.store(seq, std::memory_order_release);
  ++records_since_checkpoint_;
}

void Manager::resolve_wal_metrics() {
  wal_records_metric_ = &obs::metrics().counter(
      "chameleon_wal_records_total", {},
      "WAL records appended since process start");
  wal_bytes_metric_ = &obs::metrics().gauge(
      "chameleon_wal_bytes_appended", {},
      "WAL bytes appended since process start");
  wal_fsyncs_metric_ = &obs::metrics().gauge(
      "chameleon_wal_fsyncs", {}, "WAL fsync calls since process start");
}

void Manager::on_put_sim(ObjectId oid, std::uint64_t bytes, Epoch epoch) {
  WalRecord record;
  record.type = WalRecordType::kPutSim;
  record.oid = oid;
  record.bytes = bytes;
  record.epoch = epoch;
  append(std::move(record));
}

void Manager::on_put_value(ObjectId oid, std::span<const std::uint8_t> value,
                           Epoch epoch) {
  WalRecord record;
  record.type = WalRecordType::kPutValue;
  record.oid = oid;
  record.epoch = epoch;
  record.value.assign(value.begin(), value.end());
  append(std::move(record));
}

void Manager::on_remove(ObjectId oid) {
  WalRecord record;
  record.type = WalRecordType::kRemove;
  record.oid = oid;
  append(std::move(record));
}

void Manager::on_epoch(Epoch epoch) {
  WalRecord record;
  record.type = WalRecordType::kEpoch;
  record.epoch = epoch;
  append(std::move(record));
  if (epoch % config_.checkpoint_every_epochs == 0) checkpoint();
}

void Manager::on_membership(ServerId server, bool up) {
  WalRecord record;
  record.type = WalRecordType::kMembership;
  record.server = server;
  record.up = up;
  append(std::move(record));
}

}  // namespace chameleon::durability
