#include "sim/shard_executor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace chameleon::sim {

ShardExecutor::ShardExecutor(cluster::Cluster& cluster, const Options& options)
    : cluster_(cluster), options_(options) {
  const std::size_t workers = std::max<std::size_t>(1, options.workers);
  options_.workers = workers;
  options_.publish_chunk = std::max<std::size_t>(1, options.publish_chunk);
  next_seq_.assign(cluster.size(), 0);
  shards_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

ShardExecutor::~ShardExecutor() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->stopping = true;
  }
  for (auto& shard : shards_) shard->cv.notify_all();
  for (auto& shard : shards_) shard->thread.join();
}

bool ShardExecutor::deferrable(const cluster::FlashServer& server) const {
  if (bypassed_) return false;
  // Servers whose device ops can throw run inline so exceptions fire at the
  // same point in the op stream as sequential mode: armed fault injection
  // (ReadFault/WriteFault) and wear-out modeling (DeviceWornOut). Both only
  // change state at drain fences, so this answer is stable between fences.
  const auto& ftl = server.log().ftl();
  return !ftl.faults_armed() && ftl.config().max_pe_cycles == 0;
}

void ShardExecutor::defer(cluster::FlashServer& server,
                          std::function<Nanos()> fn, bool latency_counts) {
  assert(!bypassed_ && "defer() while bypassed");
  Nanos* slot = nullptr;
  if (latency_counts && group_open_) {
    slots_.push_back(0);
    slot = &slots_.back();
    ++current_group_.count;
  }
  const ServerId id = server.id();
  Shard& shard = *shards_[shard_of(id)];
  shard.pending.push_back(
      Task{std::move(fn), slot, id, next_seq_[id]++});
  synced_ = false;
  if (shard.pending.size() >= options_.publish_chunk) publish(shard);
}

void ShardExecutor::group_begin() {
  assert(!group_open_ && "nested fan-out group");
  group_open_ = true;
  current_group_ = OpRecord::Group{slots_.size(), 0, 0};
}

void ShardExecutor::group_end(Nanos inline_max) {
  if (!group_open_) return;
  group_open_ = false;
  current_group_.inline_max = inline_max;
  if (op_open_ && (current_group_.count > 0 || inline_max > 0)) {
    ops_.back().groups.push_back(current_group_);
  }
  // Outside an op (e.g. a repair helper called while engaged) the group's
  // latency has no consumer; the closures still run, the max is dropped.
}

void ShardExecutor::op_begin() {
  assert(!op_open_ && "nested op scope");
  recycle_if_resolved();
  ops_.emplace_back();
  op_open_ = true;
}

std::int64_t ShardExecutor::op_end(Nanos inline_latency,
                                   std::function<void(Nanos)> on_resolved) {
  if (!op_open_) return -1;
  assert(!group_open_ && "op closed with an open group");
  OpRecord& op = ops_.back();
  op.inline_latency = inline_latency;
  op.on_resolved = std::move(on_resolved);
  op.closed = true;
  op_open_ = false;
  return first_token_ + static_cast<std::int64_t>(ops_.size()) - 1;
}

void ShardExecutor::op_abort() {
  if (!op_open_) return;
  group_open_ = false;
  OpRecord& op = ops_.back();
  op.groups.clear();
  op.closed = true;  // resolves to 0; the token is never handed out
  op_open_ = false;
}

void ShardExecutor::publish(Shard& shard) {
  if (shard.pending.empty()) return;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.queue.empty()) {
      shard.queue.swap(shard.pending);
    } else {
      for (auto& task : shard.pending) shard.queue.push_back(std::move(task));
    }
  }
  shard.cv.notify_one();
  shard.pending.clear();
}

void ShardExecutor::worker_loop(Shard& shard) {
  std::vector<Task> batch;
  for (;;) {
    {
      std::unique_lock lock(shard.mutex);
      shard.cv.wait(lock,
                    [&shard] { return shard.stopping || !shard.queue.empty(); });
      if (shard.queue.empty()) {
        // stopping and drained
        shard.idle_cv.notify_all();
        return;
      }
      batch.swap(shard.queue);
      shard.busy = true;
    }
    for (Task& task : batch) {
      Nanos latency = 0;
      try {
        latency = task.fn();
      } catch (...) {
        std::lock_guard lock(shard.mutex);
        if (!shard.error) shard.error = std::current_exception();
      }
      if (task.slot != nullptr) *task.slot = latency;
      task.fn = nullptr;  // release captured plans promptly
    }
    {
      std::lock_guard lock(shard.mutex);
      shard.executed += batch.size();
      if (options_.keep_drain_log) {
        for (const Task& task : batch) {
          shard.journal.push_back(DrainRecord{task.server, task.seq});
        }
      }
      shard.busy = false;
      if (shard.queue.empty()) shard.idle_cv.notify_all();
    }
    batch.clear();
  }
}

void ShardExecutor::drain() {
  assert(!op_open_ && "drain() inside an op scope");
  for (auto& shard : shards_) publish(*shard);

  std::exception_ptr error;
  merge_scratch_.clear();
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    shard->idle_cv.wait(
        lock, [&] { return shard->queue.empty() && !shard->busy; });
    if (shard->error && !error) {
      error = shard->error;
      shard->error = nullptr;
    }
    if (options_.keep_drain_log) {
      merge_scratch_.insert(merge_scratch_.end(), shard->journal.begin(),
                            shard->journal.end());
      shard->journal.clear();
    }
  }
  if (options_.keep_drain_log) {
    // "Outboxes drain in server-id order": fold the per-shard journals into
    // one (server, seq)-sorted log per drain. Per-server seq order is
    // guaranteed by the FIFO inboxes; the sort makes the cross-server view
    // deterministic for the property tests.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const DrainRecord& a, const DrainRecord& b) {
                return a.server != b.server ? a.server < b.server
                                            : a.seq < b.seq;
              });
    drain_log_.insert(drain_log_.end(), merge_scratch_.begin(),
                      merge_scratch_.end());
  }
  if (error) {
    synced_ = true;
    std::rethrow_exception(error);
  }

  // Resolve closed ops in submission order: inline part + per-group maxes.
  for (; resolve_cursor_ < ops_.size(); ++resolve_cursor_) {
    OpRecord& op = ops_[resolve_cursor_];
    Nanos total = op.inline_latency;
    for (const OpRecord::Group& g : op.groups) {
      Nanos group_max = g.inline_max;
      for (std::size_t i = 0; i < g.count; ++i) {
        group_max = std::max(group_max, slots_[g.first + i]);
      }
      total += group_max;
    }
    op.resolved = total;
    if (op.on_resolved) op.on_resolved(total);
  }
  synced_ = true;
}

Nanos ShardExecutor::resolved_latency(std::int64_t token) const {
  const std::int64_t index = token - first_token_;
  if (index < 0 || index >= static_cast<std::int64_t>(ops_.size())) {
    throw std::out_of_range("ShardExecutor::resolved_latency: stale token");
  }
  const OpRecord& op = ops_[static_cast<std::size_t>(index)];
  if (static_cast<std::size_t>(index) >= resolve_cursor_) {
    throw std::logic_error(
        "ShardExecutor::resolved_latency: op not drained yet");
  }
  return op.resolved;
}

void ShardExecutor::set_bypassed(bool on) {
  assert((synced_ || !on) && "bypass flipped while work is in flight");
  bypassed_ = on;
}

std::uint64_t ShardExecutor::executed_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->executed;
  }
  return total;
}

void ShardExecutor::recycle_if_resolved() {
  // Safe only once a drain covered every outstanding closure: shard threads
  // may hold Nanos* into slots_ until then.
  if (!synced_ || ops_.empty() || resolve_cursor_ != ops_.size()) return;
  first_token_ += static_cast<std::int64_t>(ops_.size());
  ops_.clear();
  slots_.clear();
  resolve_cursor_ = 0;
}

}  // namespace chameleon::sim
