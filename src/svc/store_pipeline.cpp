#include "svc/store_pipeline.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace chameleon::svc {

StorePipeline::StorePipeline(core::Chameleon& system,
                             const StorePipelineOptions& options)
    : system_(system), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.drain_batch == 0) options_.drain_batch = 1;
}

StorePipeline::~StorePipeline() { stop(); }

void StorePipeline::start() {
  if (running()) return;
  sim::ShardExecutor::Options opts;
  opts.workers = options_.workers;
  executor_ = std::make_unique<sim::ShardExecutor>(system_.cluster(), opts);
  // Bypassed until the first job: the durable-boot WAL replay runs on the
  // main thread with the executor attached but inert. The job-queue mutex
  // orders that replay before anything the coordinator does.
  executor_->set_bypassed(true);
  system_.cluster().attach_executor(executor_.get());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
  }
  engaged_ = false;
  since_drain_ = 0;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { coordinator_loop(); });
}

void StorePipeline::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
  system_.cluster().attach_executor(nullptr);
  executor_.reset();
  running_.store(false, std::memory_order_release);
}

void StorePipeline::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void StorePipeline::bypass_inline(const std::function<void()>& fn) {
  drain_if_dirty();
  if (engaged_) executor_->set_bypassed(true);
  fn();
  if (engaged_) executor_->set_bypassed(false);
  bypass_windows_.fetch_add(1, std::memory_order_relaxed);
}

void StorePipeline::drain_if_dirty() {
  if (since_drain_ == 0) return;
  since_drain_ = 0;
  try {
    executor_->drain();
  } catch (const std::exception&) {
    // Shard closures cannot throw in serving mode (fault arming forces the
    // inline path), so this is purely defensive: count it, keep serving.
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  drains_.fetch_add(1, std::memory_order_relaxed);
}

void StorePipeline::coordinator_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        if (stop_) break;
        // About to idle: nothing is waiting, so close out the deferred
        // device work now instead of letting tokens pile up unresolved.
        lock.unlock();
        drain_if_dirty();
        lock.lock();
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) break;  // stop requested and fully drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    if (!engaged_) {
      executor_->set_bypassed(false);
      engaged_ = true;
    }
    // Count the job before it runs: a bypass window it opens (an epoch tick
    // after its PUT) must see the executor dirty and drain this job's own
    // device work first, even when it is the first job since the last drain.
    ++since_drain_;
    job();
    if (since_drain_ >= options_.drain_batch) drain_if_dirty();
    jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  drain_if_dirty();
  // Leave the executor bypassed so post-stop store access (e.g. a final
  // checkpoint on the main thread) runs inline against a drained cluster.
  executor_->set_bypassed(true);
  engaged_ = false;
}

}  // namespace chameleon::svc
