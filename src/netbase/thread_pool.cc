#include "netbase/thread_pool.h"

#include <algorithm>

#include "netbase/telemetry.h"

namespace anyopt {

namespace {

/// Pre-resolved pool metrics (one registry lookup per process).
struct PoolMetrics {
  telemetry::Counter* tasks;
  telemetry::Counter* busy_us;
  telemetry::Counter* worker_us;
  telemetry::Gauge* workers;
  telemetry::Histogram* queue_wait_ms;
  telemetry::Histogram* task_ms;

  static const PoolMetrics& get() {
    static const PoolMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return PoolMetrics{&reg.counter("pool.tasks"),
                         &reg.counter("pool.busy_us"),
                         &reg.counter("pool.worker_us"),
                         &reg.gauge("pool.workers"),
                         &reg.histogram("pool.queue_wait_ms"),
                         &reg.histogram("pool.task_ms")};
    }();
    return m;
  }
};

}  // namespace

double ThreadPool::enqueue_stamp_us() {
  return telemetry::enabled() ? telemetry::now_us() : -1.0;
}

void ThreadPool::note_queue_depth(std::size_t depth) {
  if (!telemetry::enabled()) return;
  static telemetry::Gauge& bytes =
      telemetry::Registry::global().gauge("bytes.pool_queue");
  // Control-block footprint of the pending tasks; the closures' captured
  // state is owned elsewhere, so sizeof(Task) is the honest queue cost.
  bytes.set(static_cast<std::int64_t>(depth * sizeof(Task)));
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  created_us_ = enqueue_stamp_us();
  if (created_us_ >= 0) {
    PoolMetrics::get().workers->update_max(
        static_cast<std::int64_t>(threads));
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
    queue_.clear();
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Utilization accounting: worker-seconds offered over the pool's life vs
  // worker-seconds actually spent in tasks (`pool.busy_us / pool.worker_us`
  // in the metrics summary).  Only when telemetry spanned the whole life.
  if (created_us_ >= 0 && telemetry::enabled()) {
    const double wall_us = telemetry::now_us() - created_us_;
    const auto& m = PoolMetrics::get();
    m.busy_us->add(busy_us_.load(std::memory_order_relaxed));
    m.worker_us->add(static_cast<std::uint64_t>(
        wall_us * static_cast<double>(workers_.size())));
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      note_queue_depth(queue_.size());
    }
    if (task.enqueue_us >= 0 && telemetry::enabled()) {
      const auto& m = PoolMetrics::get();
      const double start_us = telemetry::now_us();
      m.queue_wait_ms->record((start_us - task.enqueue_us) / 1e3);
      task.fn();  // packaged_task: exceptions land in the task's future
      const double dur_us = telemetry::now_us() - start_us;
      m.task_ms->record(dur_us / 1e3);
      m.tasks->add(1);
      busy_us_.fetch_add(static_cast<std::uint64_t>(dur_us),
                         std::memory_order_relaxed);
    } else {
      task.fn();  // packaged_task: exceptions land in the task's future
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pending.push_back(submit([&fn, i] { fn(i); }));
  }
  // Collect in index order so the first failure is deterministic.
  std::exception_ptr first_error;
  for (auto& future : pending) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace anyopt
