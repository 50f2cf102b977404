#pragma once
// Fixed-size worker pool with one shared FIFO task queue (deliberately
// work-stealing-free: tasks here are whole BGP experiments, milliseconds
// each, so a single locked queue is nowhere near contention).
//
// The pool powers `measure::CampaignRunner`: experiment batches are
// submitted as independent tasks over shared *immutable* state (topology,
// deployment, simulator), each writing only its own result slot, so no
// synchronization beyond the queue itself is needed and results are
// bit-identical to the serial path regardless of worker count or
// completion order.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace anyopt {

class ThreadPool {
 public:
  /// Spawns `threads` workers; `threads == 0` selects the hardware
  /// concurrency (at least 1).  Contract: the pool NEVER has zero workers —
  /// `size() >= 1` for every argument — so submitted work always drains.
  /// Callers that want "0 means serial" semantics (e.g. the bench CLI's
  /// `--threads` flag) must clamp before constructing.
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: pending tasks are abandoned (their futures broken),
  /// the currently running tasks finish, and all workers are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `task`; the returned future delivers its result, or rethrows
  /// the exception it exited with.
  template <class F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    {
      const std::lock_guard lock(mutex_);
      queue_.push_back({[packaged] { (*packaged)(); }, enqueue_stamp_us()});
      note_queue_depth(queue_.size());
    }
    ready_.notify_one();
    return future;
  }

  /// Runs `fn(i)` for every i in [0, count) across the workers and blocks
  /// until all complete.  If any invocation throws, the exception of the
  /// LOWEST failing index is rethrown (deterministic regardless of
  /// completion order); the remaining iterations still run to completion.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Task {
    std::function<void()> fn;
    double enqueue_us;  ///< telemetry stamp; < 0 when telemetry is off
  };

  void worker_loop();

  /// Now-stamp for queue-wait accounting; -1 (no clock read) when
  /// telemetry is disabled.
  [[nodiscard]] static double enqueue_stamp_us();

  /// Feeds the `bytes.pool_queue` gauge with the pending queue's footprint
  /// (no-op when telemetry is off).  Callers must hold `mutex_`.
  static void note_queue_depth(std::size_t depth);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
  double created_us_;                      ///< construction stamp
  std::atomic<std::uint64_t> busy_us_{0};  ///< summed task execution time
};

}  // namespace anyopt
