// Deterministic parallel sweeps and a persistent bounded worker pool.
//
// Benchmarks and property sweeps evaluate many independent (instance, seed)
// cells; parallel_for fans them out over hardware threads while keeping the
// output order — and therefore every printed table — identical to a serial
// run. Work items must not share mutable state (each cell gets its own Rng
// stream via the seed discipline of the workloads module).
//
// The sweep is chunked and allocation-free on the dispatch path: the body is
// a template (no per-item std::function indirection), and workers process a
// static chunk each before draining the remainder in fixed-size dynamic
// chunks from an atomic cursor — even splits for uniform cells, work
// stealing for skewed ones.
//
// WorkerPool is the streaming counterpart: parallel_for needs the whole index
// space up front, while a pipeline consuming an unbounded input stream (the
// batch scheduler, src/batch) needs long-lived workers fed one task at a
// time with backpressure. The pool owns its threads for its whole lifetime
// and bounds the task queue: submit() blocks when the queue is full, so a
// fast producer can never buffer an entire instance stream in memory.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/align.hpp"

namespace sharedres::util {

/// Number of worker threads to use: the SHAREDRES_THREADS environment
/// variable if set (pinnable parallelism for CI runners and benches), else
/// hardware concurrency; at least 1, capped by the `max_threads` argument.
/// A set-but-invalid SHAREDRES_THREADS — zero, negative, non-numeric,
/// trailing garbage, or out of range — throws util::Error (code kCliUsage):
/// a pinned thread count that silently fell back to hardware concurrency
/// would invalidate exactly the experiments the variable exists to pin.
/// An empty value counts as unset.
[[nodiscard]] std::size_t default_threads(std::size_t max_threads = 64);

namespace detail {

/// Type-erased chunk dispatcher: invokes body(ctx, begin, end) over disjoint
/// ranges covering [0, count) across `threads` workers. Exceptions thrown by
/// the body are captured and the first one rethrown on the calling thread
/// after all workers join.
void parallel_chunks(std::size_t count,
                     void (*body)(void* ctx, std::size_t begin,
                                  std::size_t end),
                     void* ctx, std::size_t threads);

}  // namespace detail

/// Invoke fn(i) for i in [0, count) across `threads` workers (static +
/// dynamic chunk hybrid). Exceptions are captured and the first one rethrown
/// on the calling thread after all workers join.
template <class Fn>
void parallel_for(std::size_t count, Fn&& fn,
                  std::size_t threads = default_threads()) {
  using Body = std::remove_reference_t<Fn>;
  detail::parallel_chunks(
      count,
      [](void* ctx, std::size_t begin, std::size_t end) {
        Body& body = *static_cast<Body*>(ctx);
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
      threads);
}

/// Map [0, count) through fn in parallel, collecting results in index order
/// (deterministic output regardless of execution interleaving).
template <class T, class Fn>
std::vector<T> parallel_map(std::size_t count, Fn&& fn,
                            std::size_t threads = default_threads()) {
  std::vector<T> results(count);
  parallel_for(
      count, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

/// Persistent worker pool with a bounded task queue.
///
/// `threads` workers are spawned at construction and live until close() (or
/// the destructor). submit() enqueues one task and BLOCKS while the queue
/// already holds `queue_capacity` pending tasks — backpressure, not
/// unbounded buffering. Each task receives the index of the worker running
/// it (0 ≤ index < threads), so callers can maintain per-worker scratch
/// state (engines, schedules, local metric registries) without locking.
///
/// Exceptions thrown by tasks are captured; the first one is rethrown from
/// close(). After a task has thrown, the pool keeps draining remaining tasks
/// (they may be no-ops, but submit order is preserved for the ones already
/// queued) — callers that want early abort check their own flag.
class WorkerPool {
 public:
  /// Spawns `threads` ≥ 1 workers; queue_capacity ≥ 1 bounds pending tasks.
  WorkerPool(std::size_t threads, std::size_t queue_capacity);
  /// Joins workers; swallows any pending task error (call close() to see it).
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue a task; blocks while the queue is full. Throws std::logic_error
  /// if the pool is already closed.
  void submit(std::function<void(std::size_t worker)> task);

  /// Tasks currently queued but not yet picked up by a worker. A snapshot —
  /// stale by the time the caller acts on it — so only useful for gauges and
  /// coarse admission decisions, never for synchronization.
  [[nodiscard]] std::size_t pending() const;

  /// Drain the queue, join all workers, and rethrow the first task
  /// exception, if any. Idempotent.
  void close();

  /// True once close() has begun (or completed). submit() after this throws.
  [[nodiscard]] bool closed() const;

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return capacity_; }

 private:
  void worker_main(std::size_t index);

  // The queue mutex and the two condvars are the pool's only cross-thread
  // hot state; cache-line alignment keeps a producer spinning on submit()
  // from false-sharing with workers signalling not_full_ (the project
  // constant kCacheLineSize stands in for the std interference size, which
  // GCC's -Winterference-size forbids under -Werror).
  alignas(kCacheLineSize) mutable std::mutex mutex_;
  alignas(kCacheLineSize) std::condition_variable not_full_;
  alignas(kCacheLineSize) std::condition_variable not_empty_;
  std::deque<std::function<void(std::size_t)>> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace sharedres::util
