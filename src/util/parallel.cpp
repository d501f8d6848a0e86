#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace sharedres::util {

std::size_t default_threads(std::size_t max_threads) {
  if (const char* env = std::getenv("SHAREDRES_THREADS")) {
    const std::string value(env);
    if (!value.empty()) {
      // Strict all-digits parse with overflow check: a pinned thread count
      // that silently fell back to hardware concurrency would invalidate the
      // experiment it was meant to pin, so anything else is a typed error.
      unsigned long long v = 0;
      bool ok = true;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          ok = false;
          break;
        }
        if (v > (~0ull - static_cast<unsigned long long>(c - '0')) / 10) {
          ok = false;  // would overflow unsigned long long
          break;
        }
        v = v * 10 + static_cast<unsigned long long>(c - '0');
      }
      if (!ok || v == 0) {
        throw Error(ErrorCode::kCliUsage,
                    "SHAREDRES_THREADS must be a positive integer, got '" +
                        value + "'");
      }
      return std::min<std::size_t>(static_cast<std::size_t>(v), max_threads);
    }
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t n = hw == 0 ? 1 : hw;
  return n < max_threads ? n : max_threads;
}

// ---- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool(std::size_t threads, std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(queue_capacity, 1)) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  SHAREDRES_OBS_COUNT("pool.created");
  SHAREDRES_OBS_COUNT_N_V("pool.workers_spawned", n);
  workers_.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

WorkerPool::~WorkerPool() {
  try {
    close();
  } catch (...) {
    // Destructor swallows task errors; callers that care call close().
  }
}

void WorkerPool::submit(std::function<void(std::size_t)> task) {
  SHAREDRES_OBS_COUNT("pool.tasks_submitted");
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("WorkerPool::submit after close");
  if (queue_.size() >= capacity_) {
    // Backpressure: the producer stalls instead of buffering the stream.
    // Wait counts are scheduling-dependent, hence volatile.
    SHAREDRES_OBS_COUNT_V("pool.backpressure_waits");
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) throw std::logic_error("WorkerPool::submit after close");
  }
  queue_.push_back(std::move(task));
  lock.unlock();
  not_empty_.notify_one();
}

std::size_t WorkerPool::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool WorkerPool::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

void WorkerPool::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ && workers_.empty()) {
      if (first_error_) {
        const std::exception_ptr err = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(err);
      }
      return;
    }
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  if (first_error_) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void WorkerPool::worker_main(std::size_t index) {
  for (;;) {
    std::function<void(std::size_t)> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    try {
      SHAREDRES_FAILPOINT("pool.task");
      task(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

namespace detail {

void parallel_chunks(std::size_t count,
                     void (*body)(void* ctx, std::size_t begin,
                                  std::size_t end),
                     void* ctx, std::size_t threads) {
  if (count == 0) return;
  // Invocation/item counts are structural (deterministic across --threads);
  // worker and dispatch counts depend on the thread count, hence volatile.
  SHAREDRES_OBS_COUNT("parallel.invocations");
  SHAREDRES_OBS_COUNT_N("parallel.items", count);
  if (threads <= 1 || count == 1) {
    SHAREDRES_OBS_GAUGE_SET_V("parallel.threads_last", 1);
    body(ctx, 0, count);
    return;
  }

  const std::size_t workers = std::min(threads, count);
  SHAREDRES_OBS_GAUGE_SET_V("parallel.threads_last",
                            static_cast<std::int64_t>(workers));
  SHAREDRES_OBS_COUNT_N_V("parallel.workers_launched", workers);
  // The first half of the index space is split evenly (one static chunk per
  // worker, zero coordination); the second half is served in small dynamic
  // chunks so a worker stuck on an expensive cell doesn't serialize the tail.
  const std::size_t static_total = count / 2;
  const std::size_t chunk =
      std::max<std::size_t>(1, (count - static_total) / (workers * 8));
  std::atomic<std::size_t> cursor{static_total};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&](std::size_t t) {
    std::uint64_t dispatches = 0;
    try {
      SHAREDRES_FAILPOINT("parallel.worker");
      const std::size_t begin = static_total * t / workers;
      const std::size_t end = static_total * (t + 1) / workers;
      if (begin < end) body(ctx, begin, end);
      for (;;) {
        const std::size_t lo =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= count) {
          SHAREDRES_OBS_COUNT_N_V("parallel.dynamic_dispatches", dispatches);
          return;
        }
        ++dispatches;
        body(ctx, lo, std::min(lo + chunk, count));
      }
    } catch (...) {
      SHAREDRES_OBS_COUNT_N_V("parallel.dynamic_dispatches", dispatches);
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail
}  // namespace sharedres::util
