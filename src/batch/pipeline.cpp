#include "batch/pipeline.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "algorithms/table.hpp"
#include "batch/stream.hpp"
#include "obs/json_export.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace sharedres::batch {

Pipeline::Pipeline(const PipelineOptions& options, bool run_inline)
    : work_(options) {
  (void)algorithms::require(work_.algorithm);
  if (options.cache_capacity > 0) {
    cache_.emplace(
        cache::SolveCache::Config{.capacity = options.cache_capacity});
  }
  if (run_inline && options.threads <= 1) {
    scratch_.emplace_back();
    return;
  }
  pool_.emplace(options.threads, options.queue_capacity);
  for (std::size_t w = 0; w < pool_->threads(); ++w) scratch_.emplace_back();
}

std::string Pipeline::run(std::size_t index, const std::string& line,
                          CachedWork* work, std::size_t worker) {
  WorkerScratch& scratch = scratch_[worker];
  return work != nullptr ? process_cached(*work, index, work_, scratch)
                         : process_record(line, index, work_, scratch);
}

void Pipeline::submit(std::size_t index, std::string line,
                      std::shared_ptr<OrderedEmitter> emitter) {
  // Parse + canonicalize + acquire here, in submission order — the
  // serialization point the cache's determinism contract needs (see
  // solve_cache.hpp and prepare_cached in worker.hpp). A line that cannot be
  // prepared runs uncached and yields the identical error record.
  std::optional<CachedWork> work;
  if (cache_) work = prepare_cached(line, *cache_);
  if (!pool_) {
    emitter->emit(index, run(index, line, work ? &*work : nullptr, 0));
    return;
  }
  // shared_ptr because std::function requires a copyable callable and
  // CachedWork (the cache handle) is move-only. FIFO submission order keeps
  // the no-deadlock guarantee: a key's producer task is always queued
  // before its waiters.
  std::shared_ptr<CachedWork> shared;
  if (work) shared = std::make_shared<CachedWork>(std::move(*work));
  pool_->submit([this, index, record = std::move(line),
                 shared = std::move(shared),
                 emitter = std::move(emitter)](std::size_t w) {
    emitter->emit(index, run(index, record, shared.get(), w));
  });
}

std::size_t Pipeline::pending() const {
  return pool_ ? pool_->pending() : 0;
}

BatchSummary Pipeline::finish() {
  if (pool_) pool_->close();  // drain; rethrows the first worker logic_error

  // Worker-order merge of the per-worker registries. The counters are
  // commutative sums over the record set, so the merged totals — and with
  // them the summary — are invariant under thread count and schedule.
  obs::Registry merged(/*ring_capacity=*/1);
  for (const WorkerScratch& s : scratch_) merged.merge_from(s.metrics);
  // Cache decisions were serialized in submit(), so these metrics are as
  // thread-count-invariant as the worker counter sums above.
  if (cache_) cache_->export_metrics(merged);

  BatchSummary summary;
  summary.records = merged.counter("batch.records").value();
  summary.ok = merged.counter("batch.records_ok").value();
  summary.failed = merged.counter("batch.records_failed").value();
  summary.makespan_sum = merged.counter("batch.makespan_sum").value();
  summary.metrics = obs::deterministic_json(merged);
  return summary;
}

BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options) {
  Pipeline pipeline(options, /*run_inline=*/true);
  const auto emitter = std::make_shared<OrderedEmitter>(out);
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    if (blank_line(line)) continue;
    // A dead sink (EPIPE, disk full) stops the batch: solving records whose
    // results can never be delivered is wasted work. Records already queued
    // still run (their emits are dropped by the failed emitter).
    if (emitter->failed()) break;
    pipeline.submit(index++, std::move(line), emitter);
  }
  const BatchSummary summary = pipeline.finish();
  if (emitter->failed()) {
    // Typed: callers (the CLI's exit-code contract) treat a broken output
    // stream as an IO failure, not as a silent short batch.
    throw util::Error::io(
        "batch: output stream failed (broken pipe or disk full); wrote " +
        std::to_string(emitter->written()) + " result lines before failing");
  }
  if (!emitter->drained()) {
    throw std::logic_error("batch: emitter left lines behind");
  }

  util::Json doc{util::Json::Object{}};
  doc.emplace("summary", true);
  doc.emplace("records", summary.records);
  doc.emplace("ok", summary.ok);
  doc.emplace("failed", summary.failed);
  doc.emplace("makespan_sum", summary.makespan_sum);
  doc.emplace("metrics", summary.metrics);
  out << doc.dump() << '\n';
  if (!out) {
    throw util::Error::io("batch: output stream failed writing the summary");
  }
  return summary;
}

}  // namespace sharedres::batch
