// The record pipeline under both front ends: `batch` (run_batch below) and
// the `serve` daemon (src/service). Pipeline owns everything between a
// front end's reader and its ordered emitter — resolved algorithm,
// per-record options, optional solve cache, per-worker scratch, worker pool
// and the final registry merge.
//
// run_batch() reads an NDJSON instance stream (see stream.hpp), schedules
// every record, and writes one result line per record — in input order —
// followed by exactly one summary line:
//
//   {"summary":true,"records":N,"ok":K,"failed":F,"makespan_sum":S,
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
//
// Architecture (DESIGN.md §10):
//
//   reader ──▶ Pipeline::submit ──▶ bounded WorkerPool queue ──▶ workers
//                                                                 │ parse,
//                                                                 │ solve with
//                                                                 │ reused scratch,
//                                                                 ▼ format
//                              ordered emitter (reorder buffer, flushes the
//                              contiguous prefix) ──▶ output stream / client
//
// Determinism contract: the full output byte sequence is identical across
// `threads` values (including 1) for a given input and options. Three
// mechanisms carry it: results are reordered back to input order before
// writing; every per-record counter is a commutative sum merged across the
// per-worker registries (Registry::merge_from) so the summary's metrics
// block is thread-count-invariant; and nothing thread-dependent (worker ids,
// wait counts, timings) appears in the output.
//
// Fault containment: a malformed or semantically invalid record yields a
// typed per-record error line (`"ok":false`) and the batch continues;
// run_batch throws only when the stream itself is unusable — including the
// OUTPUT stream: a sink that fails mid-batch (EPIPE, disk full) stops the
// reader from scheduling further records and surfaces as a typed
// util::Error (kIo) once in-flight work drains — or when a library
// invariant breaks (std::logic_error — a bug, not bad input).
//
// Scratch reuse: each worker owns one core::EngineScratch and one Schedule,
// rebound per record via the engines' reset() APIs, so the steady-state
// allocations per record are the parsed Instance and the per-block share
// vectors the engines move into the schedule — engine-internal buffers are
// recycled across the whole batch.
//
// Solve cache (cache_capacity > 0): submit() additionally parses and
// canonicalizes each record and acquires a cache handle on the caller's
// thread, in submission order, so every cache decision (hit/miss, eviction)
// is made before thread scheduling can vary — the cache.* counters in the
// summary metrics block are thread-count-invariant. Workers then either
// publish the canonical solve (first occurrence of a key) or wait for it
// (repeats), and each record de-canonicalizes with its own scale factor,
// keeping per-record lines byte-identical to a cache-off run. DESIGN.md §11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "batch/emitter.hpp"
#include "batch/worker.hpp"
#include "cache/solve_cache.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace sharedres::batch {

/// Everything `batch` configures: the per-record knobs plus the pool and the
/// cache around them. service::ServiceOptions extends it with the daemon's
/// own settings.
struct PipelineOptions : WorkOptions {
  /// Worker threads; see Pipeline for when <= 1 runs inline.
  std::size_t threads = 1;
  /// Bounded submit queue: submit() stalls once this many records are
  /// waiting, which caps memory no matter how large the stream is.
  std::size_t queue_capacity = 64;
  /// > 0 enables the canonical-instance solve cache (src/cache) with this
  /// many resident entries (see the file comment). 0 = off.
  std::size_t cache_capacity = 0;
};

using BatchOptions = PipelineOptions;

/// Aggregate outcome, mirrored by the emitted summary line.
struct BatchSummary {
  std::uint64_t records = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// Σ makespan over successful records (a commutative sum, so it is
  /// deterministic across thread counts).
  std::uint64_t makespan_sum = 0;
  /// The deterministic metrics section of the merged per-worker registries
  /// (obs::deterministic_json shape).
  util::Json metrics;
};

/// The one record path of both front ends. submit() must be called by one
/// thread at a time (the batch reader; the service under its admission
/// mutex): that call order is the order the cache's determinism contract is
/// defined over.
class Pipeline {
 public:
  /// Throws util::Error (kCliUsage) for an unknown algorithm. With
  /// `run_inline` and options.threads <= 1 there is no pool, no extra thread
  /// and no lock: submit() solves on the caller's thread (run_batch's
  /// single-thread path, the one the fuzz harness drives) — byte-identical
  /// to the pooled path by construction. Otherwise a WorkerPool of
  /// options.threads workers runs the records; a daemon always wants one,
  /// because it must keep accepting while a solve runs.
  Pipeline(const PipelineOptions& options, bool run_inline);
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Schedule `line` as record `index` of `emitter`'s stream; its result
  /// line is emitted there. Blocks while the pool queue is full. The task
  /// holds `emitter` until the line is emitted.
  void submit(std::size_t index, std::string line,
              std::shared_ptr<OrderedEmitter> emitter);

  /// Records queued but not yet picked up by a worker (0 without a pool).
  [[nodiscard]] std::size_t pending() const;

  /// Drain the pool and merge the per-worker registries, plus the cache.*
  /// metrics, into the summary. Rethrows the first worker std::logic_error
  /// (a library bug). Idempotent; submit() afterwards is a logic error.
  [[nodiscard]] BatchSummary finish();

 private:
  [[nodiscard]] std::string run(std::size_t index, const std::string& line,
                                CachedWork* work, std::size_t worker);

  WorkOptions work_;
  std::optional<cache::SolveCache> cache_;
  /// Deque: WorkerScratch holds a Registry (neither movable nor copyable),
  /// and worker threads hold references across emplacement of later slots.
  std::deque<WorkerScratch> scratch_;
  /// Declared last so it is destroyed (joined) before what its tasks use.
  std::optional<util::WorkerPool> pool_;
};

/// Run the whole stream; returns the summary that was also written as the
/// final output line. See the file comment for the contract.
[[nodiscard]] BatchSummary run_batch(std::istream& in, std::ostream& out,
                                     const BatchOptions& options);

}  // namespace sharedres::batch
