// The persistent scheduling service: the batch pipeline promoted to a
// long-lived daemon (DESIGN.md §13).
//
// Front ends (stdio, unix socket — socket_server.hpp) read request lines and
// call submit(); the Service owns admission control, shedding, the crash
// journal, status probes, drain and per-client ordered emission. Everything
// from an admitted line to its response — cache, pool, per-worker scratch,
// metrics merge — is the batch::Pipeline that `batch` runs too.
// One non-blank request line yields EXACTLY ONE response line on the client
// it arrived on, in that client's arrival order — an admitted request's
// solve result, or an immediate typed rejection:
//
//   admitted  → the same bytes `sharedres_cli batch` would emit for that
//               record (shared batch::Pipeline — identical by
//               construction), at the client-local index of arrival.
//   shed      → {"index":i,"ok":false,"error":{"code":"shed",...}} when the
//               worker queue is at or past ServiceOptions::shed_high_water.
//               Shedding depends on queue timing, so it is inherently
//               nondeterministic — determinism tests run with it off
//               (shed_high_water = 0 ⇒ never shed; admission applies
//               blocking backpressure instead, like batch).
//   draining  → the same typed "shed" line once begin_drain() has run:
//               drain stops ACCEPTING, it never abandons in-flight work.
//   admission failure → a typed error line (e.g. "io" when the journal
//               cannot be written: un-journaled work would be lost on crash,
//               so it must not run).
//
// Journal (ServiceOptions::journal_path): admitted lines are appended —
// verbatim, before entering the queue — to an append-only NDJSON file
// (journal.hpp). On restart, replay() re-submits the journaled lines and the
// deterministic pipeline reproduces byte-identical responses for the
// admitted prefix.
//
// Metrics: the pipeline's merged batch.* and cache.* counters form the
// summary's deterministic metrics block — the one batch prints. Service-side
// admission counts are plain fields of the summary line; the global obs
// registry additionally carries volatile service.shed / service.queue_depth
// for live inspection (volatile because shedding and queue depth are
// scheduling artifacts).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "batch/emitter.hpp"
#include "batch/pipeline.hpp"
#include "service/journal.hpp"
#include "util/json.hpp"

namespace sharedres::service {

/// The pipeline's options (batch::PipelineOptions) plus the daemon's own.
/// The service always runs its pool, even at threads = 1: a daemon must keep
/// accepting while a solve runs. The solve cache (cache_capacity > 0) is
/// shared across all client connections; the admission mutex is the
/// serialization point its determinism contract needs, so per-record
/// response bytes stay identical to a cache-off run (checked by
/// scripts/test_service_determinism.sh).
struct ServiceOptions : batch::PipelineOptions {
  /// Queue depth at which submit() sheds instead of blocking. 0 disables
  /// shedding. Clamped to queue_capacity by the Service constructor.
  std::size_t shed_high_water = 0;
  /// Append-only crash journal of admitted request lines; empty = none.
  std::string journal_path;
  /// fsync(2) after every journal append (durability over throughput).
  bool journal_fsync = false;
};

/// Totals for the final summary line the front end writes on clean drain.
struct ServiceSummary {
  std::uint64_t requests = 0;        ///< non-blank lines submitted
  std::uint64_t admitted = 0;        ///< entered the worker queue
  std::uint64_t replayed = 0;        ///< of admitted: re-run from the journal
  std::uint64_t shed = 0;            ///< rejected: queue past high water
  std::uint64_t drain_rejected = 0;  ///< rejected: arrived while draining
  std::uint64_t admit_errors = 0;    ///< rejected: journal append failed
  std::uint64_t status_requests = 0;  ///< health probes answered in place
  std::uint64_t ok = 0;              ///< admitted solves that succeeded
  std::uint64_t failed = 0;          ///< admitted solves with error lines
  std::uint64_t responses = 0;       ///< lines actually written to clients
  bool drained = false;              ///< pool closed with all work finished
  util::Json metrics;                ///< deterministic block, merged workers
};

class Service {
 public:
  /// Client sink: write one response line (no trailing '\n' — the front end
  /// owns framing). Return false when the client is gone (EPIPE, reset);
  /// the service then drops that client's remaining lines (emitter
  /// contract) without disturbing other clients.
  using WriteLine = std::function<bool(const std::string& line)>;

  /// One connected client: an ordered emitter over the client's sink plus
  /// the client-local arrival index. Created by open_client(); submit() and
  /// the worker tasks keep it alive via shared_ptr, so a client object may
  /// outlive its connection while in-flight responses drain.
  class Client {
   public:
    explicit Client(batch::OrderedEmitter::WriteLine write)
        : emitter(std::move(write)) {}
    batch::OrderedEmitter emitter;
    /// Next arrival index; touched only by the client's reader thread.
    std::size_t next_index = 0;
  };

  /// Spawns the pool and opens the journal (if configured). Throws
  /// util::Error: kCliUsage for an unknown algorithm, kIo when the journal
  /// path cannot be opened.
  explicit Service(const ServiceOptions& options);
  /// Drains via finish() if the caller did not.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Register a client sink. The returned handle is what submit() routes
  /// responses through.
  [[nodiscard]] std::shared_ptr<Client> open_client(WriteLine write);

  /// Admit or reject one request line (see file comment). Blank lines are
  /// skipped without a response, mirroring batch. A `{"status":true}` line
  /// is a health probe: it is answered immediately in place — queue depth,
  /// admission totals, shed count, uptime — without touching the journal,
  /// the cache, or the worker queue, and it is answered even while
  /// draining (a probe is how an operator watches the drain). Blocks only
  /// on queue
  /// backpressure (and never when shedding is enabled: the shed check,
  /// journal append, and enqueue run as one serialized admission step, so
  /// a request that passes the high-water check cannot find the queue full
  /// by the time it enqueues). Safe to call concurrently from multiple
  /// reader threads — one call per client at a time (the per-connection
  /// reader), any number of clients. Fail point "service.admit" injects an
  /// admission failure.
  void submit(const std::shared_ptr<Client>& client, const std::string& line);

  /// Re-admit journaled lines (Journal::read_admitted) through `client`:
  /// no shedding, no re-journaling — these lines are already admitted and
  /// already on disk. Returns the number of lines enqueued.
  std::size_t replay(const std::shared_ptr<Client>& client,
                     const std::vector<std::string>& lines);

  /// Flip to draining: every later submit() is rejected with a typed "shed"
  /// line; in-flight and queued work still completes. Safe from any thread
  /// (the signal-watcher path), idempotent.
  void begin_drain();
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Live shed count (requests rejected at the high-water mark so far).
  /// Monotonic and safe from any thread — ops introspection while the
  /// daemon runs; the final value is ServiceSummary::shed.
  [[nodiscard]] std::uint64_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Drain the pool and build the summary. Rethrows a worker
  /// std::logic_error (a library bug — nothing a request can cause).
  /// Idempotent; submit() after finish() is a logic error.
  ServiceSummary finish();

  /// The summary line the front end writes as its final output:
  /// {"summary":true,"service":true,"requests":..,...,"metrics":{...}}.
  [[nodiscard]] static std::string summary_line(const ServiceSummary& s);

 private:
  void enqueue(const std::shared_ptr<Client>& client, std::size_t index,
               std::string line);
  void reject(const std::shared_ptr<Client>& client, std::size_t index,
              const std::string& code, const std::string& message);
  /// True iff `line` is a status probe; if so, emits the status response at
  /// `index` on the client.
  bool answer_status(const std::shared_ptr<Client>& client, std::size_t index,
                     const std::string& line);

  ServiceOptions options_;
  batch::Pipeline pipeline_;
  std::optional<Journal> journal_;
  std::uint64_t start_ns_ = 0;  ///< steady-clock birth time for uptime_ms
  /// Serializes admission (shed check → journal append → enqueue) across
  /// clients: keeps the shed decision atomic with the enqueue, and the
  /// journal exactly equal to the admitted prefix. Rejection emission and
  /// the worker side never take it.
  std::mutex admission_mutex_;
  std::atomic<bool> draining_{false};
  bool finished_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> replayed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> drain_rejected_{0};
  std::atomic<std::uint64_t> admit_errors_{0};
  std::atomic<std::uint64_t> status_requests_{0};
  std::atomic<std::uint64_t> responses_{0};
};

}  // namespace sharedres::service
