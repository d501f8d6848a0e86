// The persistent scheduling service (src/service): journal append/replay
// with torn-tail healing, exactly-one-response admission (solve, shed,
// drain-reject, admission failure), response bytes identical to the batch
// pipeline, deterministic load shedding against a gated sink, journal
// replay byte-identity, and fault injection at the service's own sites.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/pipeline.hpp"
#include "batch/stream.hpp"
#include "core/instance.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres::service {
namespace {

namespace fp = util::failpoint;

struct FailpointGuard {
  ~FailpointGuard() { fp::reset(); }
};

/// A per-test temp path, removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& stem) {
    path = testing::TempDir() + stem + "." +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Collects the lines a client sink received (thread-safe: the emitter
/// serializes writes under its own lock, but tests also read concurrently).
struct CollectingSink {
  std::vector<std::string> lines;
  std::mutex mutex;
  bool healthy = true;

  Service::WriteLine writer() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!healthy) return false;
      lines.push_back(line);
      return true;
    };
  }
  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

workloads::SosConfig config(std::uint64_t seed, std::size_t jobs = 12) {
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = jobs;
  cfg.max_size = 3;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::string> request_lines(std::size_t n, std::size_t jobs = 12) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    lines.push_back(batch::format_instance_record(
        workloads::uniform_instance(config(seed, jobs)),
        "r" + std::to_string(seed)));
  }
  return lines;
}

/// The batch pipeline's per-record output for the same lines — the bytes the
/// service must reproduce.
std::vector<std::string> batch_reference(const std::vector<std::string>& lines,
                                         std::size_t threads = 1) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  batch::BatchOptions options;
  options.threads = threads;
  (void)batch::run_batch(in, out, options);
  std::vector<std::string> result;
  std::string line;
  std::istringstream ss(out.str());
  while (std::getline(ss, line)) result.push_back(line);
  result.pop_back();  // drop the summary line
  return result;
}

// ---- journal ----------------------------------------------------------------

TEST(Journal, AppendReadRoundTripInOrder) {
  TempFile tmp("journal_roundtrip");
  {
    Journal journal(tmp.path, /*fsync_each=*/false);
    journal.append("{\"a\":1}");
    journal.append("{\"b\":2}");
    journal.append("{\"c\":3}");
    EXPECT_EQ(journal.appended(), 3u);
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.lines,
            (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}", "{\"c\":3}"}));
}

TEST(Journal, MissingFileIsAnEmptyFirstBoot) {
  const Journal::Replay replay =
      Journal::read_admitted(testing::TempDir() + "never_written.ndjson");
  EXPECT_TRUE(replay.lines.empty());
  EXPECT_FALSE(replay.torn_tail);
}

TEST(Journal, TornTailIsReportedAndNeverReplayed) {
  TempFile tmp("journal_torn");
  {
    Journal journal(tmp.path, false);
    journal.append("{\"whole\":1}");
  }
  {
    std::ofstream out(tmp.path, std::ios::app | std::ios::binary);
    out << "{\"torn";  // crash mid-append: no terminator
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.lines, (std::vector<std::string>{"{\"whole\":1}"}));
}

TEST(Journal, ReopenTruncatesTheTornTailSoAppendsStayLineAtomic) {
  TempFile tmp("journal_heal");
  {
    Journal journal(tmp.path, false);
    journal.append("{\"whole\":1}");
  }
  {
    std::ofstream out(tmp.path, std::ios::app | std::ios::binary);
    out << "{\"torn";
  }
  {
    // Reopening self-heals: the torn fragment is truncated away, so the next
    // append cannot merge into it.
    Journal journal(tmp.path, false);
    journal.append("{\"next\":2}");
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.lines,
            (std::vector<std::string>{"{\"whole\":1}", "{\"next\":2}"}));
}

TEST(Journal, UnwritableDirectoryIsATypedIoError) {
  try {
    Journal journal("/nonexistent_dir_zz/journal.ndjson", false);
    FAIL() << "expected util::Error(kIo)";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kIo);
  }
}

TEST(Journal, ConcurrentAppendsStayWholeLines) {
  // Socket mode appends from one reader thread per connection; append()
  // serializes internally, so no line may tear or interleave with another
  // (and TSan must see no race on the appended counter).
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 50;
  TempFile tmp("journal_concurrent");
  {
    Journal journal(tmp.path, /*fsync_each=*/false);
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&journal, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          journal.append("{\"t\":" + std::to_string(t) +
                         ",\"i\":" + std::to_string(i) + "}");
        }
      });
    }
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(journal.appended(), kThreads * kPerThread);
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.lines.size(), kThreads * kPerThread);
  // Every appended line must come back intact, exactly once; per-thread
  // order must be preserved (appends from one thread are sequenced).
  std::vector<std::size_t> next(kThreads, 0);
  for (const std::string& line : replay.lines) {
    const util::Json doc = util::Json::parse(line);
    const auto t = static_cast<std::size_t>(doc.at("t").as_double());
    const auto i = static_cast<std::size_t>(doc.at("i").as_double());
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(i, next[t]) << "thread " << t << "'s appends out of order";
    ++next[t];
  }
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(next[t], kPerThread);
}

// ---- service: response bytes and exactly-one-response -----------------------

TEST(ServiceResponses, UnknownAlgorithmIsRejectedAtConstruction) {
  // No record may silently run some other scheduler: the name is resolved
  // through the algorithm table before the pool starts.
  ServiceOptions options;
  options.algorithm = "bogus";
  try {
    Service service(options);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kCliUsage);
  }
}

TEST(ServiceResponses, MatchBatchPipelineBytesAtEveryThreadCount) {
  // The last 8 requests repeat the first 8, so a cached run has hits.
  std::vector<std::string> lines = request_lines(24);
  const std::vector<std::string> repeats(lines.begin(), lines.begin() + 8);
  lines.insert(lines.end(), repeats.begin(), repeats.end());
  const std::vector<std::string> reference = batch_reference(lines);
  for (const std::size_t cache_capacity : {0u, 256u}) {
    // Both front ends build one summary: the service's metrics block is
    // the one batch prints for the same stream and options.
    std::string input;
    for (const std::string& line : lines) input += line + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    batch::BatchOptions batch_options;
    batch_options.cache_capacity = cache_capacity;
    const batch::BatchSummary batch_summary =
        batch::run_batch(in, out, batch_options);
    if (cache_capacity > 0) {
      EXPECT_EQ(batch_summary.metrics.at("counters").at("cache.hits")
                    .as_double(),
                8.0);
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ServiceOptions options;
      options.threads = threads;
      options.cache_capacity = cache_capacity;
      Service service(options);
      CollectingSink sink;
      auto client = service.open_client(sink.writer());
      for (const std::string& line : lines) service.submit(client, line);
      const ServiceSummary summary = service.finish();
      EXPECT_EQ(summary.requests, lines.size()) << "threads=" << threads;
      EXPECT_EQ(summary.admitted, lines.size());
      EXPECT_EQ(summary.responses, lines.size());
      EXPECT_EQ(sink.snapshot(), reference)
          << "served bytes must equal batch output, threads=" << threads
          << " cache=" << cache_capacity;
      EXPECT_EQ(summary.metrics.dump(), batch_summary.metrics.dump())
          << "threads=" << threads << " cache=" << cache_capacity;
    }
  }
}

TEST(ServiceResponses, MalformedAndBlankLinesFollowBatchSemantics) {
  ServiceOptions options;
  options.threads = 2;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  service.submit(client, "");               // blank: skipped, no response
  service.submit(client, "   ");            // blank: skipped, no response
  service.submit(client, "not json");       // error line, index 0
  service.submit(client, request_lines(1)[0]);  // ok line, index 1
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.ok, 1u);
  EXPECT_EQ(summary.failed, 1u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].find("\"index\":0"), std::string::npos);
  EXPECT_NE(got[0].find("\"parse\""), std::string::npos);
  EXPECT_NE(got[1].find("\"index\":1"), std::string::npos);
  EXPECT_NE(got[1].find("\"ok\":true"), std::string::npos);
}

TEST(ServiceResponses, PerClientIndicesAndOrderAreIndependent) {
  const std::vector<std::string> lines = request_lines(8);
  const std::vector<std::string> ref_a =
      batch_reference({lines[0], lines[2], lines[4], lines[6]});
  const std::vector<std::string> ref_b =
      batch_reference({lines[1], lines[3], lines[5], lines[7]});
  ServiceOptions options;
  options.threads = 4;
  Service service(options);
  CollectingSink sink_a;
  CollectingSink sink_b;
  auto a = service.open_client(sink_a.writer());
  auto b = service.open_client(sink_b.writer());
  // Interleave arrivals across the two clients.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    service.submit(i % 2 == 0 ? a : b, lines[i]);
  }
  (void)service.finish();
  EXPECT_EQ(sink_a.snapshot(), ref_a)
      << "client A must see its own sub-stream, 0-indexed, in order";
  EXPECT_EQ(sink_b.snapshot(), ref_b);
}

TEST(ServiceResponses, DeadClientSinkIsContainedToThatClient) {
  const std::vector<std::string> lines = request_lines(6);
  ServiceOptions options;
  options.threads = 2;
  Service service(options);
  CollectingSink dead;
  CollectingSink alive;
  {
    const std::lock_guard<std::mutex> lock(dead.mutex);
    dead.healthy = false;  // every write fails, as with a closed socket
  }
  auto dc = service.open_client(dead.writer());
  auto ac = service.open_client(alive.writer());
  for (const std::string& line : lines) {
    service.submit(dc, line);
    service.submit(ac, line);
  }
  const ServiceSummary summary = service.finish();
  EXPECT_TRUE(dead.snapshot().empty());
  EXPECT_EQ(alive.snapshot(), batch_reference(lines))
      << "one client's dead sink must not disturb another's bytes";
  EXPECT_EQ(summary.responses, lines.size()) << "only delivered lines count";
}

// ---- shedding and drain -----------------------------------------------------

TEST(ServiceShed, QueueAtHighWaterShedsWithTypedResponse) {
  // Deterministic shedding: the single worker blocks inside the first
  // record's emit (gated sink), so queue depth is under test control.
  // The later submissions run on a helper thread — the emitter holds its
  // lock across the sink call, so the shed response (emitted synchronously
  // by the submitter) parks behind the gated worker; the main thread opens
  // the gate only once shed_count() proves the shed decision was made with
  // record 1 still queued.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool worker_in_emit = false;
  bool release_worker = false;
  std::vector<std::string> delivered;

  ServiceOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  options.shed_high_water = 1;
  Service service(options);
  auto client = service.open_client([&](const std::string& line) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    worker_in_emit = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release_worker; });
    delivered.push_back(line);
    return true;
  });

  const std::vector<std::string> lines = request_lines(3);
  service.submit(client, lines[0]);  // admitted; worker blocks in emit
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_in_emit; });
  }
  std::thread submitter([&] {
    // The worker holds record 0 (queue empty): depth 0 < 1, admitted.
    service.submit(client, lines[1]);
    // Now the queue holds record 1: depth 1 >= high water 1, shed. The
    // typed response blocks here until the gate opens.
    service.submit(client, lines[2]);
  });
  while (service.shed_count() == 0) std::this_thread::yield();
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    release_worker = true;
  }
  gate_cv.notify_all();
  submitter.join();
  const ServiceSummary summary = service.finish();

  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.admitted, 2u);
  EXPECT_EQ(summary.shed, 1u);
  ASSERT_EQ(delivered.size(), 3u) << "every request gets exactly one line";
  // The shed response is immediate (emitted while the worker was blocked,
  // queued behind index order): index 2, typed code "shed".
  const util::Json doc = util::Json::parse(delivered[2]);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "shed");
  EXPECT_EQ(doc.at("index").as_double(), 2);
}

TEST(ServiceShed, ZeroHighWaterNeverSheds) {
  // shed_high_water = 0 is the determinism configuration: admission blocks
  // (backpressure) instead of shedding, even with a tiny queue.
  const std::vector<std::string> lines = request_lines(30);
  ServiceOptions options;
  options.threads = 2;
  options.queue_capacity = 1;
  options.shed_high_water = 0;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  for (const std::string& line : lines) service.submit(client, line);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.shed, 0u);
  EXPECT_EQ(summary.admitted, lines.size());
  EXPECT_EQ(sink.snapshot(), batch_reference(lines));
}

TEST(ServiceDrain, RejectsNewWorkButFinishesAdmittedWork) {
  const std::vector<std::string> lines = request_lines(10);
  ServiceOptions options;
  options.threads = 2;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  for (std::size_t i = 0; i < 6; ++i) service.submit(client, lines[i]);
  service.begin_drain();
  EXPECT_TRUE(service.draining());
  for (std::size_t i = 6; i < 10; ++i) service.submit(client, lines[i]);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.admitted, 6u);
  EXPECT_EQ(summary.drain_rejected, 4u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 10u) << "drain-rejected requests still get a line";
  const std::vector<std::string> reference =
      batch_reference({lines.begin(), lines.begin() + 6});
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], reference[i]);
  for (std::size_t i = 6; i < 10; ++i) {
    const util::Json doc = util::Json::parse(got[i]);
    EXPECT_EQ(doc.at("error").at("code").as_string(), "shed");
    EXPECT_NE(doc.at("error").at("message").as_string().find("draining"),
              std::string::npos);
  }
}

// ---- journal + service ------------------------------------------------------

TEST(ServiceJournal, AdmittedLinesAreJournaledVerbatimShedLinesAreNot) {
  TempFile tmp("service_journal");
  const std::vector<std::string> lines = request_lines(5);
  {
    ServiceOptions options;
    options.threads = 1;
    options.journal_path = tmp.path;
    Service service(options);
    CollectingSink sink;
    auto client = service.open_client(sink.writer());
    for (std::size_t i = 0; i < 3; ++i) service.submit(client, lines[i]);
    service.begin_drain();
    service.submit(client, lines[3]);  // drain-rejected: must not journal
    (void)service.finish();
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_EQ(replay.lines,
            (std::vector<std::string>{lines[0], lines[1], lines[2]}));
}

TEST(ServiceJournal, ReplayReproducesByteIdenticalResponses) {
  TempFile tmp("service_replay");
  const std::vector<std::string> lines = request_lines(12);
  std::vector<std::string> first_life;
  {
    ServiceOptions options;
    options.threads = 2;
    options.journal_path = tmp.path;
    Service service(options);
    CollectingSink sink;
    auto client = service.open_client(sink.writer());
    for (const std::string& line : lines) service.submit(client, line);
    (void)service.finish();
    first_life = sink.snapshot();
  }
  // "Restart": read the journal back, replay through a fresh service.
  const Journal::Replay journaled = Journal::read_admitted(tmp.path);
  ASSERT_EQ(journaled.lines.size(), lines.size());
  {
    ServiceOptions options;
    options.threads = 4;  // replay determinism must hold across thread counts
    options.journal_path = tmp.path;
    Service service(options);
    CollectingSink sink;
    auto client = service.open_client(sink.writer());
    EXPECT_EQ(service.replay(client, journaled.lines), lines.size());
    const ServiceSummary summary = service.finish();
    EXPECT_EQ(summary.replayed, lines.size());
    EXPECT_EQ(sink.snapshot(), first_life)
        << "replayed responses must be byte-identical to the first life";
  }
  // Replay did not re-append: the journal still holds exactly the original
  // admitted lines.
  EXPECT_EQ(Journal::read_admitted(tmp.path).lines.size(), lines.size());
}

TEST(ServiceJournal, ConcurrentClientsJournalExactlyTheAdmittedSet) {
  // Socket mode races per-connection reader threads through admission. The
  // admission critical section must keep (a) each client's response bytes
  // identical to a solo run of its sub-stream and (b) the journal equal to
  // the admitted set — every line intact (no interleaved fragments), none
  // dropped or duplicated. Journal ORDER across clients is arrival timing
  // and deliberately unasserted.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 8;
  TempFile tmp("service_journal_concurrent");
  std::vector<std::vector<std::string>> streams;
  for (std::size_t c = 0; c < kClients; ++c) {
    streams.push_back(request_lines(kPerClient, /*jobs=*/10 + c));
  }
  ServiceOptions options;
  options.threads = 3;
  options.journal_path = tmp.path;
  Service service(options);
  std::deque<CollectingSink> sinks(kClients);
  std::vector<std::shared_ptr<Service::Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(service.open_client(sinks[c].writer()));
  }
  std::vector<std::thread> submitters;
  for (std::size_t c = 0; c < kClients; ++c) {
    submitters.emplace_back([&service, &streams, &clients, c] {
      for (const std::string& line : streams[c]) {
        service.submit(clients[c], line);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.admitted, kClients * kPerClient);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(sinks[c].snapshot(), batch_reference(streams[c]))
        << "client " << c << "'s bytes must not depend on admission races";
  }
  const Journal::Replay replay = Journal::read_admitted(tmp.path);
  EXPECT_FALSE(replay.torn_tail);
  std::multiset<std::string> journaled(replay.lines.begin(),
                                       replay.lines.end());
  std::multiset<std::string> expected;
  for (const auto& stream : streams) {
    expected.insert(stream.begin(), stream.end());
  }
  EXPECT_EQ(journaled, expected);
}

// ---- fault injection at the service sites -----------------------------------

TEST(ServiceFaults, JournalAppendFailureYieldsTypedLineAndSkipsTheSolve) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  TempFile tmp("service_journal_fault");
  const std::vector<std::string> lines = request_lines(3);
  ServiceOptions options;
  options.threads = 1;
  options.journal_path = tmp.path;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  fp::arm("service.journal_append", 2);  // the second append fails
  for (const std::string& line : lines) service.submit(client, line);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.admitted, 2u);
  EXPECT_EQ(summary.admit_errors, 1u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 3u);
  const util::Json doc = util::Json::parse(got[1]);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "injected_fault");
  // The failed admission was not journaled; records 1 and 3 were.
  EXPECT_EQ(Journal::read_admitted(tmp.path).lines,
            (std::vector<std::string>{lines[0], lines[2]}));
}

TEST(ServiceFaults, AdmitFaultIsOneTypedResponseNotACrash) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const std::vector<std::string> lines = request_lines(4);
  ServiceOptions options;
  options.threads = 2;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  fp::arm_every("service.admit", 2);  // every second admission faults
  for (const std::string& line : lines) service.submit(client, line);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.requests, 4u);
  EXPECT_EQ(summary.admitted, 2u);
  EXPECT_EQ(summary.admit_errors, 2u);
  EXPECT_EQ(sink.snapshot().size(), 4u)
      << "exactly one response per request under sustained admission faults";
}

TEST(ServiceFaults, EmitFaultDropsDeliveryButServiceSurvives) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const std::vector<std::string> lines = request_lines(5);
  ServiceOptions options;
  options.threads = 1;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  fp::arm("service.emit", 1);  // the first write "fails" like a dead socket
  for (const std::string& line : lines) service.submit(client, line);
  const ServiceSummary summary = service.finish();
  // The emitter latched on the injected write failure: nothing delivered,
  // responses not counted — but all work completed and finish() is clean.
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_EQ(summary.responses, 0u);
  EXPECT_EQ(summary.ok, lines.size());
}

// ---- deadlines through the service ------------------------------------------

TEST(ServiceDeadline, PerRequestBudgetAbortsWithoutPoisoningTheWorker) {
  // One worker: the doomed request and the healthy one share scratch, so a
  // corrupted engine state would change the second response's bytes.
  const std::string healthy = request_lines(1)[0];
  util::Json doomed = util::Json::parse(request_lines(2, /*jobs=*/150)[1]);
  doomed.emplace("deadline_steps", 2);

  ServiceOptions options;
  options.threads = 1;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  service.submit(client, doomed.dump());
  service.submit(client, healthy);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_EQ(summary.ok, 1u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NE(got[0].find("deadline_exceeded"), std::string::npos);
  // The healthy response equals a fresh, untouched run (modulo index 0 vs 1,
  // so compare from the id field on).
  const std::string fresh = batch_reference({healthy})[0];
  EXPECT_EQ(got[1].substr(got[1].find("\"id\"")),
            fresh.substr(fresh.find("\"id\"")));
}

TEST(ServiceDeadline, DefaultStepBudgetComesFromServiceOptions) {
  ServiceOptions options;
  options.threads = 1;
  options.default_deadline_steps = 1;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  service.submit(client, request_lines(1, /*jobs=*/100)[0]);
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_NE(sink.snapshot()[0].find("deadline_exceeded"), std::string::npos);
}

// ---- summary line -----------------------------------------------------------

TEST(ServiceSummaryLine, CarriesCountsAndDeterministicMetrics) {
  const std::vector<std::string> lines = request_lines(7);
  ServiceOptions options;
  options.threads = 2;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  for (const std::string& line : lines) service.submit(client, line);
  const ServiceSummary summary = service.finish();
  const util::Json doc = util::Json::parse(Service::summary_line(summary));
  EXPECT_TRUE(doc.at("summary").as_bool());
  EXPECT_TRUE(doc.at("service").as_bool());
  EXPECT_EQ(doc.at("requests").as_double(), 7);
  EXPECT_EQ(doc.at("ok").as_double(), 7);
  EXPECT_TRUE(doc.at("drained").as_bool());
  EXPECT_EQ(
      doc.at("metrics").at("counters").at("batch.records_ok").as_double(), 7);
}

TEST(ServiceCache, CachedAndUncachedServedBytesAreIdentical) {
  // The determinism check of the serve-side solve cache: the same stream —
  // duplicated so two thirds of the records are repeat instances — served
  // with and without the cache must produce byte-identical responses, at
  // every thread count, while actually hitting the cache.
  std::vector<std::string> lines = request_lines(8);
  const std::vector<std::string> once = lines;
  lines.insert(lines.end(), once.begin(), once.end());
  lines.insert(lines.end(), once.begin(), once.end());
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::string> uncached, cached;
    std::uint64_t hits = 0;
    for (const std::size_t capacity : {0u, 64u}) {
      ServiceOptions options;
      options.threads = threads;
      options.cache_capacity = capacity;
      Service service(options);
      CollectingSink sink;
      auto client = service.open_client(sink.writer());
      for (const std::string& line : lines) service.submit(client, line);
      const ServiceSummary summary = service.finish();
      EXPECT_EQ(summary.responses, lines.size());
      if (capacity == 0) {
        uncached = sink.snapshot();
      } else {
        cached = sink.snapshot();
        hits = static_cast<std::uint64_t>(summary.metrics.at("counters")
                                              .at("cache.hits")
                                              .as_double());
      }
    }
    EXPECT_EQ(cached, uncached) << "threads=" << threads;
    EXPECT_EQ(hits, 16u) << "threads=" << threads;  // 2 of every 3 records
  }
}

TEST(ServiceStatus, ProbeIsAnsweredInPlaceWithLiveCounts) {
  const std::vector<std::string> lines = request_lines(5);
  TempFile journal("status-probe");
  ServiceOptions options;
  options.threads = 2;
  options.journal_path = journal.path;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  for (const std::string& line : lines) service.submit(client, line);
  service.submit(client, R"({"status":true})");
  const ServiceSummary summary = service.finish();
  // The probe counts as a request and a response but is never admitted —
  // and never journaled (the journal holds exactly the admitted set).
  EXPECT_EQ(summary.requests, 6u);
  EXPECT_EQ(summary.admitted, 5u);
  EXPECT_EQ(summary.status_requests, 1u);
  EXPECT_EQ(summary.responses, 6u);
  EXPECT_EQ(Journal::read_admitted(options.journal_path).lines.size(), 5u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 6u);
  // Responses arrive in index order, so the probe's answer is the last line.
  const util::Json doc = util::Json::parse(got.back());
  EXPECT_TRUE(doc.at("status").as_bool());
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_FALSE(doc.at("draining").as_bool());
  EXPECT_EQ(doc.at("index").as_double(), 5);
  EXPECT_EQ(doc.at("requests").as_double(), 6);
  EXPECT_EQ(doc.at("admitted").as_double(), 5);
  EXPECT_EQ(doc.at("shed").as_double(), 0);
  EXPECT_TRUE(doc.contains("queue_depth"));
  EXPECT_TRUE(doc.contains("uptime_ms"));
  // The summary line carries the probe count.
  const util::Json sl = util::Json::parse(Service::summary_line(summary));
  EXPECT_EQ(sl.at("status_requests").as_double(), 1);
}

TEST(ServiceStatus, ProbeStillAnsweredWhileDraining) {
  ServiceOptions options;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  service.begin_drain();
  service.submit(client, request_lines(1)[0]);  // rejected: draining
  service.submit(client, R"({"status":true})");  // still answered
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.drain_rejected, 1u);
  EXPECT_EQ(summary.status_requests, 1u);
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(util::Json::parse(got[0]).at("ok").as_bool());
  const util::Json probe = util::Json::parse(got[1]);
  EXPECT_TRUE(probe.at("ok").as_bool());
  EXPECT_TRUE(probe.at("draining").as_bool());
  EXPECT_EQ(probe.at("drain_rejected").as_double(), 1);
}

TEST(ServiceStatus, NonProbeStatusShapesTakeTheNormalPath) {
  // Only a bool-true "status" is a probe; anything else flows through the
  // solver and fails like any malformed record — exactly one typed line.
  ServiceOptions options;
  Service service(options);
  CollectingSink sink;
  auto client = service.open_client(sink.writer());
  service.submit(client, R"({"status":false})");
  service.submit(client, R"({"status":"up"})");
  service.submit(client, R"({"id":"x","status":true)");  // invalid JSON
  const ServiceSummary summary = service.finish();
  EXPECT_EQ(summary.status_requests, 0u);
  EXPECT_EQ(summary.failed, 3u);
  for (const std::string& line : sink.snapshot()) {
    EXPECT_FALSE(util::Json::parse(line).at("ok").as_bool()) << line;
  }
}

}  // namespace
}  // namespace sharedres::service
