// The batch pipeline (src/batch): NDJSON record round trips and typed parse
// errors, pipeline output equal to one-shot solves and byte-identical across
// thread counts, mid-stream fault containment, and the engine/Schedule
// reset-reuse API the pipeline's scratch recycling is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/table.hpp"
#include "baselines/baselines.hpp"
#include "batch/pipeline.hpp"
#include "batch/stream.hpp"
#include "batch/worker.hpp"
#include "cache/canonical.hpp"
#include "core/algorithm.hpp"
#include "core/improved_scheduler.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_scheduler.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_engine.hpp"
#include "core/unit_prefix_engine.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres::batch {
namespace {

core::Instance make(int machines, core::Res capacity,
                    std::vector<core::Job> jobs) {
  return core::Instance(machines, capacity, std::move(jobs));
}

workloads::SosConfig config(std::uint64_t seed, std::size_t jobs = 12,
                            core::Res max_size = 3) {
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = jobs;
  cfg.max_size = max_size;
  cfg.seed = seed;
  return cfg;
}

/// Run the pipeline over `lines`, returning (full output text, summary).
std::pair<std::string, BatchSummary> run(const std::vector<std::string>& lines,
                                         const BatchOptions& options) {
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  BatchSummary summary = run_batch(in, out, options);
  return {out.str(), std::move(summary)};
}

std::vector<std::string> output_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

// ---- stream records --------------------------------------------------------

TEST(BatchStream, InstanceRecordRoundTripsInOriginalOrder) {
  const core::Instance inst =
      make(3, 50, {{2, 40}, {1, 5}, {4, 17}});  // deliberately unsorted
  const std::string line = format_instance_record(inst, "case-7");

  const InstanceRecord parsed = parse_instance_record(line);
  EXPECT_EQ(parsed.id, "case-7");
  EXPECT_EQ(parsed.instance.machines(), 3);
  EXPECT_EQ(parsed.instance.capacity(), 50);
  ASSERT_EQ(parsed.instance.size(), 3u);
  // format emits the caller's original order, so a second format must be
  // byte-identical (stable fixed point).
  EXPECT_EQ(format_instance_record(parsed.instance, parsed.id), line);
}

TEST(BatchStream, ParseRejectsMalformedLinesWithTypedErrors) {
  const std::vector<std::string> parse_errors = {
      "",                                             // empty
      "not json",                                     // not JSON
      "[1,2]",                                        // not an object
      R"({"capacity":5,"jobs":[]})",                  // missing machines
      R"({"machines":"two","capacity":5,"jobs":[]})", // machines not a number
      R"({"machines":2.5,"capacity":5,"jobs":[]})",   // non-integral
      R"({"machines":2,"capacity":5,"jobs":{}})",     // jobs not an array
      R"({"machines":2,"capacity":5,"jobs":[[1]]})",  // pair too short
      R"({"machines":2,"capacity":5,"jobs":[[1,2,3]]})",  // pair too long
      R"({"id":7,"machines":2,"capacity":5,"jobs":[]})",  // id not a string
  };
  for (const std::string& line : parse_errors) {
    try {
      (void)parse_instance_record(line);
      FAIL() << "accepted: " << line;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kParse) << line;
    }
  }
  // Well-formed JSON with invalid semantics surfaces Instance's own typed
  // error, not a parse error.
  try {
    (void)parse_instance_record(R"({"machines":0,"capacity":5,"jobs":[]})");
    FAIL() << "accepted machines=0";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
  }
}

TEST(BatchStream, ResultRecordFormatsOkAndErrorShapes) {
  ResultRecord ok;
  ok.index = 3;
  ok.id = "a";
  ok.ok = true;
  ok.algorithm = "window";
  ok.machines = 4;
  ok.jobs = 2;
  ok.makespan = 9;
  ok.lower_bound = 7;
  ok.blocks = 5;
  const util::Json ok_doc = util::Json::parse(format_result_record(ok));
  EXPECT_EQ(ok_doc.at("index").as_double(), 3);
  EXPECT_EQ(ok_doc.at("id").as_string(), "a");
  EXPECT_TRUE(ok_doc.at("ok").as_bool());
  EXPECT_EQ(ok_doc.at("makespan").as_double(), 9);
  EXPECT_FALSE(ok_doc.contains("error"));
  EXPECT_FALSE(ok_doc.contains("schedule"));  // only with schedule_text set

  ResultRecord bad;
  bad.index = 4;
  bad.ok = false;
  bad.error_code = "parse";
  bad.error_message = "boom";
  const util::Json bad_doc = util::Json::parse(format_result_record(bad));
  EXPECT_FALSE(bad_doc.at("ok").as_bool());
  EXPECT_EQ(bad_doc.at("error").at("code").as_string(), "parse");
  EXPECT_EQ(bad_doc.at("error").at("message").as_string(), "boom");
  EXPECT_FALSE(bad_doc.contains("makespan"));

  // Byte equality with the line a util::Json DOM dumps for the same fields,
  // on escape-heavy strings, a schedule text and a makespan no double holds.
  const std::string nasty = "q\"b\\n\nt\tc\x01\x1fu\u00e9\u2192";
  const auto reference = [](const ResultRecord& r) {
    util::Json doc{util::Json::Object{}};
    doc.emplace("index", static_cast<std::uint64_t>(r.index));
    if (!r.id.empty()) doc.emplace("id", r.id);
    doc.emplace("ok", r.ok);
    if (r.ok) {
      doc.emplace("algorithm", r.algorithm);
      doc.emplace("machines", r.machines);
      doc.emplace("jobs", static_cast<std::uint64_t>(r.jobs));
      doc.emplace("makespan", r.makespan);
      doc.emplace("lower_bound", r.lower_bound);
      doc.emplace("blocks", static_cast<std::uint64_t>(r.blocks));
      if (!r.schedule_text.empty()) doc.emplace("schedule", r.schedule_text);
    } else {
      util::Json error{util::Json::Object{}};
      error.emplace("code", r.error_code);
      error.emplace("message", r.error_message);
      doc.emplace("error", std::move(error));
    }
    return doc.dump();
  };
  EXPECT_EQ(format_result_record(ok), reference(ok));
  EXPECT_EQ(format_result_record(bad), reference(bad));
  ok.id = nasty;
  ok.makespan = (std::int64_t{1} << 53) + 1;
  ok.lower_bound = std::int64_t{1} << 53;
  ok.schedule_text = "# sharedres schedule v1\nblocks 1\nblock " +
                     std::to_string(ok.makespan) + " 1 0:1\n";
  const std::string ok_line = format_result_record(ok);
  EXPECT_EQ(ok_line, reference(ok));
  EXPECT_NE(ok_line.find(R"("makespan":9007199254740993,)"
                         R"("lower_bound":9007199254740992,)"),
            std::string::npos)
      << ok_line;
  EXPECT_NE(ok_line.find(R"("id":"q\"b\\n\nt\tc\u0001\u001fu)"),
            std::string::npos)
      << ok_line;
  EXPECT_EQ(util::Json::parse(ok_line).at("schedule").as_string(),
            ok.schedule_text);
  bad.id = nasty;
  bad.error_message = nasty + " at \"x\"";
  const std::string bad_line = format_result_record(bad);
  EXPECT_EQ(bad_line, reference(bad));
  const util::Json bad_back = util::Json::parse(bad_line);
  EXPECT_EQ(bad_back.at("id").as_string(), nasty);
  EXPECT_EQ(bad_back.at("error").at("message").as_string(),
            bad.error_message);
}

// ---- pipeline --------------------------------------------------------------

TEST(BatchPipeline, MatchesOneShotSolvesAndCountsSummary) {
  std::vector<core::Instance> instances;
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(workloads::uniform_instance(config(seed)));
    lines.push_back(format_instance_record(instances.back(),
                                           "s" + std::to_string(seed)));
  }
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 6u);
  EXPECT_EQ(summary.ok, 6u);
  EXPECT_EQ(summary.failed, 0u);

  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 7u);  // 6 results + summary
  std::uint64_t makespan_sum = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const util::Json doc = util::Json::parse(out[i]);
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("index").as_double(), static_cast<double>(i));
    const core::Schedule solo = core::schedule_sos(instances[i]);
    EXPECT_EQ(doc.at("makespan").as_double(),
              static_cast<double>(solo.makespan()));
    EXPECT_EQ(doc.at("lower_bound").as_double(),
              static_cast<double>(core::lower_bounds(instances[i]).combined()));
    EXPECT_EQ(doc.at("blocks").as_double(),
              static_cast<double>(solo.blocks().size()));
    makespan_sum += static_cast<std::uint64_t>(solo.makespan());
  }
  EXPECT_EQ(summary.makespan_sum, makespan_sum);
  const util::Json sum_doc = util::Json::parse(out.back());
  EXPECT_TRUE(sum_doc.at("summary").as_bool());
  EXPECT_EQ(sum_doc.at("records").as_double(), 6);
  EXPECT_EQ(
      sum_doc.at("metrics").at("counters").at("batch.records_ok").as_double(),
      6);
}

/// A d = 2 instance every rigid row accepts (r_{j,k} ≤ C_k on both axes).
core::Instance two_resource_instance() {
  workloads::MultiResConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = 12;
  cfg.max_size = 3;
  cfg.seed = 13;
  return workloads::correlated_multires_instance(cfg);
}

/// The result line of `inst` through `algorithm` — the pipeline's own
/// per-record path — parsed back.
util::Json solve_line(const core::Instance& inst, std::string_view algorithm,
                      std::size_t index, WorkerScratch& scratch) {
  WorkOptions options;
  options.algorithm = algorithm;
  options.emit_schedules = true;
  return util::Json::parse(process_record(format_instance_record(inst), index,
                                          options, scratch));
}

TEST(BatchPipeline, EveryAlgorithmMatchesItsOneShotEntryPoint) {
  // Each row's one-shot entry point, written out here rather than read from
  // the table so the test compares two dispatch paths instead of one.
  using OneShot = core::Schedule (*)(const core::Instance&);
  const std::map<std::string_view, OneShot> one_shot = {
      {"window", [](const core::Instance& i) { return core::schedule_sos(i); }},
      {"unit",
       [](const core::Instance& i) { return core::schedule_sos_unit(i); }},
      {"improved",
       [](const core::Instance& i) { return core::schedule_improved(i); }},
      {"gg",
       [](const core::Instance& i) {
         return baselines::schedule_garey_graham(i);
       }},
      {"equalsplit",
       [](const core::Instance& i) {
         return baselines::schedule_equal_split(i);
       }},
      {"sequential",
       [](const core::Instance& i) {
         return baselines::schedule_sequential(i);
       }},
      {"multires",
       [](const core::Instance& i) { return core::schedule_multires(i); }},
  };
  // The huge-m records: an engine that sized its buffers by m instead of n
  // would die of std::bad_alloc instead of answering.
  constexpr int kHugeMachines = 2147483647;
  const std::vector<core::Instance> instances = {
      workloads::uniform_instance(config(11)),
      workloads::uniform_instance(config(12, 10, /*max_size=*/1)),
      two_resource_instance(),
      make(kHugeMachines, 10, {{1, 3}, {1, 4}}),
      core::Instance(kHugeMachines, {10, 4},
                     {core::MultiJob{1, {3, 2}}, core::MultiJob{2, {4, 1}}}),
  };
  WorkerScratch scratch;  // one scratch across every row and record
  std::size_t index = 0;
  for (const core::Algorithm* row : algorithms::all()) {
    const auto entry = one_shot.find(row->name);
    ASSERT_NE(entry, one_shot.end()) << row->name;
    for (const core::Instance& inst : instances) {
      const util::Json doc = solve_line(inst, row->name, index++, scratch);
      const bool accepted =
          (!row->unit_only || inst.unit_size()) &&
          (row->multi_resource || inst.resource_count() == 1);
      if (!accepted) {
        EXPECT_EQ(doc.at("error").at("code").as_string(), "invalid_instance")
            << row->name;
        continue;
      }
      ASSERT_TRUE(doc.at("ok").as_bool()) << row->name << ": " << doc.dump();
      std::ostringstream expected;
      io::write_schedule(expected, entry->second(inst));
      EXPECT_EQ(doc.at("schedule").as_string(), expected.str()) << row->name;
    }
  }
}

TEST(BatchPipeline, EveryAlgorithmFailsARejectedRecordTypedAndGoesOn) {
  // Rows that schedule one resource reject any d = 2 record; the rigid
  // d-resource rows reject one whose job overflows a secondary axis.
  const core::Instance fits = two_resource_instance();
  const core::Instance oversized(4, {10, 4}, {core::MultiJob{2, {3, 5}}});
  for (const core::Algorithm* row : algorithms::all()) {
    const core::Instance valid = workloads::uniform_instance(
        config(21, 10, row->unit_only ? 1 : 3));
    const std::vector<std::string> lines = {
        format_instance_record(row->multi_resource ? oversized : fits),
        format_instance_record(valid),
    };
    BatchOptions options;
    options.algorithm = row->name;
    const auto [text, summary] = run(lines, options);
    EXPECT_EQ(summary.ok, 1u) << row->name;
    EXPECT_EQ(summary.failed, 1u) << row->name;
    const std::vector<std::string> out = output_lines(text);
    ASSERT_EQ(out.size(), 3u) << row->name;
    const util::Json failed = util::Json::parse(out[0]);
    EXPECT_FALSE(failed.at("ok").as_bool()) << row->name;
    EXPECT_EQ(failed.at("error").at("code").as_string(), "invalid_instance")
        << row->name;
    WorkerScratch scratch;
    WorkOptions work;
    work.algorithm = row->name;
    EXPECT_EQ(out[1], process_record(lines[1], 1, work, scratch)) << row->name;
  }
}

TEST(BatchPipeline, OutputByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), "s" + std::to_string(seed)));
    if (seed % 7 == 0) lines.push_back("mid-stream garbage");
  }
  BatchOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  const auto [reference, ref_summary] = run(lines, options);
  EXPECT_EQ(ref_summary.failed, 2u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    options.threads = threads;
    const auto [text, summary] = run(lines, options);
    EXPECT_EQ(text, reference) << "threads=" << threads;
    EXPECT_EQ(summary.metrics, ref_summary.metrics) << "threads=" << threads;
  }
}

TEST(BatchPipeline, MalformedRecordMidStreamDoesNotAbortTheBatch) {
  const std::vector<std::string> lines = {
      format_instance_record(workloads::uniform_instance(config(1)), "first"),
      R"({"machines":2,"capacity":0,"jobs":[]})",  // invalid capacity
      format_instance_record(workloads::uniform_instance(config(2)), "last"),
  };
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 3u);
  EXPECT_EQ(summary.ok, 2u);
  EXPECT_EQ(summary.failed, 1u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(util::Json::parse(out[0]).at("ok").as_bool());
  const util::Json error_doc = util::Json::parse(out[1]);
  EXPECT_FALSE(error_doc.at("ok").as_bool());
  EXPECT_EQ(error_doc.at("error").at("code").as_string(), "invalid_instance");
  EXPECT_TRUE(util::Json::parse(out[2]).at("ok").as_bool());
  EXPECT_EQ(util::Json::parse(out[2]).at("id").as_string(), "last");
}

TEST(BatchPipeline, EmitSchedulesEmbedsTheOneShotScheduleText) {
  const core::Instance inst = workloads::uniform_instance(config(5));
  BatchOptions options;
  options.emit_schedules = true;
  const auto [text, summary] = run({format_instance_record(inst)}, options);
  EXPECT_EQ(summary.ok, 1u);

  std::ostringstream expected;
  io::write_schedule(expected, core::schedule_sos(inst));
  const util::Json doc = util::Json::parse(output_lines(text)[0]);
  EXPECT_EQ(doc.at("schedule").as_string(), expected.str());
}

TEST(BatchPipeline, MakespansAboveTwoToThe53PrintExactly) {
  // Sizes up to 2^53 parse and Instance totals are checked int64, so both
  // records are valid; their makespans and the sum are not doubles.
  const std::vector<std::string> lines = {
      R"({"machines":2,"capacity":1,"jobs":[[9000000000000001,1],)"
      R"([9000000000000000,1]]})",
      R"({"machines":2,"capacity":1,"jobs":[[9007199254740992,1],[2,1]]})"};
  for (const std::size_t cache : {std::size_t{0}, std::size_t{4}}) {
    BatchOptions options;
    options.emit_schedules = true;
    options.cache_capacity = cache;
    const auto [text, summary] = run(lines, options);
    const std::vector<std::string> out = output_lines(text);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find(R"("makespan":18000000000000001,)"
                          R"("lower_bound":18000000000000001,)"),
              std::string::npos)
        << out[0];
    EXPECT_NE(out[1].find(R"("makespan":9007199254740994,)"),
              std::string::npos)
        << out[1];
    EXPECT_EQ(summary.makespan_sum, 27007199254740995u);
    EXPECT_NE(out[2].find(R"("makespan_sum":27007199254740995,)"),
              std::string::npos)
        << out[2];
    EXPECT_NE(out[2].find(R"("batch.makespan_sum":27007199254740995)"),
              std::string::npos)
        << out[2];
  }
}

TEST(BatchPipeline, SkipsBlankLinesWithoutConsumingIndices) {
  const std::vector<std::string> lines = {
      "",
      format_instance_record(workloads::uniform_instance(config(1))),
      "   \t",
      format_instance_record(workloads::uniform_instance(config(2))),
  };
  const auto [text, summary] = run(lines, BatchOptions{});
  EXPECT_EQ(summary.records, 2u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(util::Json::parse(out[1]).at("index").as_double(), 1);
}

TEST(BatchPipeline, RejectsUnknownAlgorithmBeforeReadingTheStream) {
  BatchOptions options;
  options.algorithm = "nope";
  std::istringstream in("not even json\n");
  std::ostringstream out;
  try {
    (void)run_batch(in, out, options);
    FAIL() << "unknown algorithm accepted";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kCliUsage);
  }
  EXPECT_TRUE(out.str().empty());
}

TEST(BatchPipeline, EmptyStreamYieldsOnlyASummaryLine) {
  const auto [text, summary] = run({}, BatchOptions{});
  EXPECT_EQ(summary.records, 0u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 1u);
  const util::Json doc = util::Json::parse(out[0]);
  EXPECT_TRUE(doc.at("summary").as_bool());
  EXPECT_EQ(doc.at("records").as_double(), 0);
}

// ---- reset-reuse API -------------------------------------------------------

TEST(BatchReset, SosEngineResetMatchesFreshEngineAcrossInstances) {
  // One engine reused across instances of very different shapes must emit
  // exactly the schedule a fresh engine would — including after shrinking.
  const std::vector<core::Instance> instances = {
      workloads::uniform_instance(config(1, 40)),
      workloads::uniform_instance(config(2, 3)),
      workloads::uniform_instance(config(3, 25)),
      make(3, 10, {{1, 10}, {1, 10}, {1, 10}}),
  };
  std::optional<core::SosEngine> reused;
  core::Schedule reused_out;
  for (const core::Instance& inst : instances) {
    const core::SosEngine::Params params{
        .window_cap = static_cast<std::size_t>(inst.machines() - 1),
        .budget = inst.capacity(),
        .allow_extra_job = true,
    };
    if (reused) {
      reused->reset(inst, params);
    } else {
      reused.emplace(inst, params);
    }
    reused_out.reset();
    reused->run(reused_out);

    core::SosEngine fresh(inst, params);
    core::Schedule fresh_out;
    fresh.run(fresh_out);
    EXPECT_EQ(reused_out, fresh_out);
    EXPECT_TRUE(core::validate(inst, reused_out).ok);
  }
}

TEST(BatchReset, UnitEngineResetMatchesFreshEngineAcrossInstances) {
  const std::vector<core::Instance> instances = {
      workloads::uniform_instance(config(7, 30, 1)),
      workloads::uniform_instance(config(8, 4, 1)),
      workloads::uniform_instance(config(9, 18, 1)),
  };
  std::optional<core::UnitEngine> reused;
  core::Schedule reused_out;
  for (const core::Instance& inst : instances) {
    if (reused) {
      reused->reset(inst);
    } else {
      reused.emplace(inst);
    }
    reused_out.reset();
    reused->run(reused_out);

    core::UnitEngine fresh(inst);
    core::Schedule fresh_out;
    fresh.run(fresh_out);
    EXPECT_EQ(reused_out, fresh_out);
    EXPECT_TRUE(core::validate(inst, reused_out).ok);
  }

  // The unit row through one EngineScratch, alternating walk records with
  // prefix-regime ones (a heavy first m-window, or n ≤ m).
  const std::vector<core::Instance> alternating = {
      instances[0],
      workloads::uniform_instance(config(10, 40, 1), 0.3, 0.6),
      instances[2],
      instances[1],
  };
  core::EngineScratch scratch;
  for (std::size_t i = 0; i < alternating.size(); ++i) {
    const core::Instance& inst = alternating[i];
    EXPECT_EQ(core::UnitPrefixEngine::applies(inst), i % 2 == 1);
    core::solve(core::kUnitAlgorithm, inst, scratch, reused_out);
    core::UnitEngine fresh(inst);
    core::Schedule fresh_out;
    fresh.run(fresh_out);
    EXPECT_EQ(reused_out, fresh_out);
  }
}

TEST(BatchReset, ScheduleResetClearsContentAndKeepsBlockCapacity) {
  core::Schedule schedule;
  for (int i = 0; i < 16; ++i) {
    schedule.append(1, {{static_cast<core::JobId>(i), 1 + i}});
  }
  const std::size_t capacity_before = schedule.blocks().capacity();
  ASSERT_GT(schedule.makespan(), 0);

  schedule.reset();
  EXPECT_TRUE(schedule.empty());
  EXPECT_EQ(schedule.makespan(), 0);
  EXPECT_EQ(schedule.blocks().capacity(), capacity_before);
}

// ---- solve cache differentials ---------------------------------------------

/// `inst` with all requirements and the capacity multiplied by c, formatted
/// as an NDJSON record — a different byte string (and id) with the same
/// canonical key as `inst`.
std::string scaled_record(const core::Instance& inst, core::Res c,
                          const std::string& id) {
  std::vector<core::Job> jobs;
  for (std::size_t j = 0; j < inst.size(); ++j) {
    // Reconstruct the caller's original order so the scaled record is not
    // also a permutation (scaling alone must collide).
    jobs.emplace_back();
  }
  for (core::JobId j = 0; j < inst.size(); ++j) {
    jobs[inst.original_id(j)] =
        core::Job{inst.job(j).size, inst.job(j).requirement * c};
  }
  return format_instance_record(
      core::Instance(inst.machines(), inst.capacity() * c, std::move(jobs)),
      id);
}

/// A duplicate-heavy stream: `unique` generated instances, each followed by
/// scaled twins — the canonical-collision traffic the cache exists for.
std::vector<std::string> collision_stream(std::size_t unique) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < unique; ++i) {
    const core::Instance inst =
        workloads::uniform_instance(config(300 + i, /*jobs=*/10));
    lines.push_back(format_instance_record(inst, "u" + std::to_string(i)));
    lines.push_back(scaled_record(inst, 3, "x3-" + std::to_string(i)));
    lines.push_back(scaled_record(inst, 7, "x7-" + std::to_string(i)));
  }
  return lines;
}

/// Per-record lines only (everything but the trailing summary line).
std::vector<std::string> record_lines(const std::string& text) {
  std::vector<std::string> lines = output_lines(text);
  if (!lines.empty()) lines.pop_back();
  return lines;
}

double summary_counter(const std::string& text, const std::string& name) {
  const std::vector<std::string> lines = output_lines(text);
  const util::Json doc = util::Json::parse(lines.back());
  return doc.at("metrics").at("counters").at(name).as_double();
}

TEST(BatchCache, PerRecordOutputMatchesCacheOffAcrossThreadCounts) {
  const std::vector<std::string> lines = collision_stream(6);

  BatchOptions off;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 64;
  std::string first_cached;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const std::string cached = run(lines, on).first;
    // Per-record lines: byte-identical to the cache-off run.
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    // Whole output (including the summary's cache.* metrics): byte-identical
    // across thread counts.
    if (first_cached.empty()) {
      first_cached = cached;
    } else {
      EXPECT_EQ(cached, first_cached) << "threads=" << threads;
    }
  }
  // 6 unique keys, 18 records: 12 hits, 12 fewer solves than records.
  EXPECT_EQ(summary_counter(first_cached, "cache.misses"), 6.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.hits"), 12.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.evictions"), 0.0);
}

TEST(BatchCache, EmitSchedulesStaysByteIdenticalUnderCaching) {
  // The hardest identity: embedded schedule text must survive the canonical
  // round trip (solve the reduced twin, multiply shares back per record).
  const std::vector<std::string> lines = collision_stream(4);
  BatchOptions off;
  off.emit_schedules = true;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 64;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    EXPECT_EQ(record_lines(run(lines, on).first), record_lines(reference))
        << "threads=" << threads;
  }
}

TEST(BatchCache, EvictionThrashAtCapacityTwoKeepsDeterminism) {
  // More unique keys than capacity, visited twice in a cycle long enough
  // that the second visit misses again: constant eviction churn. The
  // counters — and the whole output — must still be identical across
  // SHAREDRES_THREADS, because every eviction decision happens on the
  // reader.
  std::vector<std::string> lines;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const core::Instance inst =
          workloads::uniform_instance(config(500 + i, /*jobs=*/8));
      lines.push_back(format_instance_record(
          inst, "r" + std::to_string(round) + "-" + std::to_string(i)));
    }
  }

  BatchOptions off;
  const std::string reference = run(lines, off).first;

  BatchOptions on = off;
  on.cache_capacity = 2;
  std::string first_cached;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const std::string cached = run(lines, on).first;
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    if (first_cached.empty()) {
      first_cached = cached;
    } else {
      EXPECT_EQ(cached, first_cached) << "threads=" << threads;
    }
  }
  // 8 distinct keys through a 2-entry cache, twice: every acquire misses
  // and all but the 2 resident entries were evicted.
  EXPECT_EQ(summary_counter(first_cached, "cache.misses"), 16.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.hits"), 0.0);
  EXPECT_EQ(summary_counter(first_cached, "cache.evictions"), 14.0);
}

TEST(BatchCache, FailingRecordsMatchCacheOffIncludingDuplicates) {
  // A parse error (never reaches the cache), an invalid instance the solver
  // rejects (producer abandons), and a duplicate of the rejected record (hit
  // on the abandoned entry → local solve → identical error line).
  const core::Instance bad_m =
      make(1, 50, {{2, 10}, {1, 5}});  // window needs m >= 2
  std::vector<std::string> lines = {
      format_instance_record(make(3, 60, {{2, 30}, {1, 12}}), "good"),
      "{malformed",
      format_instance_record(bad_m, "bad-m"),
      format_instance_record(bad_m, "bad-m-again"),
      format_instance_record(make(3, 60, {{1, 12}, {2, 30}}), "good-perm"),
  };

  BatchOptions off;
  const auto [reference, off_summary] = run(lines, off);

  BatchOptions on = off;
  on.cache_capacity = 16;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    on.threads = threads;
    const auto [cached, summary] = run(lines, on);
    EXPECT_EQ(record_lines(cached), record_lines(reference))
        << "threads=" << threads;
    EXPECT_EQ(summary.failed, off_summary.failed);
    EXPECT_EQ(summary.ok, off_summary.ok);
    // bad-m missed (then abandoned); bad-m-again and good-perm hit.
    EXPECT_EQ(summary_counter(cached, "cache.misses"), 2.0);
    EXPECT_EQ(summary_counter(cached, "cache.hits"), 2.0);
    EXPECT_EQ(summary_counter(cached, "cache.abandoned"), 1.0);
  }
}

TEST(BatchCache, CacheLookupAgreesWithCanonicalizer) {
  // Sanity link between the two layers: records the canonicalizer maps to
  // one key are exactly the records the pipeline serves from cache.
  const core::Instance inst =
      workloads::uniform_instance(config(900, /*jobs=*/6));
  const std::string base = format_instance_record(inst, "a");
  const std::string twin = scaled_record(inst, 5, "b");
  const auto base_form = cache::canonicalize(
      parse_instance_record(base).instance);
  const auto twin_form = cache::canonicalize(
      parse_instance_record(twin).instance);
  ASSERT_EQ(base_form.key, twin_form.key);
  ASSERT_EQ(twin_form.scale, base_form.scale * 5);

  BatchOptions on;
  on.cache_capacity = 4;
  const std::string out = run({base, twin}, on).first;
  EXPECT_EQ(summary_counter(out, "cache.hits"), 1.0);
  EXPECT_EQ(summary_counter(out, "cache.misses"), 1.0);
}

// ---- output-failure containment (ordered emitter, dead sink) ---------------

/// A streambuf that accepts `limit` characters and then reports failure on
/// every overflow — the in-process stand-in for EPIPE / a full disk.
class FailAfterBuf : public std::streambuf {
 public:
  explicit FailAfterBuf(std::size_t limit) : limit_(limit) {}
  [[nodiscard]] const std::string& written() const { return written_; }

 protected:
  int overflow(int ch) override {
    if (written_.size() >= limit_) return traits_type::eof();
    if (ch != traits_type::eof()) {
      written_.push_back(static_cast<char>(ch));
    }
    return ch;
  }

 private:
  std::size_t limit_;
  std::string written_;
};

TEST(BatchOutputFailure, DeadSinkRaisesTypedIoInsteadOfSilentTruncation) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), "r"));
  }
  std::string input;
  for (const std::string& line : lines) input += line + "\n";

  // Reference: how large is the healthy output?
  BatchOptions options;
  options.threads = 1;
  const std::string healthy = run(lines, options).first;

  // Sink dies after ~3 result lines. The pipeline must stop scheduling,
  // drain, and throw a typed kIo — not return a quietly truncated batch.
  std::istringstream in(input);
  FailAfterBuf buf(healthy.size() / 6);
  std::ostream out(&buf);
  try {
    (void)run_batch(in, out, options);
    FAIL() << "expected util::Error(kIo) from the dead sink";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("output stream failed"),
              std::string::npos);
  }
  // What WAS written is a clean prefix of the healthy run: whole lines only
  // up to the failure point, never interleaved or reordered garbage.
  const std::string& partial = buf.written();
  EXPECT_EQ(healthy.compare(0, partial.size(), partial), 0)
      << "partial output must be a byte prefix of the healthy output";
}

TEST(BatchOutputFailure, DeadSinkAtEveryThreadCountStaysTyped) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    lines.push_back(format_instance_record(
        workloads::uniform_instance(config(seed)), ""));
  }
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    std::istringstream in(input);
    FailAfterBuf buf(64);
    std::ostream out(&buf);
    EXPECT_THROW((void)run_batch(in, out, options), util::Error)
        << "threads=" << threads;
  }
}

// ---- per-record deadlines ---------------------------------------------------

TEST(BatchDeadline, RecordFieldCapsStepsAndYieldsTypedErrorLine) {
  const std::string big = format_instance_record(
      workloads::uniform_instance(config(3, /*jobs=*/200)), "slow");
  // A 1-step budget cannot finish a 200-job instance.
  util::Json doc = util::Json::parse(big);
  doc.emplace("deadline_steps", 1);
  const std::string capped = doc.dump();

  BatchOptions options;
  options.threads = 1;
  const auto [text, summary] = run({capped}, options);
  EXPECT_EQ(summary.failed, 1u);
  const std::vector<std::string> out = output_lines(text);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(out[0].find("\"id\":\"slow\""), std::string::npos)
      << "the caller's label must survive a deadline abort";
  EXPECT_NE(text.find("\"batch.deadline_exceeded\":1"), std::string::npos);
}

TEST(BatchDeadline, DefaultBudgetAppliesOnlyToRecordsWithoutTheirOwn) {
  const std::string small = format_instance_record(
      workloads::uniform_instance(config(1, /*jobs=*/6)), "small");
  util::Json generous = util::Json::parse(small);
  generous.emplace("deadline_steps", 1'000'000);
  BatchOptions options;
  options.threads = 1;
  options.default_deadline_steps = 1;  // absurdly tight default
  const auto [text, summary] = run({small, generous.dump()}, options);
  EXPECT_EQ(summary.failed, 1u) << "only the defaulted record may expire";
  EXPECT_EQ(summary.ok, 1u);
  const std::vector<std::string> out = output_lines(text);
  EXPECT_NE(out[0].find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(out[1].find("\"ok\":true"), std::string::npos);
}

TEST(BatchDeadline, ScratchSurvivesAnAbortedSolve) {
  // Record 1 aborts mid-run; record 2 (same worker, same scratch) must still
  // produce output byte-identical to a fresh single-record run — the
  // engines' strong guarantee + reset() rebind contract.
  const std::string doomed_line = format_instance_record(
      workloads::uniform_instance(config(5, /*jobs=*/150)), "doomed");
  util::Json doomed = util::Json::parse(doomed_line);
  doomed.emplace("deadline_steps", 2);
  const std::string healthy = format_instance_record(
      workloads::uniform_instance(config(6, /*jobs=*/20)), "after");

  BatchOptions options;
  options.threads = 1;
  options.emit_schedules = true;
  const std::string paired = run({doomed.dump(), healthy}, options).first;
  const std::string alone = run({healthy}, options).first;
  // The healthy record's line (index differs, so compare from the id on).
  const std::string paired_line = output_lines(paired).at(1);
  const std::string alone_line = output_lines(alone).at(0);
  EXPECT_EQ(paired_line.substr(paired_line.find("\"id\"")),
            alone_line.substr(alone_line.find("\"id\"")));
}

TEST(BatchDeadline, NegativeAndMalformedDeadlineFieldsAreTypedErrors) {
  const std::string base = format_instance_record(
      workloads::uniform_instance(config(2)), "x");
  util::Json neg = util::Json::parse(base);
  neg.emplace("deadline_steps", -3);
  util::Json frac = util::Json::parse(base);
  frac.emplace("deadline_steps", 1.5);
  for (const std::string& line : {neg.dump(), frac.dump()}) {
    try {
      (void)parse_instance_record(line);
      FAIL() << "accepted: " << line;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kParse) << line;
    }
  }
}

}  // namespace
}  // namespace sharedres::batch
