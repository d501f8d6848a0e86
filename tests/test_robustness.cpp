// Adversarial-input hardening tests: the typed error model, the
// deterministic fail-point registry, exception safety of both engines under
// injected faults (strong guarantee for the output schedule), fault
// propagation through parallel sweeps and the IO layer, and the validator's
// collect-all mode with its JSON emission.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/sos_engine.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_engine.hpp"
#include "core/unit_prefix_engine.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace sharedres {
namespace {

using core::Assignment;
using core::Instance;
using core::Job;
using core::Schedule;
using util::Error;
using util::ErrorCode;
namespace fp = util::failpoint;

/// Disarms everything on scope exit so a failing assertion cannot leak an
/// armed site into later tests.
struct FailpointGuard {
  ~FailpointGuard() { fp::reset(); }
};

// ---------------------------------------------------------------- Error type

TEST(ErrorModel, ParseErrorsCarryLocation) {
  const Error e = Error::parse(3, 17, "expected integer", "inst.txt");
  EXPECT_EQ(e.code(), ErrorCode::kParse);
  EXPECT_EQ(e.where().line, 3);
  EXPECT_EQ(e.where().column, 17);
  EXPECT_EQ(e.where().file, "inst.txt");
  EXPECT_EQ(e.message(), "expected integer");
  const std::string what = e.what();
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("column 17"), std::string::npos) << what;
  EXPECT_NE(what.find("inst.txt"), std::string::npos) << what;
}

TEST(ErrorModel, CliErrorsCarryFlag) {
  const Error e = Error::cli("machines", "expects an integer, got 'abc'");
  EXPECT_EQ(e.code(), ErrorCode::kCliUsage);
  EXPECT_EQ(e.flag(), "machines");
  EXPECT_NE(std::string(e.what()).find("--machines"), std::string::npos);
}

TEST(ErrorModel, FactoriesSetCodes) {
  EXPECT_EQ(Error::io("disk on fire").code(), ErrorCode::kIo);
  EXPECT_EQ(Error::invalid_instance("m < 1").code(),
            ErrorCode::kInvalidInstance);
  EXPECT_EQ(Error::injected("x.y", 2).code(), ErrorCode::kInjectedFault);
  // Errors remain catchable as std::runtime_error for legacy callers.
  EXPECT_THROW(throw Error::io("x"), std::runtime_error);
}

TEST(ErrorModel, CodeNamesAreStable) {
  EXPECT_STREQ(util::to_string(ErrorCode::kParse), "parse");
  EXPECT_STREQ(util::to_string(ErrorCode::kCliUsage), "cli_usage");
  EXPECT_STREQ(util::to_string(ErrorCode::kInjectedFault), "injected_fault");
}

// ------------------------------------------------------- fail-point registry

TEST(Failpoint, CompiledStateMatchesBuildConfiguration) {
#if defined(SHAREDRES_FAILPOINTS_ENABLED)
  EXPECT_TRUE(fp::compiled_in());
#else
  EXPECT_FALSE(fp::compiled_in());
#endif
}

TEST(Failpoint, ThrowsOnTheKthHitThenDisarms) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm("test.site", 3);
  fp::hit("test.site");
  fp::hit("test.site");
  try {
    fp::hit("test.site");
    FAIL() << "expected injected fault on hit 3";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
  }
  // One-shot: the throw disarms the site, later hits pass.
  fp::hit("test.site");
  EXPECT_EQ(fp::hit_count("test.site"), 4u);
}

TEST(Failpoint, DisarmAndResetClearSites) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm("a", 1);
  fp::arm("b", 5);
  const auto armed = fp::armed_sites();
  EXPECT_EQ(armed.size(), 2u);
  fp::disarm("a");
  fp::hit("a");  // must not throw
  EXPECT_EQ(fp::armed_sites().size(), 1u);
  fp::reset();
  EXPECT_TRUE(fp::armed_sites().empty());
  fp::hit("b");  // must not throw
}

TEST(Failpoint, RearmResetsTheCounter) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm("site", 2);
  fp::hit("site");
  fp::arm("site", 2);  // restart: the next hit is again "1 of 2"
  fp::hit("site");
  EXPECT_THROW(fp::hit("site"), Error);
}

TEST(Failpoint, UnarmedSitesAreFreeAndCounted) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  for (int i = 0; i < 100; ++i) fp::hit("never.armed");
  EXPECT_EQ(fp::hit_count("never.armed"), 0u)
      << "untracked sites must not allocate counters on the fast path";
}

TEST(Failpoint, EveryNFiresOnEveryNthHitAndStaysArmed) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm_every("rec.site", 3);
  std::vector<int> fired_at;
  for (int i = 1; i <= 12; ++i) {
    try {
      fp::hit("rec.site");
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
      fired_at.push_back(i);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 6, 9, 12}));
  EXPECT_EQ(fp::fire_count("rec.site"), 4u);
  EXPECT_EQ(fp::armed_sites().size(), 1u) << "every:N must stay armed";
}

TEST(Failpoint, EveryOneFiresOnEveryHit) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm_every("rec.site", 1);
  for (int i = 0; i < 5; ++i) EXPECT_THROW(fp::hit("rec.site"), Error);
  EXPECT_EQ(fp::fire_count("rec.site"), 5u);
}

TEST(Failpoint, ProbFirePatternIsAPureFunctionOfSeed) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const auto pattern = [](double p, std::uint64_t seed) {
    fp::arm_prob("prob.site", p, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        fp::hit("prob.site");
        fired.push_back(false);
      } catch (const Error&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const auto a = pattern(0.25, 42);
  const auto b = pattern(0.25, 42);
  EXPECT_EQ(a, b) << "same (p, seed) must reproduce the same fire pattern";
  const auto c = pattern(0.25, 43);
  EXPECT_NE(a, c) << "a different seed should move the pattern";
  const std::size_t fires =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 20u);  // ~50 expected at p = 0.25 over 200 hits
  EXPECT_LT(fires, 90u);
  // Boundary probabilities degenerate deterministically.
  fp::arm_prob("prob.site", 0.0, 1);
  for (int i = 0; i < 50; ++i) EXPECT_NO_THROW(fp::hit("prob.site"));
  fp::arm_prob("prob.site", 1.0, 1);
  for (int i = 0; i < 50; ++i) EXPECT_THROW(fp::hit("prob.site"), Error);
}

TEST(Failpoint, CatalogListsKnownSitesAndArmedModes) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm_every("sos_engine.step", 10);
  fp::arm_prob("unit_engine.step", 0.5, 7);
  const auto rows = fp::catalog();
  // The static site catalog is present even when unarmed.
  const auto find = [&rows](const std::string& site) {
    for (const auto& r : rows) {
      if (r.site == site) return r;
    }
    return fp::SiteInfo{};
  };
  for (const char* site :
       {"deadline.check", "io.next_line", "pool.task", "service.admit",
        "service.emit", "service.journal_append", "sos_engine.step",
        "unit_engine.step"}) {
    EXPECT_FALSE(find(site).site.empty()) << site << " missing from catalog";
  }
  EXPECT_TRUE(find("sos_engine.step").armed);
  EXPECT_EQ(find("sos_engine.step").mode, "every:10");
  EXPECT_TRUE(find("unit_engine.step").armed);
  EXPECT_EQ(find("unit_engine.step").mode.rfind("prob:", 0), 0u);
  EXPECT_FALSE(find("pool.task").armed);
  // Sorted by site name (the CLI prints it verbatim).
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].site, rows[i].site);
  }
}

// ------------------------------------------- engine strong exception safety

Instance mixed_instance() {
  return Instance(3, 10,
                  {Job{4, 3}, Job{2, 7}, Job{3, 2}, Job{1, 9}, Job{5, 5},
                   Job{2, 10}, Job{1, 1}});
}

Instance unit_instance() {
  return Instance(3, 10,
                  {Job{1, 3}, Job{1, 7}, Job{1, 2}, Job{1, 9}, Job{1, 5},
                   Job{1, 10}, Job{1, 1}});
}

TEST(FaultInjection, SosEngineGivesStrongGuaranteeForOut) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const Instance inst = mixed_instance();

  // A non-empty destination proves the rollback restores prior content,
  // including the merged length of the final block.
  Schedule out;
  out.append(2, {Assignment{0, 5}});
  const Schedule before = out;

  fp::arm("sos_engine.step", 3);
  core::SosEngine engine(
      inst, {/*window_cap=*/2, /*budget=*/inst.capacity(), true, true, true,
             true});
  try {
    engine.run(out, /*fast_forward=*/false);
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
  }
  EXPECT_EQ(out, before) << "partially emitted schedule escaped the rollback";

  // Recovery: with the fault cleared, a fresh engine on the same instance
  // produces a validator-clean schedule appended after the old content.
  fp::reset();
  core::SosEngine fresh(
      inst, {/*window_cap=*/2, /*budget=*/inst.capacity(), true, true, true,
             true});
  fresh.run(out);
  EXPECT_GT(out.blocks().size(), before.blocks().size());
  const Schedule clean = core::schedule_sos(inst);
  EXPECT_TRUE(core::validate(inst, clean).ok);
}

TEST(FaultInjection, SosEngineRollsBackUnderFastForwardToo) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const Instance inst = mixed_instance();
  Schedule out;
  const Schedule before = out;
  fp::arm("sos_engine.step", 2);
  EXPECT_THROW(core::schedule_sos(inst), Error);
  fp::reset();
  // schedule_sos builds its own Schedule, so the guarantee visible here is
  // simply that the armed fault propagates as the typed error; exercise the
  // public engine too for the rollback itself.
  fp::arm("sos_engine.step", 2);
  core::SosEngine engine(
      inst, {/*window_cap=*/2, /*budget=*/inst.capacity(), true, true, true,
             true});
  EXPECT_THROW(engine.run(out, /*fast_forward=*/true), Error);
  EXPECT_EQ(out, before);
}

TEST(FaultInjection, UnitEngineGivesStrongGuaranteeForOut) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  const Instance inst = unit_instance();

  Schedule out;
  out.append(3, {Assignment{1, 4}});
  const Schedule before = out;

  fp::arm("unit_engine.step", 2);
  core::UnitEngine engine(inst);
  try {
    engine.run(out, /*fast_forward=*/false);
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
  }
  EXPECT_EQ(out, before) << "partially emitted schedule escaped the rollback";

  fp::reset();
  core::UnitEngine fresh(inst);
  Schedule recovered;
  fresh.run(recovered);
  EXPECT_TRUE(core::validate(inst, recovered).ok);

  // The prefix-regime engine, which core::solve picks for this input, runs
  // under the same site: the fault discards the block already appended.
  const Instance heavy(3, 10, {Job{1, 4}, Job{1, 5}, Job{1, 6}, Job{1, 8},
                               Job{1, 9}});
  ASSERT_TRUE(core::UnitPrefixEngine::applies(heavy));
  core::EngineScratch scratch;
  Schedule solved;
  fp::arm("unit_engine.step", 2);
  try {
    core::solve(core::kUnitAlgorithm, heavy, scratch, solved);
    FAIL() << "expected injected fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
  }
  EXPECT_TRUE(solved.empty())
      << "partially emitted schedule escaped the rollback";
  fp::reset();
  core::solve(core::kUnitAlgorithm, heavy, scratch, solved);
  EXPECT_TRUE(core::validate(heavy, solved).ok);
}

TEST(FaultInjection, ScheduleMarkRollbackRestoresMergedBlock) {
  Schedule s;
  s.append(2, {Assignment{0, 5}});
  const Schedule::Mark mark = s.mark();
  // append() merges identical adjacent blocks: this extends the last block
  // to length 5 rather than adding a block, which rollback must undo.
  s.append(3, {Assignment{0, 5}});
  s.append(1, {Assignment{1, 2}});
  s.rollback(mark);
  ASSERT_EQ(s.blocks().size(), 1u);
  EXPECT_EQ(s.blocks()[0].length, 2);
  EXPECT_EQ(s.makespan(), 2);
}

TEST(FaultInjection, ParallelWorkersRethrowInjectedFaults) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm("parallel.worker", 1);
  std::atomic<int> done{0};
  try {
    util::parallel_for(
        64, [&](std::size_t) { done.fetch_add(1); }, /*threads=*/4);
    FAIL() << "expected the worker's injected fault on the calling thread";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
  }
}

TEST(FaultInjection, IoReaderPropagatesInjectedFault) {
  SKIP_WITHOUT_FAILPOINTS();
  FailpointGuard guard;
  fp::reset();
  fp::arm("io.next_line", 2);
  std::istringstream is(
      "# sharedres instance v1\nmachines 2\ncapacity 10\njobs 0\n");
  EXPECT_THROW((void)io::read_instance(is), Error);
}

// ------------------------------------------------------ validator, collect-all

TEST(ValidatorReport, CollectsEveryAttributableViolation) {
  const Instance inst(2, 10, {Job{2, 4}, Job{1, 6}});
  Schedule bad;
  // Block 0: job 0 over requirement AND the block overuses the resource.
  bad.append(1, {Assignment{0, 6}, Assignment{1, 6}});
  // Block 1: invalid job id; job 0 absent => preempted when it reappears.
  bad.append(1, {Assignment{7, 1}});
  // Block 2: job 0 reappears (preemption) with a non-positive share.
  bad.append(1, {Assignment{0, 0}});

  const core::ValidationReport report = core::validate_all(inst, bad);
  ASSERT_FALSE(report.ok());

  std::vector<core::ViolationCode> codes;
  codes.reserve(report.violations.size());
  for (const auto& v : report.violations) codes.push_back(v.code);
  const auto has = [&](core::ViolationCode c) {
    return std::find(codes.begin(), codes.end(), c) != codes.end();
  };
  EXPECT_TRUE(has(core::ViolationCode::kShareAboveRequirement));
  EXPECT_TRUE(has(core::ViolationCode::kResourceOveruse));
  EXPECT_TRUE(has(core::ViolationCode::kInvalidJobId));
  EXPECT_TRUE(has(core::ViolationCode::kPreemption));
  EXPECT_TRUE(has(core::ViolationCode::kNonPositiveShare));
  EXPECT_TRUE(has(core::ViolationCode::kCreditMismatch));

  // First violation matches the single-shot validator's message exactly.
  const core::ValidationResult first = core::validate(inst, bad);
  ASSERT_FALSE(first.ok);
  EXPECT_EQ(first.error, report.violations.front().detail);
}

TEST(ValidatorReport, CapsTheViolationCount) {
  const Instance inst(2, 10, {Job{1, 1}});
  Schedule bad;
  // Alternate shares so append()'s identical-block merging keeps 50 blocks.
  for (int i = 0; i < 50; ++i) {
    bad.append(1, {Assignment{9, 1 + i % 2}});
  }
  const auto report = core::validate_all(inst, bad, /*max_violations=*/5);
  EXPECT_EQ(report.violations.size(), 5u);
}

TEST(ValidatorReport, ViolationsCarryStepAndMachine) {
  const Instance inst(2, 10, {Job{2, 3}});
  Schedule bad;
  bad.append(4, {Assignment{0, 3}});       // steps 1..4, fine
  bad.append(2, {Assignment{0, 5}});       // steps 5..6: share 5 > r_0 = 3
  const auto report = core::validate_all(inst, bad);
  ASSERT_FALSE(report.ok());
  const auto& v = report.violations.front();
  EXPECT_EQ(v.code, core::ViolationCode::kShareAboveRequirement);
  EXPECT_EQ(v.step, 5);
  EXPECT_EQ(v.block, 1u);
  EXPECT_EQ(v.job, 0u);
  EXPECT_EQ(v.machine, 0);
}

TEST(ValidatorReport, JsonShapeMatchesTheContract) {
  const Instance inst(2, 10, {Job{2, 4}});
  Schedule bad;
  bad.append(1, {Assignment{0, 6}});
  const auto report = core::validate_all(inst, bad);
  const util::Json doc = core::to_json(report);

  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("violation_count").as_double(),
            static_cast<double>(report.violations.size()));
  const auto& arr = doc.at("violations").as_array();
  ASSERT_EQ(arr.size(), report.violations.size());
  for (const auto& entry : arr) {
    EXPECT_TRUE(entry.contains("code"));
    EXPECT_TRUE(entry.contains("step"));
    EXPECT_TRUE(entry.contains("block"));
    EXPECT_TRUE(entry.contains("job"));
    EXPECT_TRUE(entry.contains("machine"));
    EXPECT_TRUE(entry.contains("detail"));
  }
  EXPECT_EQ(arr[0].at("code").as_string(), "share_above_requirement");
  // And the document round-trips through the strict parser.
  EXPECT_EQ(util::Json::parse(doc.dump(2)), doc);

  // A clean schedule reports ok with an empty array.
  const Schedule good = core::schedule_sos(mixed_instance());
  const util::Json ok_doc =
      core::to_json(core::validate_all(mixed_instance(), good));
  EXPECT_TRUE(ok_doc.at("ok").as_bool());
  EXPECT_EQ(ok_doc.at("violations").size(), 0u);
}

// --------------------------------------------------------- IO typed errors

TEST(IoErrors, OutOfRangeNumbersAreParseErrors) {
  std::istringstream is(
      "# sharedres instance v1\nmachines 2\ncapacity "
      "99999999999999999999999\njobs 0\n");
  try {
    (void)io::read_instance(is);
    FAIL() << "expected a typed parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    EXPECT_EQ(e.where().line, 3);
    EXPECT_GT(e.where().column, 0);
    EXPECT_NE(std::string(e.what()).find("range"), std::string::npos);
  }
}

TEST(IoErrors, ParseErrorsPointAtTheOffendingColumn) {
  std::istringstream is(
      "# sharedres instance v1\nmachines 2\ncapacity 10\njobs 1\njob 3 x4\n");
  try {
    (void)io::read_instance(is);
    FAIL() << "expected a typed parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse);
    EXPECT_EQ(e.where().line, 5);
    EXPECT_EQ(e.where().column, 7);  // the 'x' token starts at column 7
  }
}

TEST(IoErrors, MissingFileIsAnIoError) {
  try {
    (void)io::load_instance("/nonexistent/definitely-missing.txt");
    FAIL() << "expected a typed io error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

}  // namespace
}  // namespace sharedres
