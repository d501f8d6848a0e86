// Tests of the unit-size variant (m-maximal windows, virtual reordering of
// the single started job) and its improved ratio m/(m−1) (paper, discussion
// below Theorem 3.3), including the prefix-regime engine against the walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/improved_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_engine.hpp"
#include "core/unit_prefix_engine.hpp"
#include "core/validator.hpp"
#include "obs/registry.hpp"
#include "test_support.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using core::Instance;
using core::Job;
using core::Res;
using core::Time;
using util::Rational;

Instance unit_instance(int m, Res capacity, std::vector<Res> reqs) {
  std::vector<Job> jobs;
  jobs.reserve(reqs.size());
  for (const Res r : reqs) jobs.push_back(Job{1, r});
  return Instance(m, capacity, std::move(jobs));
}

TEST(UnitEngine, SmallInstanceValidAndTight) {
  // 6 jobs of requirement 5 on m=3, C=10: two jobs fit per step fully; the
  // third window slot tops up the next job. LB = ⌈30/10⌉ = 3.
  const Instance inst = unit_instance(3, 10, {5, 5, 5, 5, 5, 5});
  const core::Schedule s = core::schedule_sos_unit(inst);
  EXPECT_TRUE(core::validate(inst, s).ok);
  EXPECT_EQ(s.makespan(), 3);
}

TEST(UnitEngine, AtMostOneStartedJobEver) {
  const Instance inst = unit_instance(4, 100, {7, 13, 26, 41, 55, 60, 99, 120});
  core::UnitEngine engine(inst);
  while (!engine.done()) {
    engine.step();
    std::size_t started = 0;
    for (core::JobId j = 0; j < inst.size(); ++j) {
      const Res rem = engine.remaining(j);
      if (rem > 0 && rem != inst.job(j).requirement) ++started;
    }
    ASSERT_LE(started, 1u);
    ASSERT_TRUE(started == 0 || engine.started_job() != core::kNoJob);
  }
}

TEST(UnitEngine, VirtualOrderStaysSortedByRemainingKey) {
  const Instance inst = unit_instance(3, 50, {5, 11, 17, 23, 31, 47, 80});
  core::UnitEngine engine(inst);
  while (!engine.done()) {
    engine.step();
    const auto order = engine.virtual_order();
    for (std::size_t i = 1; i < order.size(); ++i) {
      ASSERT_LE(engine.remaining(order[i - 1]), engine.remaining(order[i]));
    }
  }
}

TEST(UnitEngine, OversizedJobRunsSoloAtCapacity) {
  const Instance inst = unit_instance(3, 10, {35});
  const core::Schedule s = core::schedule_sos_unit(inst);
  EXPECT_TRUE(core::validate(inst, s).ok);
  EXPECT_EQ(s.makespan(), 4);  // 10+10+10+5
}

TEST(UnitEngine, FastForwardMatchesStepwise) {
  const Instance inst = unit_instance(4, 10, {3, 4, 35, 6, 7, 120, 9});
  EXPECT_EQ(core::schedule_sos_unit(inst, {.fast_forward = true}),
            core::schedule_sos_unit(inst, {.fast_forward = false}));
}

TEST(UnitEngine, WindowsAreMMaximalInTheVirtualOrder) {
  // The unit variant promises m-maximal windows over the virtual order:
  // (e′) |W| < m ⇒ (left border ∨ key(W) ≥ C), (f) key(W) < C ⇒ right
  // border, and the per-step dichotomy (full budget ∨ all but one member
  // finish). All of it is visible through the observer.
  const Instance inst = unit_instance(
      4, 100, {7, 13, 26, 41, 55, 60, 99, 120, 35, 18, 77, 42});
  core::RecordingObserver observer;
  const core::Schedule s =
      core::schedule_sos_unit(inst, {.observer = &observer});
  ASSERT_TRUE(core::validate(inst, s).ok);
  for (const core::StepInfo& info : observer.steps()) {
    if (info.window_size < 4) {
      EXPECT_TRUE(info.left_border || info.window_requirement >= 100)
          << "step " << info.first_step;
    }
    if (info.window_requirement < 100) {
      EXPECT_TRUE(info.right_border) << "step " << info.first_step;
    }
    if (info.resource_used < 100) {
      // Light step: everyone but the rightmost member finishes, so at most
      // one assignment is partial.
      std::size_t partial = 0;
      for (const core::Assignment& a : info.shares) {
        if (a.share < inst.job(a.job).requirement &&
            a.share < 100) {  // below requirement and below capacity
          ++partial;
        }
      }
      EXPECT_LE(partial, 1u) << "step " << info.first_step;
    }
  }
}

TEST(UnitEngine, ObserverCoversEveryStep) {
  const Instance inst = unit_instance(3, 50, {5, 11, 17, 23, 31, 47, 180});
  core::RecordingObserver observer;
  const core::Schedule s =
      core::schedule_sos_unit(inst, {.observer = &observer});
  core::Time covered = 0;
  for (const core::StepInfo& info : observer.steps()) {
    EXPECT_EQ(info.first_step, covered + 1);
    covered += info.repeat;
  }
  EXPECT_EQ(covered, s.makespan());
}

TEST(UnitEngine, StepwiseMatchesFastForwardAtScale) {
  // Property sweep at sizes where the resumable window-walk cursor
  // (DESIGN.md §4) is exercised thousands of times: the full schedule —
  // every block, not just the makespan — must be bit-identical between the
  // stepwise and fast-forward drivers across all families and machine
  // counts, including the front-accumulation workload built to stress the
  // cursor (every window light, every step a full completion).
  for (const int m : {2, 4, 8}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      workloads::SosConfig cfg;
      cfg.machines = m;
      cfg.capacity = 10'000;
      cfg.jobs = 2'000;
      cfg.max_size = 1;
      cfg.seed = seed;
      for (const std::string& family : workloads::instance_families()) {
        const Instance inst = workloads::make_instance(family, cfg);
        ASSERT_EQ(core::schedule_sos_unit(inst, {.fast_forward = true}),
                  core::schedule_sos_unit(inst, {.fast_forward = false}))
            << family << " m=" << m << " seed=" << seed;
      }
      const Instance adv = workloads::front_accumulation_instance(cfg);
      ASSERT_EQ(core::schedule_sos_unit(adv, {.fast_forward = true}),
                core::schedule_sos_unit(adv, {.fast_forward = false}))
          << "front_accumulation m=" << m << " seed=" << seed;
    }
  }
}

TEST(UnitEngine, FrontAccumulationSchedulesValidAtLargerSize) {
  // One larger cursor-stressing run through the validator: n jobs in
  // windows of m, every step a full completion.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1'000'000;
  cfg.jobs = 10'000;
  cfg.seed = 42;
  const Instance inst = workloads::front_accumulation_instance(cfg);
  const core::Schedule s = core::schedule_sos_unit(inst);
  const auto check = core::validate(inst, s);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GE(s.makespan(), core::lower_bounds(inst).combined());
}

TEST(UnitEngine, ObserverDoesNotChangeEmittedSchedule) {
  // run() takes a move-emission shortcut when no observer is attached; the
  // emitted blocks must not depend on which path was taken.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 10'000;
  cfg.jobs = 500;
  cfg.max_size = 1;
  cfg.seed = 3;
  for (const std::string& family : workloads::instance_families()) {
    const Instance inst = workloads::make_instance(family, cfg);
    core::RecordingObserver observer;
    ASSERT_EQ(core::schedule_sos_unit(inst, {.observer = &observer}),
              core::schedule_sos_unit(inst))
        << family;
  }
}

TEST(UnitEngine, RejectsNonUnitSizes) {
  const Instance inst(3, 10, {Job{2, 3}});
  EXPECT_INVALID_INSTANCE((void)core::schedule_sos_unit(inst));
}

// ---- the prefix-regime engine (core/unit_prefix_engine.hpp) --------------

using Counters = std::map<std::string, std::uint64_t>;

/// The engine.unit.* counters one call of `run` adds, minus the ones that
/// tell the two paths apart (the walk-only ones and prefix_runs).
template <class Run>
Counters unit_counters(Run&& run) {
  constexpr std::string_view kPrefix = "engine.unit.";
  obs::Registry::global().reset_values();
  run();
  Counters out;
  for (const auto& view : obs::Registry::global().metrics()) {
    if (view.kind != obs::Kind::kCounter || !view.name.starts_with(kPrefix)) {
      continue;
    }
    const std::string key = view.name.substr(kPrefix.size());
    if (key != "walk_hops" && key != "iota_resumes" &&
        key != "cursor_resumes" && key != "window_rebuilds" &&
        key != "prefix_runs") {
      out.emplace(key, view.counter->value());
    }
  }
  return out;
}

std::uint64_t prefix_runs() {
  return obs::Registry::global().counter("engine.unit.prefix_runs").value();
}

/// Every window turns heavy within ≤ 500 of its m = 512 members.
Instance heavy_instance(std::size_t jobs, std::uint64_t seed) {
  workloads::SosConfig cfg;
  cfg.machines = 512;
  cfg.capacity = 1'000'000;
  cfg.jobs = jobs;
  cfg.max_size = 1;
  cfg.seed = seed;
  return workloads::uniform_instance(cfg, 0.002, 0.004);
}

/// Checks the default path (`schedule_sos_unit`) and the stepwise walk
/// against `UnitEngine::run(out, true)` and, where the selection test holds,
/// the prefix engine on schedules, block counts and the schedule-describing
/// counters. Returns whether the prefix engine applies.
bool expect_prefix_matches_walk(const std::string& name, const Instance& inst) {
  core::Schedule walk;
  const Counters walk_counters =
      unit_counters([&] { core::UnitEngine(inst).run(walk, true); });
  core::Schedule stepwise;
  core::UnitEngine(inst).run(stepwise, false);
  EXPECT_EQ(stepwise, walk) << name;
  EXPECT_EQ(core::schedule_sos_unit(inst), walk) << name;
  if (!core::UnitPrefixEngine::applies(inst)) return false;
  core::Schedule prefix;
  const Counters prefix_counters =
      unit_counters([&] { core::UnitPrefixEngine(inst).run(prefix); });
  EXPECT_EQ(prefix, walk) << name;
  EXPECT_EQ(prefix.blocks().size(), walk.blocks().size()) << name;
  EXPECT_EQ(prefix_counters, walk_counters) << name;
  if (obs::enabled()) {
    EXPECT_GT(prefix_counters.at("blocks"), 0u) << name;
  }
  const auto check = core::validate(inst, prefix);
  EXPECT_TRUE(check.ok) << name << ": " << check.error;
  return true;
}

TEST(UnitPrefixEngine, MatchesWalkOracleOnSchedulesAndCounters) {
  // The unit-size uniform instances `sharedres_cli gen --machines=128|4
  // --jobs=4000 --max-size=1 --seed=9` makes: every window of the first is
  // heavy, the second slides light windows and stays on the walk.
  workloads::SosConfig cfg;
  cfg.capacity = 1'000'000;
  cfg.jobs = 4'000;
  cfg.max_size = 1;
  cfg.seed = 9;
  cfg.machines = 128;
  EXPECT_TRUE(expect_prefix_matches_walk(
      "cli/m=128", workloads::make_instance("uniform", cfg)));
  cfg.machines = 4;
  EXPECT_FALSE(expect_prefix_matches_walk(
      "cli/m=4", workloads::make_instance("uniform", cfg)));
}

TEST(UnitPrefixEngine, SelectionTestSitsAtTheFirstMWindow) {
  // m = 4, C = 100: the four smallest requirements sum to C − 1, to C, and
  // n = m (no window can ever hit the member cap with jobs to its right).
  // The front-accumulation family, every m-window light, slides at once.
  const Instance below = unit_instance(4, 100, {24, 25, 25, 25, 60, 70});
  const Instance at = unit_instance(4, 100, {25, 25, 25, 25, 60, 70});
  const Instance few = unit_instance(4, 100, {1, 2, 3, 4});
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.seed = 5;
  const Instance front = workloads::front_accumulation_instance(cfg);
  EXPECT_FALSE(core::UnitPrefixEngine::applies(below));
  EXPECT_TRUE(core::UnitPrefixEngine::applies(at));
  EXPECT_TRUE(core::UnitPrefixEngine::applies(few));
  EXPECT_FALSE(core::UnitPrefixEngine::applies(front));
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";

  obs::Registry& reg = obs::Registry::global();
  for (const auto& [inst, runs] :
       {std::pair{&below, 0u}, std::pair{&at, 1u}, std::pair{&few, 1u},
        std::pair{&front, 0u}}) {
    reg.reset_values();
    const core::Schedule s = core::schedule_sos_unit(*inst);
    EXPECT_EQ(prefix_runs(), runs);
    EXPECT_EQ(s, core::schedule_sos_unit(*inst, {.fast_forward = false}));
  }
}

// The prefix engine replaced a thread-fanned descriptor planner and inherits
// its contract: schedules identical to the walk's in the heavy regime, the
// walk for every input outside it, and engagement only where the selection
// test, fast-forward and the absence of an observer allow. These tests keep
// the planner's suite name.

TEST(ParallelUnitEngine, HeavyRegimeMatchesScalarAtEveryThreadCount) {
  // The heavy instance solved alone and by 1, 2 and 8 concurrent workers,
  // each with its own EngineScratch, as batch and serve workers run it.
  const Instance inst = heavy_instance(20'000, 11);
  ASSERT_TRUE(expect_prefix_matches_walk("heavy/m=512", inst));
  const core::Schedule reference = core::schedule_sos_unit(inst);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<core::Schedule> outs(threads);
    util::parallel_for(
        threads,
        [&](std::size_t i) {
          core::EngineScratch scratch;
          core::solve(core::kUnitAlgorithm, inst, scratch, outs[i]);
        },
        threads);
    for (const core::Schedule& out : outs) {
      EXPECT_EQ(out, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelUnitEngine, HeavySchedulePassesTheValidator) {
  const Instance inst = heavy_instance(20'000, 12);
  ASSERT_TRUE(core::UnitPrefixEngine::applies(inst));
  obs::Registry::global().reset_values();
  const core::Schedule s = core::schedule_sos_unit(inst);
  const auto check = core::validate(inst, s);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GE(s.makespan(), core::lower_bounds(inst).combined());
  if (obs::enabled()) {
    // The prefix engine must actually have produced this schedule.
    EXPECT_EQ(prefix_runs(), 1u);
  }
}

TEST(ParallelUnitEngine, AllFamiliesMatchScalarIncludingBailFallback) {
  // The generator families at m = 8 fall on both sides of the selection
  // test; front_accumulation, the canonical slide workload, is on the walk.
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.max_size = 1;
  cfg.seed = 5;
  std::vector<std::pair<std::string, Instance>> cases;
  for (const std::string& family : workloads::instance_families()) {
    cases.emplace_back(family, workloads::make_instance(family, cfg));
  }
  cases.emplace_back("front_accumulation",
                     workloads::front_accumulation_instance(cfg));
  std::size_t engaged = 0;
  for (const auto& [name, inst] : cases) {
    if (expect_prefix_matches_walk(name, inst)) ++engaged;
  }
  EXPECT_GE(engaged, 1u);
  EXPECT_LT(engaged, cases.size());
}

TEST(ParallelUnitEngine, FrontAccumulationBailsToTheScalarEngine) {
  workloads::SosConfig cfg;
  cfg.machines = 8;
  cfg.capacity = 1'000'000;
  cfg.jobs = 3'000;
  cfg.seed = 5;
  const Instance inst = workloads::front_accumulation_instance(cfg);
  EXPECT_FALSE(core::UnitPrefixEngine::applies(inst));
  obs::Registry::global().reset_values();
  const core::Schedule s = core::schedule_sos_unit(inst);
  EXPECT_EQ(s, core::schedule_sos_unit(inst, {.fast_forward = false}));
  if (obs::enabled()) {
    EXPECT_EQ(prefix_runs(), 0u);
    EXPECT_GT(obs::Registry::global().counter("engine.unit.runs").value(),
              0u);
  }
}

TEST(ParallelUnitEngine, EngagementPolicyGates) {
  if (!obs::enabled()) GTEST_SKIP() << "built without SHAREDRES_OBS";
  const Instance inst = heavy_instance(2'000, 14);
  ASSERT_TRUE(core::UnitPrefixEngine::applies(inst));
  obs::Registry& reg = obs::Registry::global();

  // The default run engages with no size floor and no setting.
  reg.reset_values();
  (void)core::schedule_sos_unit(inst);
  EXPECT_EQ(prefix_runs(), 1u);
  // Stepwise runs and observers stay on the walk.
  reg.reset_values();
  (void)core::schedule_sos_unit(inst, {.fast_forward = false});
  core::RecordingObserver observer;
  (void)core::schedule_sos_unit(inst, {.observer = &observer});
  EXPECT_EQ(prefix_runs(), 0u);
  // The improved portfolio's unit candidate takes the same path.
  reg.reset_values();
  (void)core::schedule_improved(inst);
  EXPECT_EQ(prefix_runs(), 1u);
}

TEST(ParallelUnitEngine, SoloFastForwardAndExactCapacityJobsMatchScalar) {
  // Jobs at, above and far above C, where block counts (not just step
  // contents) must match the walk's solo fast-forward and merge decisions.
  const Res cap = 1'000;
  for (const std::vector<Res>& reqs :
       {std::vector<Res>{cap}, std::vector<Res>{cap - 1, cap, cap + 1},
        std::vector<Res>{1, 2, 7 * cap + 3},
        std::vector<Res>{500, 500, 500, 3 * cap},
        std::vector<Res>{cap, cap, cap}}) {
    EXPECT_TRUE(expect_prefix_matches_walk(
        "solo/n=" + std::to_string(reqs.size()), unit_instance(4, cap, reqs)));
  }
}

TEST(UnitPrefixEngine, DeadlineAbortRollsBackAndScratchStaysReusable) {
  const Instance heavy = heavy_instance(2'000, 3);
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1'000'000;
  cfg.jobs = 500;
  cfg.seed = 3;
  const Instance walk = workloads::front_accumulation_instance(cfg);
  ASSERT_TRUE(core::UnitPrefixEngine::applies(heavy));
  ASSERT_FALSE(core::UnitPrefixEngine::applies(walk));

  core::EngineScratch scratch;
  core::Schedule out;
  out.append(3, {core::Assignment{0, 1}});
  const core::Schedule before = out;
  {
    util::deadline::Scope scope({.max_steps = 3, .deadline_ns = 0});
    try {
      core::kUnitAlgorithm.solve_into(heavy, scratch, out);
      FAIL() << "expected the step budget to expire";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kDeadlineExceeded);
      EXPECT_NE(std::string(e.what()).find("unit_engine.step"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(out, before) << "partially emitted schedule escaped the rollback";
  for (const Instance* inst : {&walk, &heavy}) {
    core::solve(core::kUnitAlgorithm, *inst, scratch, out);
    EXPECT_EQ(out, core::schedule_sos_unit(*inst, {.fast_forward = false}));
  }
}

using UnitParam = std::tuple<int, std::uint64_t>;

class UnitRatioTest : public ::testing::TestWithParam<UnitParam> {};

TEST_P(UnitRatioTest, WithinUnitSizeGuarantee) {
  const auto [m, seed] = GetParam();
  workloads::SosConfig cfg;
  cfg.machines = m;
  cfg.capacity = 10'000;
  cfg.jobs = 80;
  cfg.max_size = 1;  // unit
  cfg.seed = seed;
  for (const std::string& family : workloads::instance_families()) {
    const Instance inst = workloads::make_instance(family, cfg);
    const core::Schedule s = core::schedule_sos_unit(inst);
    const auto check = core::validate(inst, s);
    ASSERT_TRUE(check.ok) << family << ": " << check.error;
    const core::LowerBounds lb = core::lower_bounds(inst);
    ASSERT_GE(s.makespan(), lb.combined());
    // |S| ≤ m/(m−1)·LB + 1 (the unit-size analysis of Theorem 3.3).
    const Rational bound =
        core::unit_ratio_bound(m) * lb.combined_exact() + Rational(1);
    ASSERT_LE(Rational(s.makespan()), bound)
        << family << ": makespan " << s.makespan() << " vs bound "
        << bound.to_double();
  }
}

TEST_P(UnitRatioTest, NeverWorseThanGeneralAlgorithmByMuch) {
  const auto [m, seed] = GetParam();
  workloads::SosConfig cfg;
  cfg.machines = m;
  cfg.capacity = 10'000;
  cfg.jobs = 60;
  cfg.max_size = 1;
  cfg.seed = seed;
  const Instance inst = workloads::uniform_instance(cfg);
  const Time unit = core::schedule_sos_unit(inst).makespan();
  const Time general = core::schedule_sos(inst).makespan();
  // The m-maximal window version dominates the reserved-processor version
  // asymptotically; on finite instances allow a one-step wobble.
  EXPECT_LE(unit, general + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnitRatioTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 16, 32),
                       ::testing::Values(11u, 12u, 13u)),
    [](const ::testing::TestParamInfo<UnitParam>& param_info) {
      return "m" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace sharedres
