// Tests of the unit-size variant (m-maximal windows, virtual reordering of
// the single started job) and its improved ratio m/(m−1) (paper, discussion
// below Theorem 3.3).
#include <gtest/gtest.h>

#include <tuple>

#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_engine.hpp"
#include "core/validator.hpp"
#include "test_support.hpp"
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
