// The d-resource generalization (DESIGN.md §16): instance model, validator
// V3 per-axis checks, generalized lower bounds, the rigid MultiResEngine and
// its schedule_multires facade, serialization (text v2 + NDJSON), and the
// d-resource workload generators.
//
//  * Model: the d-dimensional constructor validates per-axis, sorts by the
//    extended key, and reduces exactly to the classic layout at d = 1.
//  * Validator: per-axis overuse is reported with the ceil-consumption rule;
//    single-axis instances take the historical path unchanged.
//  * Lower bounds: each bound is the max of its per-axis instantiation and
//    collapses to the classic bound at d = 1.
//  * Engine contracts shared with SosEngine/ImprovedEngine: stepwise ==
//    fast-forward, reset() reuse == fresh construction, strong exception
//    guarantee under an armed fail point, per-axis scale invariance.
//  * Facade: d = 1 delegates to schedule_sos (pinned schedule-identical on
//    every generator family), d > 1 rejects jobs that cannot run at full
//    rate with a typed error.
//  * IO: text v2 and NDJSON multires forms round-trip; d = 1 stays on the
//    byte-identical v1 / classic forms.
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "batch/stream.hpp"
#include "core/instance.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_engine.hpp"
#include "core/multires_scheduler.hpp"
#include "core/schedule.hpp"
#include "core/sos_scheduler.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "workloads/multires_generators.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

namespace fp = util::failpoint;
using core::Instance;
using core::Job;
using core::JobId;
using core::MultiJob;
using core::Res;
using core::Time;

Instance two_axis_instance() {
  // Axis 0: C = 10, axis 1: C = 6. Sorted by (r0, p, r1).
  return Instance(3, {10, 6},
                  {MultiJob{2, {4, 3}}, MultiJob{1, {4, 1}},
                   MultiJob{3, {2, 5}}, MultiJob{1, {7, 2}}});
}

core::MultiResEngine::Params params_for(const Instance& inst) {
  return {.machine_cap = static_cast<std::size_t>(inst.machines())};
}

void expect_clean(const Instance& inst, const core::Schedule& schedule) {
  const core::ValidationReport report = core::validate_all(inst, schedule, 16);
  EXPECT_TRUE(report.ok()) << report.violations.size()
                           << " violation(s), first: "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().detail);
}

// ------------------------------------------------------------------- model

TEST(MultiResInstance, SortsByExtendedKeyAndExposesAxisViews) {
  const Instance inst = two_axis_instance();
  ASSERT_EQ(inst.resource_count(), 2u);
  ASSERT_EQ(inst.size(), 4u);
  EXPECT_EQ(inst.capacity(), 10);
  EXPECT_EQ(inst.capacity(1), 6);
  EXPECT_EQ(inst.capacities(), (std::vector<Res>{10, 6}));
  // Sorted: (2,3,5) < (4,1,1) < (4,2,3) < (7,1,2) on (r0, p, r1).
  EXPECT_EQ(inst.requirements(), (std::vector<Res>{2, 4, 4, 7}));
  EXPECT_EQ(inst.sizes(), (std::vector<Res>{3, 1, 2, 1}));
  const Res* axis1 = inst.axis_requirements(1);
  EXPECT_EQ(axis1[0], 5);
  EXPECT_EQ(axis1[1], 1);
  EXPECT_EQ(axis1[2], 3);
  EXPECT_EQ(axis1[3], 2);
  // Σ p_j · r_{j,k}: axis 0 = 6+4+8+7 = 25, axis 1 = 15+1+6+2 = 24.
  EXPECT_EQ(inst.axis_total_requirement(0), 25);
  EXPECT_EQ(inst.total_requirement(), 25);
  EXPECT_EQ(inst.axis_total_requirement(1), 24);
}

TEST(MultiResInstance, TieOnPrimaryKeyBreaksOnSecondaryAxis) {
  const Instance inst(2, {8, 8},
                      {MultiJob{1, {3, 7}}, MultiJob{1, {3, 2}}});
  EXPECT_EQ(inst.requirement(0, 1), 2);
  EXPECT_EQ(inst.requirement(1, 1), 7);
}

TEST(MultiResInstance, SingleAxisConstructorMatchesClassicLayout) {
  const Instance classic(4, 100, {Job{2, 30}, Job{1, 10}});
  const Instance multi(4, {100}, {MultiJob{2, {30}}, MultiJob{1, {10}}});
  EXPECT_EQ(classic.resource_count(), 1u);
  EXPECT_EQ(multi.resource_count(), 1u);
  EXPECT_EQ(classic.capacities(), multi.capacities());
  EXPECT_EQ(classic.requirements(), multi.requirements());
  EXPECT_EQ(classic.sizes(), multi.sizes());
  EXPECT_EQ(classic.total_requirement(), multi.total_requirement());
  EXPECT_EQ(classic.axis_requirements(0)[0], 10);
}

TEST(MultiResInstance, ConstructorRejectsMalformedInput) {
  EXPECT_THROW(Instance(2, std::vector<Res>{}, {}), util::Error);
  EXPECT_THROW(
      Instance(2, std::vector<Res>(core::kMaxResources + 1, 10), {}),
      util::Error);
  EXPECT_THROW(Instance(2, {10, 0}, {}), util::Error);
  EXPECT_THROW(Instance(2, {10, 10}, {MultiJob{1, {5}}}), util::Error);
  EXPECT_THROW(Instance(2, {10, 10}, {MultiJob{1, {5, 0}}}), util::Error);
  EXPECT_THROW(Instance(2, {10, 10}, {MultiJob{0, {5, 5}}}), util::Error);
}

// --------------------------------------------------------------- validator

TEST(MultiResValidator, DetectsSecondaryAxisOveruse) {
  // Both jobs fit the primary axis together (4 + 4 ≤ 10) but overuse axis 1
  // (4 + 4 > 6) when run at full rate.
  const Instance inst(2, {10, 6},
                      {MultiJob{1, {4, 4}}, MultiJob{1, {4, 4}}});
  core::Schedule bad;
  bad.append(1, {core::Assignment{0, 4}, core::Assignment{1, 4}});
  const auto report = core::validate_all(inst, bad);
  ASSERT_FALSE(report.ok());
  bool saw_axis1 = false;
  for (const core::Violation& v : report.violations) {
    if (v.code == core::ViolationCode::kResourceOveruse &&
        v.detail.find("resource 1") != std::string::npos) {
      saw_axis1 = true;
    }
  }
  EXPECT_TRUE(saw_axis1) << "expected a resource-1 overuse violation";
}

TEST(MultiResValidator, PartialShareConsumptionRoundsUp) {
  // One job, r = (2, 3), run at share 1 for 4 steps (credit 4 = p·r_0).
  // Per-step axis-1 consumption is ⌈1·3/2⌉ = 2: feasible at C_1 = 2 but
  // rejected at C_1 = 1 — a floored rule (⌊1.5⌋ = 1) would wrongly accept
  // it, so this pins the conservative rounding direction.
  const auto schedule_of = [] {
    core::Schedule s;
    s.append(4, {core::Assignment{0, 1}});
    return s;
  };
  const Instance ok_inst(2, {10, 2}, {MultiJob{2, {2, 3}}});
  expect_clean(ok_inst, schedule_of());
  const Instance tight(2, {10, 1}, {MultiJob{2, {2, 3}}});
  const auto report = core::validate_all(tight, schedule_of());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().code,
            core::ViolationCode::kResourceOveruse);
}

TEST(MultiResValidator, SingleAxisPathUnchanged) {
  const Instance inst(2, 10, {Job{2, 6}});
  core::Schedule good;
  good.append(2, {core::Assignment{0, 6}});
  EXPECT_TRUE(core::validate(inst, good).ok);
  core::Schedule bad;
  bad.append(1, {core::Assignment{0, 11}});
  EXPECT_FALSE(core::validate(inst, bad).ok);
}

// ------------------------------------------------------------ lower bounds

TEST(MultiResLowerBounds, SingleAxisReducesExactly) {
  const Instance classic(4, 100, {Job{2, 30}, Job{1, 150}});
  const Instance multi(4, {100}, {MultiJob{2, {30}}, MultiJob{1, {150}}});
  const core::LowerBounds a = core::lower_bounds(classic);
  const core::LowerBounds b = core::lower_bounds(multi);
  EXPECT_EQ(a.resource, b.resource);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.longest_job, b.longest_job);
  EXPECT_EQ(a.combined(), b.combined());
}

TEST(MultiResLowerBounds, SecondaryAxisCanDominate) {
  // Axis 0 is roomy (Σ s = 8 over C = 100 → 1 step) but axis 1 is tight:
  // Σ p·r_1 = 4·20 = 80 over C_1 = 10 → 8 steps.
  const Instance inst(4, {100, 10},
                      {MultiJob{4, {2, 20}}});
  const core::LowerBounds lb = core::lower_bounds(inst);
  EXPECT_EQ(lb.resource, 8);
  // Longest job on axis 1: ⌈4·20 / min(20, 10)⌉ = 8 too.
  EXPECT_EQ(lb.longest_job, 8);
  EXPECT_EQ(lb.combined(), 8);
}

// ------------------------------------------------------------------ engine

TEST(MultiResEngine, FirstFitAdmissionOnHandExample) {
  // m = 2, C = (10, 6). Sorted order: (2,3,5) (4,1,1) (4,2,3) (7,1,2).
  // Step 1: job 0 admitted (2,5); job 1 fits ((2+4,5+1) ≤ (10,6)); job 2
  // blocked by axis 1 (5+1+3 > 6) and the machine cap anyway; job 3 blocked.
  const Instance inst = two_axis_instance();
  core::MultiResEngine engine(inst, params_for(inst));
  engine.prepare_step();
  EXPECT_EQ(engine.running(), (std::vector<JobId>{0, 1}));
  EXPECT_EQ(engine.used(0), 6);
  EXPECT_EQ(engine.used(1), 6);
  const core::MultiResStep step = engine.plan();
  ASSERT_EQ(step.shares.size(), 2u);
  EXPECT_EQ(step.shares[0], (core::Assignment{0, 2}));
  EXPECT_EQ(step.shares[1], (core::Assignment{1, 4}));

  core::Schedule out;
  core::MultiResEngine runner(inst, params_for(inst));
  runner.run(out);
  expect_clean(inst, out);
}

TEST(MultiResScheduler, FacadeContracts) {
  EXPECT_INVALID_INSTANCE((void)core::schedule_multires(
      Instance(1, {10, 10}, {MultiJob{1, {2, 2}}})));
  EXPECT_TRUE(
      core::schedule_multires(Instance(3, {10, 10}, {})).empty());
  // A job over capacity on a secondary axis cannot run rigidly: typed error.
  try {
    (void)core::schedule_multires(
        Instance(3, {10, 4}, {MultiJob{1, {2, 5}}}));
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInstance);
    EXPECT_NE(std::string(e.what()).find("exceeds its capacity"),
              std::string::npos);
  }
}

/// (family, machines, resources, seed) over the d-resource families.
using MultiResParam = std::tuple<std::string, int, std::size_t, std::uint64_t>;

class MultiResFamilySweep : public ::testing::TestWithParam<MultiResParam> {
 protected:
  static Instance make(std::size_t jobs = 40, core::Res capacity = 360) {
    const auto [family, machines, resources, seed] = GetParam();
    workloads::MultiResConfig cfg;
    cfg.machines = machines;
    cfg.resources = resources;
    cfg.capacity = capacity;
    cfg.jobs = jobs;
    cfg.max_size = 3;
    cfg.seed = seed;
    return workloads::make_multires_instance(family, cfg);
  }
};

TEST_P(MultiResFamilySweep, ScheduleIsCleanAndAboveLowerBound) {
  const Instance inst = make();
  const core::Schedule out = core::schedule_multires(inst);
  expect_clean(inst, out);
  EXPECT_GE(out.makespan(), core::lower_bounds(inst).combined());
}

TEST_P(MultiResFamilySweep, StepwiseEqualsFastForward) {
  const Instance inst = make();
  const core::Schedule fast = core::schedule_multires(inst);
  const core::Schedule slow =
      core::schedule_multires(inst, {.fast_forward = false});
  ASSERT_EQ(fast.makespan(), slow.makespan());
  EXPECT_EQ(fast.credited(inst.size()), slow.credited(inst.size()));
  std::size_t fast_block = 0;
  Time covered = 0;
  bool agree = true;
  slow.for_each_block([&](Time first_step, const core::Block& block) {
    while (fast_block < fast.blocks().size() &&
           covered + fast.blocks()[fast_block].length < first_step) {
      covered += fast.blocks()[fast_block].length;
      ++fast_block;
    }
    agree = agree && fast_block < fast.blocks().size() &&
            fast.blocks()[fast_block].assignments == block.assignments;
  });
  EXPECT_TRUE(agree) << "stepwise and fast-forward schedules diverge";
}

TEST_P(MultiResFamilySweep, ResetReuseMatchesFreshEngine) {
  const Instance first = make(/*jobs=*/16);
  const Instance second = make(/*jobs=*/40);
  if (first.resource_count() == 1) GTEST_SKIP() << "facade delegates at d=1";
  core::MultiResEngine engine(first, params_for(first));
  core::Schedule scratch;
  engine.run(scratch);

  engine.reset(second, params_for(second));
  core::Schedule reused;
  engine.run(reused);

  core::MultiResEngine fresh(second, params_for(second));
  core::Schedule direct;
  fresh.run(direct);
  EXPECT_EQ(reused, direct);
}

TEST_P(MultiResFamilySweep, StrongExceptionGuaranteeUnderFailpoint) {
  SKIP_WITHOUT_FAILPOINTS();
  const Instance inst = make();
  if (inst.resource_count() == 1) GTEST_SKIP() << "facade delegates at d=1";
  core::Schedule out;
  out.append(3, {core::Assignment{0, 1}});  // pre-existing content
  const core::Schedule before = out;

  fp::reset();
  fp::arm("multires_engine.step", 3);
  core::MultiResEngine engine(inst, params_for(inst));
  EXPECT_ANY_THROW(engine.run(out));
  fp::reset();
  EXPECT_EQ(out, before) << "rollback must restore the pre-run schedule";
}

TEST_P(MultiResFamilySweep, PerAxisScalingPreservesStructure) {
  // The canonical cache divides each axis by an independent factor; every
  // admission decision must be invariant, so block lengths match 1:1 and
  // primary shares scale by exactly the primary factor.
  const Instance inst = make();
  if (inst.resource_count() == 1) GTEST_SKIP() << "facade delegates at d=1";
  const std::size_t d = inst.resource_count();
  std::vector<Res> factors(d);
  for (std::size_t k = 0; k < d; ++k) {
    factors[k] = static_cast<Res>(2 + 3 * k);  // distinct per axis
  }
  std::vector<Res> caps(d);
  for (std::size_t k = 0; k < d; ++k) caps[k] = inst.capacity(k) * factors[k];
  std::vector<MultiJob> jobs(inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    jobs[j].size = inst.sizes()[j];
    jobs[j].requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      jobs[j].requirements[k] = inst.requirement(j, k) * factors[k];
    }
  }
  const Instance scaled(inst.machines(), std::move(caps), std::move(jobs));

  const core::Schedule base = core::schedule_multires(inst);
  const core::Schedule big = core::schedule_multires(scaled);
  ASSERT_EQ(base.makespan(), big.makespan());
  ASSERT_EQ(base.blocks().size(), big.blocks().size());
  for (std::size_t b = 0; b < base.blocks().size(); ++b) {
    const core::Block& lhs = base.blocks()[b];
    const core::Block& rhs = big.blocks()[b];
    ASSERT_EQ(lhs.length, rhs.length) << "block " << b;
    ASSERT_EQ(lhs.assignments.size(), rhs.assignments.size()) << "block " << b;
    for (std::size_t a = 0; a < lhs.assignments.size(); ++a) {
      EXPECT_EQ(lhs.assignments[a].job, rhs.assignments[a].job);
      EXPECT_EQ(lhs.assignments[a].share * factors[0],
                rhs.assignments[a].share);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MultiResFamilySweep,
    ::testing::Combine(::testing::ValuesIn(workloads::multires_families()),
                       ::testing::Values(2, 3, 8),
                       ::testing::Values(std::size_t{2}, std::size_t{3}),
                       ::testing::Values(1u, 7u)));

// ----------------------------------------------------------------- d=1 pin

/// schedule_multires at d = 1 must be schedule-identical to schedule_sos on
/// the existing single-resource family sweep (ISSUE acceptance pin).
using PinParam = std::tuple<std::string, int, std::uint64_t>;

class MultiResD1Pin : public ::testing::TestWithParam<PinParam> {};

TEST_P(MultiResD1Pin, DelegatesToWindowScheduler) {
  const auto [family, machines, seed] = GetParam();
  workloads::SosConfig cfg;
  cfg.machines = machines;
  cfg.capacity = 720;
  cfg.jobs = 48;
  cfg.max_size = 3;
  cfg.seed = seed;
  const Instance inst = workloads::make_instance(family, cfg);
  EXPECT_EQ(core::schedule_multires(inst), core::schedule_sos(inst));
  EXPECT_EQ(core::schedule_multires(inst, {.fast_forward = false}),
            core::schedule_sos(inst, {.fast_forward = false}));
}

INSTANTIATE_TEST_SUITE_P(
    Families, MultiResD1Pin,
    ::testing::Combine(::testing::ValuesIn(workloads::instance_families()),
                       ::testing::Values(2, 5),
                       ::testing::Values(1u, 11u)));

// ---------------------------------------------------------------------- IO

TEST(MultiResIo, TextV2RoundTrip) {
  const Instance inst = two_axis_instance();
  std::stringstream ss;
  io::write_instance(ss, inst);
  EXPECT_NE(ss.str().find("# sharedres instance v2"), std::string::npos);
  EXPECT_NE(ss.str().find("resources 2"), std::string::npos);
  const Instance back = io::read_instance(ss);
  ASSERT_EQ(back.resource_count(), 2u);
  EXPECT_EQ(back.capacities(), inst.capacities());
  EXPECT_EQ(back.requirements(), inst.requirements());
  EXPECT_EQ(back.sizes(), inst.sizes());
  const Res* a1 = inst.axis_requirements(1);
  const Res* b1 = back.axis_requirements(1);
  for (std::size_t j = 0; j < inst.size(); ++j) EXPECT_EQ(a1[j], b1[j]);
}

TEST(MultiResIo, SingleResourceStaysOnV1Bytes) {
  const Instance inst(2, 10, {Job{2, 6}, Job{1, 3}});
  std::stringstream ss;
  io::write_instance(ss, inst);
  EXPECT_EQ(ss.str(),
            "# sharedres instance v1\nmachines 2\ncapacity 10\njobs 2\n"
            "job 1 3\njob 2 6\n");
}

TEST(MultiResIo, RejectsUnknownVersionAndMalformedJobLines) {
  {
    std::stringstream ss("# sharedres instance v3\nmachines 2\n");
    EXPECT_THROW((void)io::read_instance(ss), util::Error);
  }
  {
    std::stringstream ss(
        "# sharedres instance v2\nmachines 2\nresources 2\n"
        "capacity 10 6\njobs 1\njob 1 2\n");  // missing the axis-1 value
    EXPECT_THROW((void)io::read_instance(ss), util::Error);
  }
}

TEST(MultiResIo, NdjsonRoundTripPreservesOriginalOrder) {
  const Instance inst(3, {10, 6},
                      {MultiJob{1, {7, 2}}, MultiJob{3, {2, 5}}});
  const std::string line = batch::format_instance_record(inst, "mr-1");
  EXPECT_NE(line.find("\"capacities\":[10,6]"), std::string::npos);
  EXPECT_NE(line.find("\"requirements\":[[7,2],[2,5]]"), std::string::npos);
  const batch::InstanceRecord rec = batch::parse_instance_record(line);
  EXPECT_EQ(rec.id, "mr-1");
  ASSERT_EQ(rec.instance.resource_count(), 2u);
  EXPECT_EQ(rec.instance.capacities(), inst.capacities());
  EXPECT_EQ(rec.instance.requirements(), inst.requirements());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(rec.instance.requirement(j, 1), inst.requirement(j, 1));
  }
}

TEST(MultiResIo, NdjsonRejectsMixedForms) {
  EXPECT_THROW((void)batch::parse_instance_record(
                   R"({"machines":2,"capacity":10,"requirements":[[1,1]]})"),
               util::Error);
  EXPECT_THROW((void)batch::parse_instance_record(
                   R"({"machines":2,"capacities":[10,6]})"),
               util::Error);
  EXPECT_THROW(
      (void)batch::parse_instance_record(
          R"({"machines":2,"capacities":[10,6],"requirements":[[1]]})"),
      util::Error);
}

// -------------------------------------------------------------- generators

TEST(MultiResGenerators, DeterministicInRangeAndDimensioned) {
  workloads::MultiResConfig cfg;
  cfg.machines = 4;
  cfg.resources = 3;
  cfg.capacity = 500;
  cfg.jobs = 32;
  cfg.max_size = 4;
  cfg.seed = 9;
  for (const std::string& family : workloads::multires_families()) {
    const Instance a = workloads::make_multires_instance(family, cfg);
    const Instance b = workloads::make_multires_instance(family, cfg);
    ASSERT_EQ(a.resource_count(), 3u) << family;
    ASSERT_EQ(a.size(), 32u) << family;
    EXPECT_EQ(a.requirements(), b.requirements()) << family;
    for (std::size_t k = 0; k < 3; ++k) {
      const Res* reqs = a.axis_requirements(k);
      for (std::size_t j = 0; j < a.size(); ++j) {
        EXPECT_GE(reqs[j], 1) << family;
        EXPECT_LE(reqs[j], cfg.capacity) << family;
      }
    }
    // In range ⇒ the rigid facade accepts every generated instance.
    expect_clean(a, core::schedule_multires(a));
  }
  EXPECT_THROW(workloads::make_multires_instance("nope", cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace sharedres
