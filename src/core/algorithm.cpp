#include "core/algorithm.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/improved_scheduler.hpp"
#include "core/multires_scheduler.hpp"
#include "core/sos_scheduler.hpp"
#include "core/unit_prefix_engine.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace sharedres::core {

namespace {

/// Rebind the engine in `slot` to `inst`, constructing it on first use.
template <class Engine, class... Params>
Engine& bind(std::optional<Engine>& slot, const Instance& inst,
             Params... params) {
  if (slot) {
    slot->reset(inst, params...);
  } else {
    slot.emplace(inst, params...);
  }
  return *slot;
}

void solve_window_into(const Instance& inst, EngineScratch& scratch,
                       Schedule& out, bool fast_forward = true,
                       StepObserver* observer = nullptr) {
  if (inst.empty()) return;
  bind(scratch.sos, inst,
       SosEngine::Params{
           .window_cap = static_cast<std::size_t>(inst.machines() - 1),
           .budget = inst.capacity(),
           .allow_extra_job = true,
       })
      .run(out, fast_forward, observer);
}

void solve_unit_into(const Instance& inst, EngineScratch& scratch,
                     Schedule& out, bool fast_forward = true,
                     StepObserver* observer = nullptr) {
  if (inst.empty()) return;
  // The prefix regime needs neither the walk's per-step window nor its
  // observer hooks; stepwise runs and observers keep the walk oracle.
  if (fast_forward && observer == nullptr && UnitPrefixEngine::applies(inst)) {
    UnitPrefixEngine(inst).run(out);
    return;
  }
  bind(scratch.unit, inst).run(out, fast_forward, observer);
}

void solve_improved_into(const Instance& inst, EngineScratch& scratch,
                         Schedule& out, bool fast_forward = true) {
  if (inst.empty()) return;
  bind(scratch.improved, inst,
       ImprovedEngine::Params{
           .machine_cap = static_cast<std::size_t>(inst.machines()),
           .budget = inst.capacity(),
       })
      .run(out, fast_forward);

  // Portfolio floor: the window scheduler (and, for unit instances, its
  // unit-size variant) caps the makespan at the proven bounds. Strict `<`
  // keeps ties on the balanced schedule, so the choice is deterministic and
  // invariant under the solve cache's uniform resource scaling (makespans
  // are unchanged by it).
  int winner = 0;
  scratch.alt.reset();
  solve_window_into(inst, scratch, scratch.alt, fast_forward);
  if (scratch.alt.makespan() < out.makespan()) {
    std::swap(out, scratch.alt);
    winner = 1;
  }
  if (inst.unit_size()) {
    scratch.alt.reset();
    solve_unit_into(inst, scratch, scratch.alt, fast_forward);
    if (scratch.alt.makespan() < out.makespan()) {
      std::swap(out, scratch.alt);
      winner = 2;
    }
  }
  switch (winner) {
    case 0: SHAREDRES_OBS_COUNT("engine.improved.portfolio.balanced"); break;
    case 1: SHAREDRES_OBS_COUNT("engine.improved.portfolio.window"); break;
    default: SHAREDRES_OBS_COUNT("engine.improved.portfolio.unit"); break;
  }
}

void solve_multires_into(const Instance& inst, EngineScratch& scratch,
                         Schedule& out, bool fast_forward = true) {
  if (inst.empty()) return;
  if (inst.resource_count() == 1) {
    // Conservative extension: one axis IS the SoS model, so reuse the window
    // scheduler unchanged — d = 1 output is schedule-identical to
    // schedule_sos by construction, including oversized (r > C) jobs.
    SHAREDRES_OBS_COUNT("engine.multires.delegated_sos");
    solve_window_into(inst, scratch, out, fast_forward);
    return;
  }
  SHAREDRES_OBS_COUNT("engine.multires.rigid_runs");
  bind(scratch.multires, inst,
       MultiResEngine::Params{
           .machine_cap = static_cast<std::size_t>(inst.machines()),
       })
      .run(out, fast_forward);
}

}  // namespace

void check_preconditions(const Algorithm& algo, const Instance& inst) {
  const auto reject = [&](const std::string& what) {
    throw util::Error::invalid_instance("algorithm '" + std::string(algo.name) +
                                        "' " + what);
  };
  if (inst.machines() < algo.min_machines ||
      (algo.unit_only && !inst.unit_size())) {
    reject("requires machines >= " + std::to_string(algo.min_machines) +
           (algo.unit_only ? " and unit-size jobs" : ""));
  }
  if (inst.resource_count() == 1) return;
  if (!algo.multi_resource) {
    reject("schedules a single resource, but the instance has " +
           std::to_string(inst.resource_count()) + " resources");
  }
  for (std::size_t k = 0; k < inst.resource_count(); ++k) {
    const Res* reqs = inst.axis_requirements(k);
    const Res cap = inst.capacity(k);
    for (std::size_t j = 0; j < inst.size(); ++j) {
      if (reqs[j] > cap) {
        throw util::Error::invalid_instance(
            "job " + std::to_string(j) + ": requirement " +
            std::to_string(reqs[j]) + " for resource " + std::to_string(k) +
            " exceeds its capacity " + std::to_string(cap) +
            " (rigid d-resource scheduling runs every job at full rate)");
      }
    }
  }
}

void solve(const Algorithm& algo, const Instance& inst, EngineScratch& scratch,
           Schedule& out) {
  out.reset();
  check_preconditions(algo, inst);
  algo.solve_into(inst, scratch, out);
}

const Algorithm kWindowAlgorithm{
    .name = "window",
    .min_machines = 2,
    .ratio_bound = sos_ratio_bound,
    .solve_into = [](const Instance& inst, EngineScratch& scratch,
                     Schedule& out) { solve_window_into(inst, scratch, out); },
};

const Algorithm kUnitAlgorithm{
    .name = "unit",
    .min_machines = 2,
    .unit_only = true,
    .ratio_bound = unit_ratio_bound,
    .solve_into = [](const Instance& inst, EngineScratch& scratch,
                     Schedule& out) { solve_unit_into(inst, scratch, out); },
};

const Algorithm kImprovedAlgorithm{
    .name = "improved",
    .min_machines = 2,
    .ratio_bound = improved_ratio_bound,
    .solve_into =
        [](const Instance& inst, EngineScratch& scratch, Schedule& out) {
          solve_improved_into(inst, scratch, out);
        },
};

const Algorithm kMultiResAlgorithm{
    .name = "multires",
    .min_machines = 2,
    .multi_resource = true,
    .solve_into =
        [](const Instance& inst, EngineScratch& scratch, Schedule& out) {
          solve_multires_into(inst, scratch, out);
        },
};

// ---- facades (sos_scheduler.hpp, improved_scheduler.hpp,
// multires_scheduler.hpp) ----

Schedule schedule_sos(const Instance& instance, const SosOptions& options) {
  check_preconditions(kWindowAlgorithm, instance);
  EngineScratch scratch;
  Schedule out;
  solve_window_into(instance, scratch, out, options.fast_forward,
                    options.observer);
  return out;
}

Schedule schedule_sos_unit(const Instance& instance,
                           const SosOptions& options) {
  check_preconditions(kUnitAlgorithm, instance);
  EngineScratch scratch;
  Schedule out;
  solve_unit_into(instance, scratch, out, options.fast_forward,
                  options.observer);
  return out;
}

Schedule schedule_improved(const Instance& instance,
                           const ImprovedOptions& options) {
  check_preconditions(kImprovedAlgorithm, instance);
  EngineScratch scratch;
  Schedule out;
  solve_improved_into(instance, scratch, out, options.fast_forward);
  return out;
}

Schedule schedule_multires(const Instance& instance,
                           const MultiResOptions& options) {
  check_preconditions(kMultiResAlgorithm, instance);
  EngineScratch scratch;
  Schedule out;
  solve_multires_into(instance, scratch, out, options.fast_forward);
  return out;
}

util::Rational sos_ratio_bound(int machines) {
  if (machines < 3) {
    throw std::invalid_argument("sos_ratio_bound requires m >= 3");
  }
  return util::Rational(2 * machines - 3, machines - 2);
}

util::Rational unit_ratio_bound(int machines) {
  if (machines < 2) {
    throw std::invalid_argument("unit_ratio_bound requires m >= 2");
  }
  return util::Rational(machines, machines - 1);
}

util::Rational improved_ratio_bound(int machines) {
  // The portfolio's makespan is ≤ schedule_sos's on every instance, so
  // Theorem 3.3's bound is inherited verbatim.
  return sos_ratio_bound(machines);
}

util::Rational improved_target_ratio() { return util::Rational(3, 2); }

}  // namespace sharedres::core
