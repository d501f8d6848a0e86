// The one run() of every step engine (DESIGN.md §17). Internal: included
// by the engines' .cpp files, where it is instantiated, so no step makes a
// virtual call.
//
// Per block: fail point and deadline check under the engine's site name,
// plan, apply, and with fast_forward one re-plan — identical shares repeat
// unchanged until the first finish (DESIGN.md §4), so the block extends to
// just before it. Around the loop: Schedule::Mark and rollback on any throw
// (strong exception guarantee for `out`), then one publish_stats().
//
// Engine hooks (private ones reached as a friend): Step, kStepSite,
// block_estimate, done, prepare_step, plan_into, apply, record_block,
// publish_stats; optionally make_info and now (observers),
// planned_reps (a block length fixed at plan time: the unit engines' solo
// window) and may_repeat/plan_into/steps_until_change (the re-plan;
// SosEngine's unfracture clamp and MultiResEngine's rem_steps_ live in
// steps_until_change). Stepwise mode skips both fast-forward hooks and
// stays the reference oracle.
#pragma once

#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "util/checked.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"

namespace sharedres::core {

/// The engine-independent part of an observer's StepInfo: one step of
/// `shares` from `first_step`, with the shares' total and the count of jobs
/// granted their full requirement (`reqs`: the primary requirement lane).
inline StepInfo shares_info(const std::vector<Assignment>& shares,
                            Time first_step, const Res* reqs) {
  StepInfo info;
  info.first_step = first_step;
  info.shares = shares;
  for (const Assignment& a : shares) {
    info.resource_used = util::add_checked(info.resource_used, a.share);
    if (a.share == reqs[a.job]) ++info.full_requirement_jobs;
  }
  return info;
}

struct EngineDriver {
  template <class Engine>
  static void run(Engine& e, Schedule& out, bool fast_forward,
                  StepObserver* observer) {
    // Two scratch steps reused across every block: a block costs exactly one
    // share-vector allocation — the one that ends up stored in the schedule.
    typename Engine::Step planned;
    typename Engine::Step again;
    out.reserve_blocks(e.block_estimate());
    const Schedule::Mark mark = out.mark();
    try {
      while (!e.done()) {
        SHAREDRES_FAILPOINT(Engine::kStepSite);
        util::deadline::check(Engine::kStepSite);
        e.prepare_step();
        e.plan_into(planned);
        StepInfo info;
        if constexpr (requires { e.make_info(planned, Time{}); }) {
          if (observer != nullptr) info = e.make_info(planned, e.now() + 1);
        }
        Time reps = 1;
        if constexpr (requires { e.planned_reps(planned); }) {
          if (fast_forward) reps = e.planned_reps(planned);
        }
        const bool finished_any = e.apply(planned, reps);
        if constexpr (requires { e.steps_until_change(again); }) {
          if (fast_forward && !finished_any && !e.done() &&
              e.may_repeat(planned)) {
            e.plan_into(again);
            if (again.shares == planned.shares) {
              const Time extra = e.steps_until_change(again) - 1;
              if (extra > 0) {
                e.apply(again, extra);
                reps += extra;
              }
            }
          }
        }
        // Before the append below may move the share vector away.
        e.record_block(planned, reps);
        if (observer != nullptr) {
          info.repeat = reps;
          out.append(reps, planned.shares);
          observer->on_step(info);
        } else {
          out.append(reps, std::move(planned.shares));
        }
      }
    } catch (...) {
      out.rollback(mark);
      throw;
    }
    e.publish_stats();
  }
};

}  // namespace sharedres::core
