#include "core/improved_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/engine_driver.hpp"
#include "obs/registry.hpp"
#include "util/checked.hpp"

namespace sharedres::core {

namespace {

// Internal invariant check: these fire only on engine bugs, never on user
// input, but throwing keeps test failures informative.
void ensure(bool cond, const char* msg) {
  if (!cond) {
    throw std::logic_error(std::string("ImprovedEngine invariant: ") + msg);
  }
}

}  // namespace

ImprovedEngine::ImprovedEngine(const Instance& instance, Params params) {
  reset(instance, params);
}

void ImprovedEngine::reset(const Instance& instance, Params params) {
  inst_ = &instance;
  reqs_ = instance.requirements().data();
  totals_ = instance.total_requirements().data();
  params_ = params;
  ensure(params_.machine_cap >= 1, "machine_cap must be >= 1");
  ensure(params_.budget >= 1, "budget must be >= 1");

  const std::size_t n = instance.size();
  rem_.resize(n);
  std::copy_n(totals_, n, rem_.begin());

  link_.resize(n + 1);
  for (std::size_t p = 0; p <= n; ++p) link_[p] = p;
  unstarted_ = n;

  active_.clear();
  active_.reserve(params_.machine_cap);
  absorber_ = kNoJob;
  core_req_ = 0;
  remaining_jobs_ = n;
  now_ = 0;
  finished_scratch_.clear();
  stats_ = {};  // a prior run that threw may have left stats behind
}

JobId ImprovedEngine::largest_unstarted_below(std::size_t pos) {
  // 1-based position walk with path halving; link_[0] == 0 is "none".
  std::size_t p = pos;
  while (link_[p] != p) {
    link_[p] = link_[link_[p]];
    p = link_[p];
  }
  return p == 0 ? kNoJob : p - 1;
}

void ImprovedEngine::admit(JobId j, bool as_absorber) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it == active_.end() || *it != j, "admit of an already-running job");
  active_.insert(it, j);
  if (as_absorber) {
    ensure(absorber_ == kNoJob, "second absorber admitted");
    absorber_ = j;
  } else {
    core_req_ = util::add_checked(core_req_, req(j));
    ensure(core_req_ <= params_.budget, "full-rate admissions exceed budget");
  }
  link_[j + 1] = j;  // leave the unstarted set (monotone deletion)
  --unstarted_;
}

void ImprovedEngine::prepare_step() {
  ensure(remaining_jobs_ > 0, "prepare_step after completion");
  const std::size_t n = inst_->size();
  const Res* const end = reqs_ + n;
  std::uint64_t core_adm = 0;
  std::uint64_t abs_adm = 0;
  while (active_.size() < params_.machine_cap && unstarted_ > 0) {
    const bool has_absorber = absorber_ != kNoJob;
    const Res slack = params_.budget - core_req_;
    // Full-rate admission, largest first: with an absorber running its grant
    // must stay ≥ 1, so a candidate needs r < slack (strict); without one,
    // r ≤ slack. Both forms compare resource against resource, so the
    // decision is invariant under uniform scaling of (C, r_1..r_n) — the
    // solve cache's canonicalization contract.
    const auto bound = static_cast<std::size_t>(
        (has_absorber ? std::lower_bound(reqs_, end, slack)
                      : std::upper_bound(reqs_, end, slack)) -
        reqs_);
    const JobId pick = bound == 0 ? kNoJob : largest_unstarted_below(bound);
    if (pick != kNoJob) {
      admit(pick, /*as_absorber=*/false);
      ++core_adm;
      continue;
    }
    // Nothing fits at full rate. If slack remains and no absorber is
    // running, fracture-admit the largest unstarted job: its requirement
    // exceeds the slack (else it would have been admitted above), so it can
    // soak up any capacity later finishes free, and starting the biggest
    // job early serves the longest-job bound.
    if (!has_absorber && slack > 0) {
      admit(largest_unstarted_below(n), /*as_absorber=*/true);
      ++abs_adm;
      continue;
    }
    break;
  }
  if (obs::enabled()) {
    stats_.core_admissions += core_adm;
    stats_.absorber_admissions += abs_adm;
  }
}

BalancedStep ImprovedEngine::plan() const {
  BalancedStep out;
  plan_into(out);
  return out;
}

void ImprovedEngine::plan_into(BalancedStep& out) const {
  ensure(!active_.empty(), "plan with no running jobs");
  out.shares.clear();
  out.shares.reserve(active_.size());
  out.absorber = absorber_;
  for (const JobId j : active_) {
    Res share;
    if (j == absorber_) {
      share = std::min({req(j), rem_[j], params_.budget - core_req_});
      ensure(share > 0, "absorber planned a zero share");
    } else {
      // Full-rate jobs decrement by exactly r_j per step, so rem stays a
      // positive multiple of r_j until the finishing step.
      ensure(rem_[j] >= req(j), "full-rate job with rem < r");
      share = req(j);
    }
    out.shares.push_back({j, share});
  }
}

bool ImprovedEngine::apply(const BalancedStep& planned, Time reps) {
  ensure(reps >= 1, "apply with reps < 1");
  finished_scratch_.clear();
  for (const Assignment& a : planned.shares) {
    const Res total = util::mul_checked(a.share, reps);
    ensure(rem_[a.job] >= total, "apply overshoots a job's remaining work");
    ensure(reps == 1 || rem_[a.job] > util::mul_checked(a.share, reps - 1),
           "apply: a job would finish strictly inside the block");
    rem_[a.job] -= total;
    if (rem_[a.job] == 0) finished_scratch_.push_back(a.job);
  }
  for (const JobId j : finished_scratch_) finish_job(j);
  now_ += reps;
  return !finished_scratch_.empty();
}

void ImprovedEngine::finish_job(JobId j) {
  ensure(rem_[j] == 0, "finish_job on unfinished job");
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it != active_.end() && *it == j, "finish_job on non-running job");
  active_.erase(it);
  if (j == absorber_) {
    absorber_ = kNoJob;
  } else {
    core_req_ -= req(j);
  }
  --remaining_jobs_;
}

StepInfo ImprovedEngine::make_info(const BalancedStep& planned,
                                   Time first_step) const {
  StepInfo info = shares_info(planned.shares, first_step, reqs_);
  info.window_size = active_.size();
  info.window_requirement = core_req_;
  if (absorber_ != kNoJob) {
    info.window_requirement =
        util::add_checked(info.window_requirement, req(absorber_));
    info.fractured = absorber_;
  }
  info.step_case = info.resource_used >= params_.budget ? StepCase::kHeavy
                                                        : StepCase::kLight;
  return info;
}

void ImprovedEngine::run(Schedule& out, bool fast_forward,
                         StepObserver* observer) {
  EngineDriver::run(*this, out, fast_forward, observer);
}

/// No finish means the running set, the committed requirement, and the
/// unstarted set are all unchanged, so prepare_step() would admit nothing —
/// only the absorber's shrinking remaining work can alter the plan, and an
/// identical re-plan stays identical until the first finish.
Time ImprovedEngine::steps_until_change(const BalancedStep& again) const {
  Time until_change = std::numeric_limits<Time>::max();
  for (const Assignment& a : again.shares) {
    until_change = std::min(until_change, util::ceil_div(rem_[a.job], a.share));
  }
  return until_change;
}

/// The planned shares list exactly the jobs running in the block, and apply()
/// never admits, so the block's facts read off `planned` and unstarted_.
void ImprovedEngine::record_block(const BalancedStep& planned, Time reps) {
  if (!obs::enabled()) return;
  const auto ureps = static_cast<std::uint64_t>(reps);
  Res used = 0;
  for (const Assignment& a : planned.shares) {
    used = util::add_checked(used, a.share);
  }
  ++stats_.blocks;
  stats_.steps += ureps;
  stats_.fast_forward_steps += ureps - 1;
  if (used == params_.budget) stats_.saturated_steps += ureps;
  if (planned.shares.size() == params_.machine_cap) {
    stats_.machine_full_steps += ureps;
  }
  if (unstarted_ == 0) stats_.drain_steps += ureps;
}

void ImprovedEngine::publish_stats() {
  if (!obs::enabled()) return;
  SHAREDRES_OBS_COUNT("engine.improved.runs");
  SHAREDRES_OBS_COUNT_N("engine.improved.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.improved.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.saturated_steps",
                        stats_.saturated_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.machine_full_steps",
                        stats_.machine_full_steps);
  SHAREDRES_OBS_COUNT_N("engine.improved.core_admissions",
                        stats_.core_admissions);
  SHAREDRES_OBS_COUNT_N("engine.improved.absorber_admissions",
                        stats_.absorber_admissions);
  SHAREDRES_OBS_COUNT_N("engine.improved.drain_steps", stats_.drain_steps);
  stats_ = {};
}

}  // namespace sharedres::core
