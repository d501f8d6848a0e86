#include "core/multires_engine.hpp"

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
    throw std::logic_error(std::string("MultiResEngine invariant: ") + msg);
  }
}

}  // namespace

MultiResEngine::MultiResEngine(const Instance& instance, Params params) {
  reset(instance, params);
}

void MultiResEngine::reset(const Instance& instance, Params params) {
  inst_ = &instance;
  params_ = params;
  axes_ = instance.resource_count();
  ensure(params_.machine_cap >= 1, "machine_cap must be >= 1");

  const std::size_t n = instance.size();
  rem_steps_.resize(n);
  const std::vector<Res>& sizes = instance.sizes();
  for (std::size_t j = 0; j < n; ++j) rem_steps_[j] = sizes[j];

  used_.assign(axes_, 0);
  for (std::size_t k = 0; k < axes_; ++k) {
    const Res* reqs = instance.axis_requirements(k);
    const Res cap = instance.capacity(k);
    for (std::size_t j = 0; j < n; ++j) {
      // The facade rejects over-capacity jobs with a typed error before the
      // engine exists; inside the engine it is an invariant.
      ensure(reqs[j] <= cap, "job requirement exceeds an axis capacity");
    }
  }

  next_unstarted_.resize(n);
  prev_unstarted_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    next_unstarted_[j] = j + 1 < n ? j + 1 : kNoJob;
    prev_unstarted_[j] = j > 0 ? j - 1 : kNoJob;
  }
  head_unstarted_ = n > 0 ? 0 : kNoJob;
  unstarted_ = n;

  active_.clear();
  // At most n jobs are ever active, so min(m, n) is all the capacity the
  // run needs; reserving m outright dies on a huge `machines`.
  active_.reserve(std::min<std::size_t>(params_.machine_cap, n));
  remaining_jobs_ = n;
  now_ = 0;
  finished_scratch_.clear();
  stats_ = {};  // a prior run that threw may have left stats behind
}

bool MultiResEngine::fits(JobId j) const {
  for (std::size_t k = 0; k < axes_; ++k) {
    // used_[k] ≤ C_k always, so the subtraction form cannot overflow.
    if (inst_->axis_requirements(k)[j] > inst_->capacity(k) - used_[k]) {
      return false;
    }
  }
  return true;
}

void MultiResEngine::admit(JobId j) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it == active_.end() || *it != j, "admit of an already-running job");
  active_.insert(it, j);
  for (std::size_t k = 0; k < axes_; ++k) {
    used_[k] += inst_->axis_requirements(k)[j];
    ensure(used_[k] <= inst_->capacity(k), "admission exceeds a capacity");
  }
  // Unlink from the unstarted list (monotone deletion).
  const JobId prev = prev_unstarted_[j];
  const JobId next = next_unstarted_[j];
  if (prev == kNoJob) {
    head_unstarted_ = next;
  } else {
    next_unstarted_[prev] = next;
  }
  if (next != kNoJob) prev_unstarted_[next] = prev;
  --unstarted_;
}

void MultiResEngine::prepare_step() {
  ensure(remaining_jobs_ > 0, "prepare_step after completion");
  std::uint64_t admissions = 0;
  JobId j = head_unstarted_;
  while (j != kNoJob && active_.size() < params_.machine_cap) {
    const JobId next = next_unstarted_[j];
    if (fits(j)) {
      admit(j);
      ++admissions;
    }
    j = next;
  }
  if (obs::enabled()) stats_.admissions += admissions;
}

MultiResStep MultiResEngine::plan() const {
  MultiResStep out;
  plan_into(out);
  return out;
}

void MultiResEngine::plan_into(MultiResStep& out) const {
  ensure(!active_.empty(), "plan with no running jobs");
  out.shares.clear();
  out.shares.reserve(active_.size());
  const Res* reqs = inst_->requirements().data();
  for (const JobId j : active_) {
    out.shares.push_back({j, reqs[j]});  // rigid: always full rate
  }
}

bool MultiResEngine::apply(const MultiResStep& planned, Time reps) {
  ensure(reps >= 1, "apply with reps < 1");
  finished_scratch_.clear();
  const Res* reqs = inst_->requirements().data();
  for (const Assignment& a : planned.shares) {
    ensure(a.share == reqs[a.job], "rigid plan with a non-full-rate share");
    ensure(rem_steps_[a.job] >= reps,
           "apply overshoots a job's remaining steps");
    rem_steps_[a.job] -= reps;
    if (rem_steps_[a.job] == 0) finished_scratch_.push_back(a.job);
  }
  for (const JobId j : finished_scratch_) finish_job(j);
  now_ += reps;
  return !finished_scratch_.empty();
}

void MultiResEngine::finish_job(JobId j) {
  ensure(rem_steps_[j] == 0, "finish_job on unfinished job");
  const auto it = std::lower_bound(active_.begin(), active_.end(), j);
  ensure(it != active_.end() && *it == j, "finish_job on non-running job");
  active_.erase(it);
  for (std::size_t k = 0; k < axes_; ++k) {
    used_[k] -= inst_->axis_requirements(k)[j];
  }
  --remaining_jobs_;
}

void MultiResEngine::run(Schedule& out, bool fast_forward) {
  EngineDriver::run(*this, out, fast_forward, nullptr);
}

/// No finish means the running set, the per-axis usage, and the unstarted
/// set are all unchanged, so prepare_step() would admit nothing and the
/// re-planned step is identical until the first finish.
Time MultiResEngine::steps_until_change(const MultiResStep& again) const {
  Time until_change = std::numeric_limits<Time>::max();
  for (const Assignment& a : again.shares) {
    until_change = std::min(until_change, rem_steps_[a.job]);
  }
  return until_change;
}

/// The planned shares list exactly the jobs running in the block, and apply()
/// never admits, so the block's facts read off `planned` and unstarted_.
void MultiResEngine::record_block(const MultiResStep& planned, Time reps) {
  if (!obs::enabled()) return;
  const auto ureps = static_cast<std::uint64_t>(reps);
  bool saturated = false;
  for (std::size_t k = 0; k < axes_ && !saturated; ++k) {
    const Res* reqs = inst_->axis_requirements(k);
    Res used = 0;
    for (const Assignment& a : planned.shares) used += reqs[a.job];
    saturated = used == inst_->capacity(k);
  }
  ++stats_.blocks;
  stats_.steps += ureps;
  stats_.fast_forward_steps += ureps - 1;
  if (saturated) stats_.saturated_steps += ureps;
  if (planned.shares.size() == params_.machine_cap) {
    stats_.machine_full_steps += ureps;
  }
  if (unstarted_ == 0) stats_.drain_steps += ureps;
}

void MultiResEngine::publish_stats() {
  if (!obs::enabled()) return;
  SHAREDRES_OBS_COUNT("engine.multires.runs");
  SHAREDRES_OBS_COUNT_N("engine.multires.blocks", stats_.blocks);
  SHAREDRES_OBS_COUNT_N("engine.multires.steps", stats_.steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.fast_forward_steps",
                        stats_.fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.admissions", stats_.admissions);
  SHAREDRES_OBS_COUNT_N("engine.multires.saturated_steps",
                        stats_.saturated_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.machine_full_steps",
                        stats_.machine_full_steps);
  SHAREDRES_OBS_COUNT_N("engine.multires.drain_steps", stats_.drain_steps);
  stats_ = {};
}

}  // namespace sharedres::core
