#include "core/unit_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/engine_driver.hpp"
#include "obs/registry.hpp"

namespace sharedres::core {

namespace {

void ensure(bool cond, const char* msg) {
  if (!cond) throw std::logic_error(std::string("UnitEngine invariant: ") + msg);
}

}  // namespace

UnitEngine::UnitEngine(const Instance& instance) { reset(instance); }

void UnitEngine::reset(const Instance& instance) {
  inst_ = &instance;
  reqs_ = instance.requirements().data();
  m_ = static_cast<std::size_t>(instance.machines());
  capacity_ = instance.capacity();
  ensure(instance.unit_size(), "unit-size jobs required");
  ensure(m_ >= 2, "m >= 2 required");

  const std::size_t n = instance.size();
  rem_.resize(n);
  // Unit sizes: s_j = r_j, so the initial keys are a straight copy of the
  // contiguous SoA requirement lane.
  std::copy_n(reqs_, n, rem_.begin());

  head_ = n;
  tail_ = n + 1;
  next_.resize(n + 2);
  prev_.resize(n + 2);
  JobId last = head_;
  for (JobId j = 0; j < n; ++j) {
    next_[last] = j;
    prev_[j] = last;
    last = j;
  }
  next_[last] = tail_;
  prev_[tail_] = last;
  next_[tail_] = tail_;
  prev_[head_] = head_;
  remaining_jobs_ = n;

  succ_.resize(n + 1);
  for (JobId i = 0; i <= n; ++i) succ_[i] = i;  // index n == "past the end"

  iota_ = kNoJob;
  cursor_ = kNoJob;
  now_ = 0;
  stats_ = {};  // a prior run that threw may have left stats behind
}

JobId UnitEngine::find_alive(JobId i) const {
  while (succ_[i] != i) {
    succ_[i] = succ_[succ_[i]];  // path halving
    i = succ_[i];
  }
  return i;
}

void UnitEngine::finish(JobId j) {
  unlink(j);
  succ_[j] = j + 1;
  --remaining_jobs_;
  if (j == iota_) iota_ = kNoJob;
}

std::vector<JobId> UnitEngine::virtual_order() const {
  std::vector<JobId> out;
  out.reserve(remaining_jobs_);
  for (JobId j = next_[head_]; j != tail_; j = next_[j]) out.push_back(j);
  return out;
}

void UnitEngine::unlink(JobId j) {
  next_[prev_[j]] = next_[j];
  prev_[next_[j]] = prev_[j];
}

void UnitEngine::reposition_started(JobId j) {
  // The key of j just shrank; re-insert it so the list stays sorted. Every
  // node except j carries its static requirement as key, so the insertion
  // point is: before the first *alive* static job whose requirement exceeds
  // key(j) — found by binary search over the sorted requirements plus a
  // next-alive DSU hop, O(log n) instead of a (potentially linear) walk.
  if (prev_[j] == head_ || key(prev_[j]) <= key(j)) return;  // in place
  unlink(j);
  // Binary search over the SoA requirement lane: half the bytes per probe of
  // the former Job-struct search, same upper_bound semantics.
  const std::vector<Res>& reqs = inst_->requirements();
  auto it = std::upper_bound(reqs.begin(), reqs.end(), key(j));
  JobId f = find_alive(static_cast<JobId>(it - reqs.begin()));
  if (f == j) f = find_alive(j + 1);  // skip the unlinked job itself
  const JobId fnode = (f >= inst_->size()) ? tail_ : f;
  const JobId p = prev_[fnode];
  next_[p] = j;
  prev_[j] = p;
  next_[j] = fnode;
  prev_[fnode] = j;
}

void UnitEngine::build_window(Step& plan) const {
  ensure(remaining_jobs_ > 0, "build_window after completion");
  // Start from the started job ι (the only survivor of the last window); if
  // the previous window completed fully, resume from the cursor it left
  // behind instead of restarting from the leftmost remaining job — the
  // GrowWindowLeft below re-examines the ≤ m−1 jobs left of the cursor, and
  // everything further left is known to slide (see the cursor_ invariant).
  JobId start;
  if (iota_ != kNoJob) {
    start = iota_;
    if (obs::enabled()) ++stats_.iota_resumes;
  } else if (cursor_ != kNoJob && cursor_ != head_) {
    start = cursor_;
    if (obs::enabled()) ++stats_.cursor_resumes;
  } else {
    start = next_[head_];
    // From-scratch walk (no cursor to resume from). The PR 1 cursor
    // invariant keeps this O(n) over a whole run — asserted from this
    // counter by tests/test_sos_properties.cpp.
    if (obs::enabled()) ++stats_.window_rebuilds;
  }
  plan.wl = plan.wr = start;
  plan.wsize = 1;
  plan.wkey = key(plan.wl);
  std::uint64_t hops = 0;

  // GrowWindowLeft(W, t, m, 1).
  while (plan.wsize < m_ && prev_[plan.wl] != head_ && plan.wkey < capacity_) {
    plan.wl = prev_[plan.wl];
    ++plan.wsize;
    plan.wkey = util::add_checked(plan.wkey, key(plan.wl));
    ++hops;
  }
  // GrowWindowRight(W, t, m, 1).
  while (plan.wkey < capacity_ && next_[plan.wr] != tail_ && plan.wsize < m_) {
    plan.wr = next_[plan.wr];
    ++plan.wsize;
    plan.wkey = util::add_checked(plan.wkey, key(plan.wr));
    ++hops;
  }
  // MoveWindowRight(W, t, 1): slide while the leftmost member is unstarted.
  while (plan.wkey < capacity_ && next_[plan.wr] != tail_ && plan.wl != iota_) {
    plan.wkey -= key(plan.wl);
    plan.wl = next_[plan.wl];
    plan.wr = next_[plan.wr];
    plan.wkey = util::add_checked(plan.wkey, key(plan.wr));
    ++hops;
  }
  if (obs::enabled()) stats_.walk_hops += hops;

  const Res others = plan.wkey - key(plan.wr);
  ensure(others < capacity_, "Property (b) violated by the unit window");
  plan.max_share = std::min(capacity_ - others, key(plan.wr));
  ensure(plan.max_share > 0, "unit window assigns max W a zero share");
}

void UnitEngine::plan_into(Step& planned) const {
  build_window(planned);
  planned.fractured = iota_;
  planned.solo = false;
  planned.shares.clear();
  planned.shares.reserve(planned.wsize);
  for (JobId j = planned.wl;; j = next_[j]) {
    const Res share = j == planned.wr ? planned.max_share : key(j);
    planned.shares.push_back({j, share});
    if (j == planned.wr) break;
  }
}

StepInfo UnitEngine::make_info(const Step& planned, Time first_step) const {
  StepInfo info = shares_info(planned.shares, first_step, reqs_);
  info.window_size = planned.wsize;
  info.window_requirement = planned.wkey;
  info.left_border = prev_[planned.wl] == head_;
  info.right_border = next_[planned.wr] == tail_;
  info.step_case =
      planned.wkey >= capacity_ ? StepCase::kHeavy : StepCase::kLight;
  if (planned.fractured != kNoJob) info.fractured = planned.fractured;
  return info;
}

Time UnitEngine::planned_reps(Step& planned) {
  planned.solo = planned.wsize == 1 && planned.max_share == capacity_ &&
                 key(planned.wr) > capacity_;
  return planned.solo ? key(planned.wr) / capacity_ : 1;
}

bool UnitEngine::apply(const Step& planned, Time reps) {
  // Every member except possibly wr finishes; only the solo window (whose
  // share·reps never exceeds its key) runs for reps > 1.
  const JobId resume = prev_[planned.wl];
  bool finished_any = false;
  for (const Assignment& a : planned.shares) {
    rem_[a.job] -= a.share * reps;
    if (rem_[a.job] == 0) {
      finish(a.job);
      finished_any = true;
    } else {
      ensure(a.job == planned.wr,
             "non-max unit window job failed to finish");
      iota_ = a.job;
      reposition_started(a.job);
    }
  }
  if (iota_ == kNoJob) cursor_ = resume;  // full completion: resume here
  now_ += reps;
  return finished_any;
}

StepInfo UnitEngine::step() {
  Step planned;
  plan_into(planned);
  StepInfo info = make_info(planned, now_ + 1);
  apply(planned, 1);
  return info;
}

/// In the light case every window job receives its full *current* key, so
/// at most the started job ι falls short of its static requirement — the
/// unit-case reading of the Theorem 3.3 dichotomy.
void UnitEngine::record_block(const Step& planned, Time reps) {
  if (!obs::enabled()) return;
  const bool heavy = planned.wkey >= capacity_;
  std::size_t full = 0;
  if (!heavy) {
    for (const Assignment& a : planned.shares) {
      if (a.share == reqs_[a.job]) ++full;
    }
  }
  stats_.record_block(reps, heavy, planned.wsize - full <= 1, planned.solo,
                      planned.fractured != kNoJob);
}

void UnitEngine::publish_stats() { stats_.publish(); }

void UnitRunStats::record_block(Time reps, bool heavy, bool full_requirement,
                                bool solo, bool fractured) {
  const auto ureps = static_cast<std::uint64_t>(reps);
  ++blocks;
  steps += ureps;
  if (heavy) {
    case1_steps += ureps;
  } else {
    case2_steps += ureps;
    if (full_requirement) full_requirement_steps += ureps;
  }
  fast_forward_steps += ureps - 1;
  if (solo) ++fast_forward_blocks;
  if (fractured) ++fractured_handoffs;
}

void UnitRunStats::publish() {
  if (!obs::enabled()) return;
  SHAREDRES_OBS_COUNT("engine.unit.runs");
  SHAREDRES_OBS_COUNT_N("engine.unit.iota_resumes", iota_resumes);
  SHAREDRES_OBS_COUNT_N("engine.unit.cursor_resumes", cursor_resumes);
  SHAREDRES_OBS_COUNT_N("engine.unit.window_rebuilds", window_rebuilds);
  SHAREDRES_OBS_COUNT_N("engine.unit.walk_hops", walk_hops);
  SHAREDRES_OBS_COUNT_N("engine.unit.blocks", blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit.steps", steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.case1_steps", case1_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.case2_steps", case2_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.full_requirement_steps",
                        full_requirement_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.fast_forward_steps", fast_forward_steps);
  SHAREDRES_OBS_COUNT_N("engine.unit.fast_forward_blocks",
                        fast_forward_blocks);
  SHAREDRES_OBS_COUNT_N("engine.unit.fractured_handoffs", fractured_handoffs);
  *this = {};
}

void UnitEngine::run(Schedule& out, bool fast_forward, StepObserver* observer) {
  EngineDriver::run(*this, out, fast_forward, observer);
}

}  // namespace sharedres::core
