// The restart hint of the window walk (DESIGN.md §4), shared by SosEngine
// and UnitEngine's walk.
//
// When the window is empty, Listings 1–2 restart the walk at the leftmost
// remaining job and slide right across every light window. Between two such
// restarts jobs only leave the list and every alive key is the static r_j,
// so a window of k alive jobs ending at a job e can only lose requirement.
// Every window that ended left of the previous restart's right end is still
// light, and the walk from the head is bound to reach the window ending at
// the first alive job at or after that end. seed_restart_window() builds
// that window directly: one next-alive lookup plus k − 1 hops back.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "util/checked.hpp"

namespace sharedres::core {

/// Next-alive successor structure over the static sorted job order (DSU
/// with path halving): find(i) is the first alive job with index ≥ i, or
/// end() when no such job is alive.
class NextAlive {
 public:
  /// Every job 0..n−1 alive.
  void reset(std::size_t n) {
    succ_.resize(n + 1);
    for (JobId i = 0; i <= n; ++i) succ_[i] = i;  // index n == "past the end"
  }
  void erase(JobId j) { succ_[j] = j + 1; }
  [[nodiscard]] JobId end() const { return succ_.size() - 1; }
  [[nodiscard]] JobId find(JobId i) const {
    while (succ_[i] != i) {
      succ_[i] = succ_[succ_[i]];  // path halving
      i = succ_[i];
    }
    return i;
  }

 private:
  mutable std::vector<JobId> succ_;
};

/// A full window: the k alive jobs from wl to wr and their summed key.
struct SeededWindow {
  JobId wl = kNoJob;
  JobId wr = kNoJob;
  Res sum = 0;
};

/// The k-window an empty-window restart's literal walk (GrowWindowRight from
/// the head, then MoveWindowRight) passes through on its way right: the one
/// ending at the first alive job e at or after `hint`, or at the last alive
/// job when none is. `hint` is the right end of the previous restart's
/// window (0 before the first one). Requires that no started job is alive
/// and that every key is static since that restart. The list (`prev`, with
/// sentinels `head`/`tail`) must hold the alive jobs in static order.
///
/// With at least k alive jobs before e, the first k of them form a light
/// window that ends before `hint`, so the literal walk grows to k jobs and
/// slides through every window up to e. With fewer, it returns nullopt and
/// the caller walks from the head, which costs O(k). Each hop back is added
/// to `hops`.
template <class Key>
[[nodiscard]] std::optional<SeededWindow> seed_restart_window(
    const NextAlive& alive, JobId hint, const std::vector<JobId>& prev,
    JobId head, JobId tail, std::size_t k, Key key, std::uint64_t& hops) {
  JobId e = alive.find(hint);
  if (e == alive.end()) e = prev[tail];
  SeededWindow w{e, e, key(e)};
  for (std::size_t size = 1; size < k; ++size) {
    if (prev[w.wl] == head) return std::nullopt;
    w.wl = prev[w.wl];
    w.sum = util::add_checked(w.sum, key(w.wl));
    ++hops;
  }
  if (prev[w.wl] == head) return std::nullopt;
  return w;
}

}  // namespace sharedres::core
