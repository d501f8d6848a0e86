// Metamorphic suite for the canonicalization layer (src/cache) — the
// properties the solve cache's correctness stands on:
//
//   * permutation invariance: any job reordering produces the same canonical
//     key, hash, and — because core::Instance sorts by a total order — the
//     same engine schedules bit-for-bit;
//   * scaling invariance: multiplying every r_j and the capacity by a common
//     factor c produces the same canonical key, with schedules that differ
//     exactly by share · c;
//   * idempotence: canon(canon(I)) == canon(I) with scale 1.
//
// Plus unit tests of SolveCache itself: coalescing, LRU eviction at tiny
// capacities, abandoned-producer fallback, and the stats counters the batch
// summary exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "core/lower_bounds.hpp"
#include "core/multires_scheduler.hpp"
#include "core/sos_scheduler.hpp"
#include "io/text_io.hpp"
#include "workloads/sos_generators.hpp"

namespace sharedres {
namespace {

using cache::CanonicalForm;
using cache::canonicalize;
using cache::decanonicalize_schedule;
using cache::Hash128;
using cache::SolveCache;
using core::Instance;
using core::Job;
using core::Res;
using core::Schedule;

std::vector<Job> shuffled(const Instance& inst, std::uint64_t seed) {
  std::vector<Job> jobs(inst.jobs().begin(), inst.jobs().end());
  std::mt19937_64 rng(seed);
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

Instance scaled(const Instance& inst, Res c) {
  std::vector<Job> jobs;
  jobs.reserve(inst.size());
  for (const Job& j : inst.jobs()) {
    jobs.push_back(Job{j.size, j.requirement * c});
  }
  return Instance(inst.machines(), inst.capacity() * c, std::move(jobs));
}

/// Shares multiplied by c, block structure untouched — the expected image of
/// a schedule under the scaling metamorphosis.
Schedule share_scaled(const Schedule& s, Res c) {
  return decanonicalize_schedule(s, c);
}

TEST(Canonical, IdempotentAndScaleFree) {
  const Instance inst(4, 12, {Job{2, 6}, Job{1, 9}, Job{3, 3}});
  const CanonicalForm once = canonicalize(inst);
  // gcd(12, 6, 9, 3) = 3.
  EXPECT_EQ(once.scale, 3);
  EXPECT_EQ(once.instance().capacity(), 4);
  const CanonicalForm twice = canonicalize(once.instance());
  EXPECT_EQ(twice.scale, 1);
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.hash, once.hash);
}

TEST(Canonical, EmptyInstanceNormalizesCapacityToOne) {
  const CanonicalForm a = canonicalize(Instance(3, 1000, {}));
  const CanonicalForm b = canonicalize(Instance(3, 7, {}));
  EXPECT_EQ(a.instance().capacity(), 1);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.scale, 1000);
  EXPECT_EQ(b.scale, 7);
  // Different machine counts are NOT equivalent.
  const CanonicalForm c = canonicalize(Instance(4, 1000, {}));
  EXPECT_NE(a.key, c.key);
}

TEST(Canonical, KeySeparatesNonEquivalentInstances) {
  const CanonicalForm base =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));
  // Different size, different requirement, extra job, different m: all
  // distinct keys (and, in practice, distinct hashes).
  const std::vector<Instance> different = {
      Instance(3, 10, {Job{3, 4}, Job{1, 6}}),
      Instance(3, 10, {Job{2, 5}, Job{1, 6}}),
      Instance(3, 10, {Job{2, 4}, Job{1, 6}, Job{1, 1}}),
      Instance(4, 10, {Job{2, 4}, Job{1, 6}}),
  };
  for (const Instance& inst : different) {
    const CanonicalForm other = canonicalize(inst);
    EXPECT_NE(other.key, base.key);
    EXPECT_NE(other.hash, base.hash);
  }
}

TEST(Canonical, HashIsStableAcrossProcessRuns) {
  // Pinned values: the key layout and mixing constants are part of the
  // format (kKeyFormatVersion). If this test fails you changed the hash —
  // bump the version byte and regenerate these constants deliberately.
  const CanonicalForm form =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));
  const Hash128 again = cache::hash_bytes(form.key);
  EXPECT_EQ(form.hash, again);
  const CanonicalForm empty = canonicalize(Instance(2, 5, {}));
  EXPECT_EQ(canonicalize(Instance(2, 35, {})).hash, empty.hash);
}

TEST(Canonical, PermutationInvariance_SeededGrids) {
  for (const int m : {2, 3, 4}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Instance inst =
          workloads::tiny_grid_instance(m, 12, 8, 4, seed);
      const CanonicalForm base = canonicalize(inst);
      for (std::uint64_t p = 0; p < 4; ++p) {
        const Instance perm(inst.machines(), inst.capacity(),
                            shuffled(inst, 100 * seed + p));
        const CanonicalForm other = canonicalize(perm);
        EXPECT_EQ(other.key, base.key);
        EXPECT_EQ(other.hash, base.hash);
        EXPECT_EQ(other.scale, base.scale);
        // The stronger engine-level fact the cache exploits: identical
        // schedules, not just identical makespans.
        EXPECT_EQ(core::schedule_sos(perm), core::schedule_sos(inst));
        if (inst.unit_size()) {
          EXPECT_EQ(core::schedule_sos_unit(perm),
                    core::schedule_sos_unit(inst));
        }
      }
    }
  }
}

TEST(Canonical, ScalingInvariance_SeededGrids) {
  for (const int m : {2, 3, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Instance inst =
          workloads::tiny_grid_instance(m, 10, 6, 3, seed);
      const CanonicalForm base = canonicalize(inst);
      for (const Res c : {2, 3, 7, 360}) {
        const Instance big = scaled(inst, c);
        const CanonicalForm other = canonicalize(big);
        EXPECT_EQ(other.key, base.key);
        EXPECT_EQ(other.hash, base.hash);
        EXPECT_EQ(other.scale, base.scale * c);
        // Schedules match exactly up to share · c.
        EXPECT_EQ(core::schedule_sos(big),
                  share_scaled(core::schedule_sos(inst), c));
        if (inst.unit_size()) {
          EXPECT_EQ(core::schedule_sos_unit(big),
                    share_scaled(core::schedule_sos_unit(inst), c));
        }
        // And the Eq. (1) lower bound is scale-free.
        EXPECT_EQ(core::lower_bounds(big).combined(),
                  core::lower_bounds(inst).combined());
      }
    }
  }
}

TEST(Canonical, CombinedMetamorphosis_WorkloadGenerators) {
  // Permute AND scale instances from the experiment generators; the
  // canonical key must collapse the whole orbit onto one representative and
  // the solved makespan must be invariant.
  workloads::SosConfig cfg;
  cfg.machines = 4;
  cfg.capacity = 1000;
  cfg.jobs = 40;
  cfg.max_size = 5;
  for (const std::string& family : workloads::instance_families()) {
    cfg.seed = 42;
    const Instance inst = workloads::make_instance(family, cfg);
    const CanonicalForm base = canonicalize(inst);
    const core::Time makespan = core::schedule_sos(inst).makespan();
    for (const Res c : {2, 5}) {
      const Instance big = scaled(inst, c);
      const Instance mixed(big.machines(), big.capacity(),
                           shuffled(big, static_cast<std::uint64_t>(7 * c)));
      const CanonicalForm other = canonicalize(mixed);
      EXPECT_EQ(other.key, base.key) << family;
      EXPECT_EQ(other.scale, base.scale * c) << family;
      EXPECT_EQ(core::schedule_sos(mixed).makespan(), makespan) << family;
    }
  }
}

TEST(Canonical, DecanonicalizeRoundTrip) {
  // Solving the canonical form and scaling shares back reproduces the
  // source schedule exactly — the identity the cached emit-schedules path
  // depends on for byte-identical output.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance grid = workloads::tiny_grid_instance(3, 9, 6, 4, seed);
    // The ×3 twin guarantees a scale > 1 whatever the grid's own gcd.
    for (const Instance& inst : {grid, scaled(grid, 3)}) {
      const CanonicalForm form = canonicalize(inst);
      const Schedule canonical = core::schedule_sos(form.instance());
      EXPECT_EQ(decanonicalize_schedule(canonical, form.scale),
                core::schedule_sos(inst));
      // The cache's writer scales while printing: the same text as printing
      // the decanonicalized copy.
      std::string text;
      io::append_schedule(text, canonical, form.scale);
      std::ostringstream reference;
      io::write_schedule(reference,
                         decanonicalize_schedule(canonical, form.scale));
      EXPECT_EQ(text, reference.str()) << "seed " << seed;
    }
  }
}

// ---- d-resource canonicalization (DESIGN.md §16) ---------------------------

using core::MultiJob;

Instance axis_scaled(const Instance& inst, const std::vector<Res>& factors) {
  const std::size_t d = inst.resource_count();
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
  return Instance(inst.machines(), std::move(caps), std::move(jobs));
}

Instance axes_permuted(const Instance& inst,
                       const std::vector<std::size_t>& perm) {
  // perm maps new axis position -> source axis; perm[0] must be 0.
  const std::size_t d = inst.resource_count();
  std::vector<Res> caps(d);
  for (std::size_t k = 0; k < d; ++k) caps[k] = inst.capacity(perm[k]);
  std::vector<MultiJob> jobs(inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    jobs[j].size = inst.sizes()[j];
    jobs[j].requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      jobs[j].requirements[k] = inst.requirement(j, perm[k]);
    }
  }
  return Instance(inst.machines(), std::move(caps), std::move(jobs));
}

TEST(CanonicalMultiRes, D1KeyIsByteIdenticalToClassicFormat) {
  // The multi-axis constructor at d = 1 and the classic constructor must
  // produce the same key bytes — old cache keys stay valid.
  const Instance classic(3, 12, {Job{2, 6}, Job{1, 9}});
  const Instance multi(3, {12}, {MultiJob{2, {6}}, MultiJob{1, {9}}});
  const CanonicalForm a = canonicalize(classic);
  const CanonicalForm b = canonicalize(multi);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.key[0], cache::kKeyFormatVersion);
  EXPECT_EQ(a.key[1], 1);  // dimension byte
  ASSERT_EQ(a.axis_scales.size(), 1u);
  EXPECT_EQ(a.axis_scales[0], a.scale);
}

TEST(CanonicalMultiRes, PerAxisScalingEquivariance) {
  const Instance inst(3, {12, 30},
                      {MultiJob{2, {6, 10}}, MultiJob{1, {9, 25}}});
  const CanonicalForm base = canonicalize(inst);
  // gcd(12,6,9) = 3 on axis 0; gcd(30,10,25) = 5 on axis 1.
  EXPECT_EQ(base.scale, 3);
  ASSERT_EQ(base.axis_scales.size(), 2u);
  const Instance big = axis_scaled(inst, {2, 7});
  const CanonicalForm other = canonicalize(big);
  EXPECT_EQ(other.key, base.key);
  EXPECT_EQ(other.hash, base.hash);
  EXPECT_EQ(other.scale, base.scale * 2);
  // Schedules of source and scaled twin differ exactly by primary · factor.
  EXPECT_EQ(core::schedule_multires(big),
            share_scaled(core::schedule_multires(inst), 2));
}

TEST(CanonicalMultiRes, ResourcePermutationInvarianceWhenTieFree) {
  // No two jobs tie on (r0, p), so secondary axes may be reordered freely:
  // all orderings of axes 1..d-1 share one key.
  const Instance inst(3, {20, 12, 8},
                      {MultiJob{1, {4, 6, 2}}, MultiJob{2, {7, 3, 5}},
                       MultiJob{1, {11, 9, 1}}});
  const CanonicalForm base = canonicalize(inst);
  const CanonicalForm swapped = canonicalize(axes_permuted(inst, {0, 2, 1}));
  EXPECT_EQ(swapped.key, base.key);
  EXPECT_EQ(swapped.hash, base.hash);
  // The primary axis is semantically distinguished: swapping it INTO a
  // secondary slot must change the key (progress is credited in axis-0
  // units). Note axis 0 and 1 here have different content.
  const CanonicalForm primary_moved =
      canonicalize(Instance(3, {12, 20, 8},
                            {MultiJob{1, {6, 4, 2}}, MultiJob{2, {3, 7, 5}},
                             MultiJob{1, {9, 11, 1}}}));
  EXPECT_NE(primary_moved.key, base.key);
}

TEST(CanonicalMultiRes, SecondaryTieFallsBackToSourceAxisOrder) {
  // Jobs 0 and 1 tie on (r0, p) but differ on axis 1, so the canonicalizer
  // must keep σ = identity (reordering axes would reorder the tied jobs and
  // break the schedule mapping) — even though the content sort would place
  // axis 2 (normalized capacity 1) before axis 1 (normalized capacity 4).
  // The canonical job order must equal the source sorted order in every
  // case — checked via instance().
  const Instance inst(2, {10, 8, 2},
                      {MultiJob{1, {5, 4, 2}}, MultiJob{1, {5, 2, 2}}});
  const CanonicalForm form = canonicalize(inst);
  ASSERT_EQ(form.axis_order.size(), 3u);
  EXPECT_EQ(form.axis_order[0], 0);
  EXPECT_EQ(form.axis_order[1], 1);
  EXPECT_EQ(form.axis_order[2], 2);
  const Instance canon = form.instance();
  ASSERT_EQ(canon.size(), inst.size());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(canon.sizes()[j], inst.sizes()[j]);
    for (std::size_t k = 0; k < inst.resource_count(); ++k) {
      EXPECT_EQ(canon.requirement(j, k) * form.axis_scales[k],
                inst.requirement(j, k));
    }
  }
}

TEST(CanonicalMultiRes, IdempotenceAtHigherDimensions) {
  const Instance inst(4, {24, 18, 10},
                      {MultiJob{2, {8, 6, 5}}, MultiJob{1, {12, 9, 10}}});
  const CanonicalForm once = canonicalize(inst);
  const CanonicalForm twice = canonicalize(once.instance());
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.hash, once.hash);
  EXPECT_EQ(twice.scale, 1);
  for (const Res s : twice.axis_scales) EXPECT_EQ(s, 1);
  for (std::size_t k = 0; k < twice.axis_order.size(); ++k) {
    EXPECT_EQ(twice.axis_order[k], k);  // already in canonical axis order
  }
}

TEST(CanonicalMultiRes, JobPermutationInvarianceAtD2) {
  const std::vector<MultiJob> jobs = {MultiJob{1, {4, 6}}, MultiJob{2, {7, 3}},
                                      MultiJob{1, {2, 9}}};
  std::vector<MultiJob> reversed(jobs.rbegin(), jobs.rend());
  const CanonicalForm a = canonicalize(Instance(3, {20, 12}, jobs));
  const CanonicalForm b =
      canonicalize(Instance(3, {20, 12}, std::move(reversed)));
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(CanonicalMultiRes, DimensionSeparatesKeys) {
  // A d = 2 instance whose secondary axis is all-slack must still key
  // differently from its d = 1 projection: the validator semantics differ.
  const CanonicalForm one = canonicalize(Instance(3, 10, {Job{1, 5}}));
  const CanonicalForm two =
      canonicalize(Instance(3, {10, 1}, {MultiJob{1, {5, 1}}}));
  EXPECT_NE(one.key, two.key);
}

// ---- SolveCache ------------------------------------------------------------

TEST(SolveCacheTest, MissThenHitsCoalesceOnOneValue) {
  SolveCache cache(SolveCache::Config{8, 2});
  const CanonicalForm form =
      canonicalize(Instance(3, 10, {Job{2, 4}, Job{1, 6}}));

  SolveCache::Handle producer = cache.acquire(form);
  ASSERT_FALSE(producer.hit());
  SolveCache::Handle waiter = cache.acquire(form);
  ASSERT_TRUE(waiter.hit());

  producer.fill(cache::CacheValue{7, 5, 3, std::nullopt});
  const cache::CacheValue* value = waiter.wait();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->makespan, 7);
  EXPECT_EQ(value->blocks, 3u);

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_GT(stats.value_bytes, 0u);
}

TEST(SolveCacheTest, WaiterBlocksUntilProducerFills) {
  SolveCache cache(SolveCache::Config{4, 1});
  const CanonicalForm form = canonicalize(Instance(2, 6, {Job{1, 3}}));
  SolveCache::Handle producer = cache.acquire(form);
  SolveCache::Handle waiter = cache.acquire(form);
  ASSERT_TRUE(waiter.hit());

  std::thread filler([&] { producer.fill(cache::CacheValue{1, 1, 1, {}}); });
  const cache::CacheValue* value = waiter.wait();
  filler.join();
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->makespan, 1);
}

TEST(SolveCacheTest, AbandonedProducerWakesWaitersWithNull) {
  SolveCache cache(SolveCache::Config{4, 1});
  const CanonicalForm form = canonicalize(Instance(2, 6, {Job{1, 3}}));
  SolveCache::Handle waiter;
  {
    SolveCache::Handle producer = cache.acquire(form);
    waiter = cache.acquire(form);
    // producer destroyed without fill() — the solve threw.
  }
  EXPECT_EQ(waiter.wait(), nullptr);
  // The abandoned entry stays resident: a later acquire is still a hit (and
  // resolves to the local-solve fallback), keeping hit/miss counts
  // independent of when the failure happened.
  SolveCache::Handle again = cache.acquire(form);
  EXPECT_TRUE(again.hit());
  EXPECT_EQ(again.wait(), nullptr);
  EXPECT_EQ(cache.stats().abandoned, 1u);
}

TEST(SolveCacheTest, LruEvictsOldestAtCapacityTwo) {
  // Single shard so the LRU order is global and assertable.
  SolveCache cache(SolveCache::Config{2, 1});
  EXPECT_EQ(cache.shard_count(), 1u);
  std::vector<CanonicalForm> forms;
  for (int r = 1; r <= 3; ++r) {
    forms.push_back(canonicalize(Instance(2, 7, {Job{1, r}})));
  }

  { auto h = cache.acquire(forms[0]); h.fill({1, 1, 1, {}}); }
  { auto h = cache.acquire(forms[1]); h.fill({1, 1, 1, {}}); }
  // Touch 0 so 1 is now least-recently-used.
  { auto h = cache.acquire(forms[0]); EXPECT_TRUE(h.hit()); }
  // Inserting 2 must evict 1, not 0.
  { auto h = cache.acquire(forms[2]); EXPECT_FALSE(h.hit()); h.fill({1, 1, 1, {}}); }
  { auto h = cache.acquire(forms[0]); EXPECT_TRUE(h.hit()); }
  { auto h = cache.acquire(forms[1]); EXPECT_FALSE(h.hit()); h.fill({1, 1, 1, {}}); }

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);  // forms[1] once, then forms[2] or 0
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0);
}

TEST(SolveCacheTest, ShardCountClampedToCapacity) {
  SolveCache tiny(SolveCache::Config{2, 8});
  EXPECT_EQ(tiny.shard_count(), 2u);
  SolveCache one(SolveCache::Config{0, 0});
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST(SolveCacheTest, ScaledAndPermutedVariantsShareOneEntry) {
  SolveCache cache(SolveCache::Config{16, 4});
  const Instance inst = workloads::tiny_grid_instance(3, 8, 6, 3, 5);
  auto producer = cache.acquire(canonicalize(inst));
  ASSERT_FALSE(producer.hit());
  producer.fill({4, 3, 2, {}});
  for (const Res c : {2, 3, 6}) {
    const Instance big = scaled(inst, c);
    const Instance mixed(big.machines(), big.capacity(),
                         shuffled(big, static_cast<std::uint64_t>(c)));
    auto h = cache.acquire(canonicalize(mixed));
    EXPECT_TRUE(h.hit());
    const cache::CacheValue* value = h.wait();
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->makespan, 4);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

}  // namespace
}  // namespace sharedres
