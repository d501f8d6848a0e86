// Sharded, capacity-bounded, coalescing LRU cache of solve results keyed by
// canonical instances (cache/canonical.hpp).
//
// Determinism contract (the reason the API is shaped the way it is): the
// batch pipeline promises byte-identical output — including the summary
// metrics block — across SHAREDRES_THREADS values. Every cache decision that
// can show up in that output (hit/miss classification, insertions,
// evictions, resident sizes) therefore happens in acquire(), which the
// pipeline calls from its single reader thread in input order. Worker
// threads only ever touch the entry they were handed: the producer fills it,
// waiters block on it. With all map/LRU mutations serialized on the reader,
// the counters and the final resident set are functions of the input stream
// alone — the worker interleaving cannot influence them.
//
// Coalescing: the first acquire() of a key returns a *producer* handle
// (hit() == false); every later acquire() of the same key — even while the
// producer's solve is still running — returns a *waiter* handle
// (hit() == true). wait() blocks until the producer calls fill() (value
// available) or abandons the entry (its solve threw; wait() returns nullptr
// and the caller re-solves locally so the record fails byte-identically to a
// cache-off run). Abandoned entries stay resident so the hit/miss counters
// never depend on when the producer failed. Handles pin their entry via
// shared_ptr, so eviction never invalidates an in-flight solve.
//
// No-deadlock argument (FIFO pools): the producer handle for a key is always
// created before any waiter handle for it, so with FIFO task dispatch the
// producer's task is dequeued no later than the first waiter runs; producer
// tasks never block on the cache, hence every wait() terminates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/canonical.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "obs/registry.hpp"

namespace sharedres::cache {

/// What a producer publishes for its canonical instance. makespan and block
/// count are invariant across the whole equivalence class; the schedule
/// (canonical shares) is stored only when the consumer needs it
/// (emit-schedules runs) and is written per record with that record's scale
/// (io::append_schedule).
struct CacheValue {
  core::Time makespan = 0;
  /// Eq. (1) combined lower bound. Cached because it is invariant across the
  /// canonical equivalence class (resource and longest-job bounds are ratios
  /// of requirements to capacity, the volume bound never sees requirements),
  /// so recomputing it per hit would be pure waste.
  core::Time lower_bound = 0;
  std::size_t blocks = 0;
  std::optional<core::Schedule> schedule;
};

namespace detail {
struct Entry;
}

class SolveCache {
 public:
  struct Config {
    /// Maximum resident entries across all shards (≥ 1; 0 is clamped to 1).
    std::size_t capacity = 1024;
    /// Requested shard count; clamped to [1, capacity]. Capacity is split
    /// evenly across shards (earlier shards take the remainder), each with
    /// its own LRU list.
    std::size_t shards = 8;
  };

  /// All counters are decided on the acquire() thread (see file comment), so
  /// for a fixed input stream they are identical for every worker count.
  struct Stats {
    std::uint64_t hits = 0;        ///< acquire() found the key resident
    std::uint64_t misses = 0;      ///< acquire() inserted a producer entry
    std::uint64_t inserts = 0;     ///< == misses (separate for clarity)
    std::uint64_t evictions = 0;   ///< LRU entries dropped to respect capacity
    std::uint64_t abandoned = 0;   ///< producer handles destroyed unfilled
    std::uint64_t value_bytes = 0; ///< Σ approximate bytes of filled values
    std::int64_t resident_bytes = 0;  ///< keys + entry overhead now resident
    std::size_t resident_entries = 0;
  };

  /// The capability returned by acquire(). Exactly one handle per acquire;
  /// move-only. A producer handle (hit() == false) MUST reach fill() or be
  /// destroyed (destruction abandons the entry, waking waiters with
  /// nullptr); calling wait() on it before fill() would self-deadlock.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept;
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle();

    /// True iff the key was already resident: this handle consumes via
    /// wait(). False iff this handle is the key's producer.
    [[nodiscard]] bool hit() const { return hit_; }

    /// Producer only: publish the value and wake all waiters. Call at most
    /// once.
    void fill(CacheValue value);

    /// Waiter only: block until the value is published or the producer
    /// abandons; returns the published value, or nullptr on abandonment
    /// (caller solves locally). The pointer stays valid while this handle
    /// lives.
    [[nodiscard]] const CacheValue* wait() const;

   private:
    friend class SolveCache;
    Handle(std::shared_ptr<detail::Entry> entry, bool hit, SolveCache* owner);

    std::shared_ptr<detail::Entry> entry_;
    bool hit_ = false;
    bool filled_ = false;
    SolveCache* owner_ = nullptr;
  };

  explicit SolveCache(const Config& config);
  ~SolveCache();
  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Look up / insert the canonical key. MUST be called from one thread, in
  /// the order that defines the deterministic contract (the batch reader
  /// calls it in input order). Verifies full key bytes behind the 128-bit
  /// hash before declaring a hit.
  [[nodiscard]] Handle acquire(const CanonicalForm& form);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t shard_count() const;

  /// Add the cache.* metric block (all Det::kDeterministic — see Stats) to
  /// `registry`. The batch pipeline calls this once, after the pool drains,
  /// on its merged registry.
  void export_metrics(obs::Registry& registry) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sharedres::cache
