#include "batch/worker.hpp"

#include <stdexcept>
#include <utility>

#include "algorithms/table.hpp"
#include "core/lower_bounds.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sharedres::batch {

namespace {

/// Run `body`; a record-level failure (parse error, invalid instance,
/// overflow, deadline expiry, injected fault) becomes rec's typed error
/// fields. Only std::logic_error — a library bug — escapes.
template <class Body>
void fail_typed(ResultRecord& rec, WorkerScratch& scratch, Body&& body) {
  try {
    body();
  } catch (const util::Error& e) {
    rec.ok = false;
    rec.error_code = util::to_string(e.code());
    rec.error_message = e.what();
    if (e.code() == util::ErrorCode::kDeadlineExceeded) {
      scratch.metrics.counter("batch.deadline_exceeded").inc();
    }
  } catch (const util::OverflowError& e) {
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kOverflow);
    rec.error_message = e.what();
  } catch (const std::invalid_argument& e) {
    // Scheduler/generator preconditions violated by the record's content
    // (same classification as the CLI's input-error path).
    rec.ok = false;
    rec.error_code = util::to_string(util::ErrorCode::kInvalidInstance);
    rec.error_message = e.what();
  }
  if (!rec.ok) scratch.metrics.counter("batch.records_failed").inc();
}

/// Shared tail of every successful solve path: the counters whose sums make
/// up the summary line. Values are per-record facts, so cached and uncached
/// paths bump them identically.
void bump_ok_counters(WorkerScratch& scratch, const ResultRecord& rec) {
  scratch.metrics.counter("batch.records_ok").inc();
  scratch.metrics.counter("batch.jobs").add(rec.jobs);
  scratch.metrics.counter("batch.blocks").add(rec.blocks);
  scratch.metrics.counter("batch.makespan_sum").add(
      static_cast<std::uint64_t>(rec.makespan));
}

/// Solve `inst` under the record's deadline (`deadline_steps` 0: the
/// options' default) and fill the one definition of an "ok" record. The
/// schedule text is written once, every share multiplied by `scale`: the
/// primary-axis scale when `inst` is a canonical twin, else 1.
void solve_record_fields(const core::Instance& inst,
                         const WorkOptions& options,
                         std::uint64_t deadline_steps, core::Res scale,
                         WorkerScratch& scratch, ResultRecord& rec) {
  {
    util::deadline::Limits limits;
    limits.max_steps = deadline_steps != 0 ? deadline_steps
                                           : options.default_deadline_steps;
    if (options.deadline_ms != 0) {
      limits.deadline_ns =
          util::deadline::now_ns() + options.deadline_ms * 1'000'000ull;
    }
    std::optional<util::deadline::Scope> scope;
    if (limits.max_steps != 0 || limits.deadline_ns != 0) scope.emplace(limits);
    solve_into(inst, options.algorithm, scratch);
  }
  const auto check = core::validate(inst, scratch.schedule);
  if (!check.ok) {
    throw std::logic_error("batch: produced infeasible schedule: " +
                           check.error);
  }
  rec.ok = true;
  rec.algorithm = options.algorithm;
  rec.machines = inst.machines();
  rec.jobs = inst.size();
  rec.makespan = scratch.schedule.makespan();
  rec.lower_bound = core::lower_bounds(inst).combined();
  rec.blocks = scratch.schedule.blocks().size();
  if (options.emit_schedules) {
    io::append_schedule(rec.schedule_text, scratch.schedule, scale);
  }
  bump_ok_counters(scratch, rec);
}

}  // namespace

void solve_into(const core::Instance& inst, const std::string& algorithm,
                WorkerScratch& scratch) {
  core::solve(algorithms::require(algorithm), inst, scratch.engines,
              scratch.schedule);
}

std::optional<CachedWork> prepare_cached(const std::string& line,
                                         cache::SolveCache& cache) {
  try {
    InstanceRecord record = parse_instance_record(line);
    cache::CanonicalForm form = cache::canonicalize(record.instance);
    auto handle = cache.acquire(form);
    return CachedWork{std::move(record), std::move(form), std::move(handle)};
  } catch (const util::Error&) {
  } catch (const util::OverflowError&) {
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

std::string process_cached(CachedWork& work, std::size_t index,
                           const WorkOptions& options,
                           WorkerScratch& scratch) {
  ResultRecord rec;
  rec.index = index;
  rec.id = work.record.id;
  scratch.metrics.counter("batch.records").inc();
  // No id salvage needed on failure: Pipeline::submit parsed the line, so
  // rec.id already carries whatever label the record had.
  fail_typed(rec, scratch, [&] {
    const core::Instance& inst = work.record.instance;
    if (work.handle.hit()) {
      if (const cache::CacheValue* value = work.handle.wait()) {
        rec.ok = true;
        rec.algorithm = options.algorithm;
        rec.machines = inst.machines();
        rec.jobs = inst.size();
        rec.makespan = value->makespan;
        rec.lower_bound = value->lower_bound;
        rec.blocks = value->blocks;
        if (options.emit_schedules && value->schedule) {
          io::append_schedule(rec.schedule_text, *value->schedule,
                              work.form.scale);
        }
        bump_ok_counters(scratch, rec);
        return;
      }
      // The producer's solve failed and abandoned the entry: solve locally
      // so this record fails (or succeeds) exactly as in a cache-off run.
      solve_record_fields(inst, options, work.record.deadline_steps,
                          /*scale=*/1, scratch, rec);
      return;
    }
    // Producer: solve the canonical twin once and publish it. Its schedule
    // is the source's with every share divided by form.scale (exactly — see
    // tests/test_canonical.cpp), so the record reports it scaled back.
    solve_record_fields(work.form.instance(), options,
                        work.record.deadline_steps, work.form.scale, scratch,
                        rec);
    cache::CacheValue value;
    value.makespan = rec.makespan;
    value.lower_bound = rec.lower_bound;
    value.blocks = rec.blocks;
    if (options.emit_schedules) value.schedule = scratch.schedule;
    work.handle.fill(std::move(value));
  });
  return format_result_record(rec);
}

std::string process_record(const std::string& line, std::size_t index,
                           const WorkOptions& options,
                           WorkerScratch& scratch) {
  ResultRecord rec;
  rec.index = index;
  scratch.metrics.counter("batch.records").inc();
  fail_typed(rec, scratch, [&] {
    const InstanceRecord input = parse_instance_record(line);
    rec.id = input.id;
    solve_record_fields(input.instance, options, input.deadline_steps,
                        /*scale=*/1, scratch, rec);
  });
  if (!rec.ok && rec.id.empty()) {
    // Salvage the caller's label for the error line when the JSON itself is
    // readable (e.g. the instance was semantically invalid).
    try {
      const util::Json doc = util::Json::parse(line);
      if (doc.is_object() && doc.contains("id") && doc.at("id").is_string()) {
        rec.id = doc.at("id").as_string();
      }
    } catch (const util::Error&) {
      // Unparseable line: no id to recover.
    }
  }
  return format_result_record(rec);
}

}  // namespace sharedres::batch
