#include "batch/stream.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace sharedres::batch {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw util::Error(util::ErrorCode::kParse,
                    "batch record: " + what);
}

/// A JSON number that is an exact integer within the double-exact range.
std::int64_t require_int(const util::Json& v, const char* field) {
  if (!v.is_number()) bad(std::string(field) + " must be a number");
  const double d = v.as_double();
  if (std::floor(d) != d || std::abs(d) > 9.007199254740992e15) {
    bad(std::string(field) + " must be an integer");
  }
  return static_cast<std::int64_t>(d);
}

// ---------------------------------------------------------------------------
// Fast path: a strict scanner for the exact record shape the generators and
// format_instance_record emit. Parsing the line through the Json DOM costs
// ~500 ns/job (allocation per token); this scanner does one allocation-free
// pass and is what makes the batch reader — and the cache's hit path, which
// cannot skip the parse — cheap relative to a solve.
//
// Correctness contract: the scanner either succeeds with values PROVABLY
// identical to what the DOM path would produce, or returns nullopt and the
// caller re-parses through the DOM. Anything irregular falls back — floats,
// exponents, string escapes, duplicate/unknown keys, >15-digit numbers
// (doubles are integer-exact there, so require_int and textual parsing can
// only disagree beyond it), and every malformed line — so acceptance and
// error text stay byte-identical with or without the fast path.

struct Scanner {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool lit(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  /// Integer of at most 15 digits (optionally signed). No floats, no
  /// exponents; leading zeros are fine (strtod agrees on their value).
  bool int15(std::int64_t& out) {
    ws();
    bool neg = false;
    if (p < end && *p == '-') {
      neg = true;
      ++p;
    }
    const char* digits = p;
    // Unsigned: a longer digit run may wrap before the length check below
    // rejects it, and unsigned wrap-around is defined.
    std::uint64_t v = 0;
    while (p < end && *p >= '0' && *p <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    if (p == digits || p - digits > 15) return false;
    const auto value = static_cast<std::int64_t>(v);
    out = neg ? -value : value;
    return true;
  }
  /// String with no escapes and no control bytes (either would need the DOM
  /// path's unescaping/validation).
  bool str(std::string& out) {
    ws();
    if (p >= end || *p != '"') return false;
    ++p;
    const char* start = p;
    while (p < end && *p != '"' && *p != '\\' &&
           static_cast<unsigned char>(*p) >= 0x20) {
      ++p;
    }
    if (p >= end || *p != '"') return false;
    out.assign(start, static_cast<std::size_t>(p - start));
    ++p;
    return true;
  }
};

std::optional<InstanceRecord> parse_fast(const std::string& line) {
  Scanner s{line.data(), line.data() + line.size()};
  if (!s.lit('{')) return std::nullopt;
  std::string record_id;
  std::int64_t machines = 0;
  std::int64_t capacity = 0;
  std::int64_t deadline_steps = 0;
  std::vector<core::Job> jobs;
  bool seen_id = false, seen_machines = false, seen_capacity = false,
       seen_jobs = false, seen_deadline = false, seen_arrival = false;
  if (!s.lit('}')) {
    for (;;) {
      std::string key;
      if (!s.str(key) || !s.lit(':')) return std::nullopt;
      if (key == "id") {
        if (seen_id || !s.str(record_id)) return std::nullopt;
        seen_id = true;
      } else if (key == "machines") {
        if (seen_machines || !s.int15(machines)) return std::nullopt;
        seen_machines = true;
      } else if (key == "capacity") {
        if (seen_capacity || !s.int15(capacity)) return std::nullopt;
        seen_capacity = true;
      } else if (key == "deadline_steps") {
        // Negative budgets fall back so the DOM path owns the error text.
        if (seen_deadline || !s.int15(deadline_steps) || deadline_steps < 0) {
          return std::nullopt;
        }
        seen_deadline = true;
      } else if (key == "arrival") {
        // Traffic streams (workloads/traffic.hpp) timestamp each record with
        // the arrival step; the solver ignores it (the DOM path drops every
        // unknown key), but the scanner must skip it so sustained-traffic
        // inputs stay on the fast path. Anything but a simple non-negative
        // integer falls back to the DOM, which accepts any value here.
        std::int64_t arrival = 0;
        if (seen_arrival || !s.int15(arrival) || arrival < 0) {
          return std::nullopt;
        }
        seen_arrival = true;
      } else if (key == "jobs") {
        if (seen_jobs || !s.lit('[')) return std::nullopt;
        seen_jobs = true;
        if (!s.lit(']')) {
          for (;;) {
            std::int64_t size = 0;
            std::int64_t requirement = 0;
            if (!s.lit('[') || !s.int15(size) || !s.lit(',') ||
                !s.int15(requirement) || !s.lit(']')) {
              return std::nullopt;
            }
            jobs.push_back(core::Job{size, requirement});
            if (s.lit(',')) continue;
            if (s.lit(']')) break;
            return std::nullopt;
          }
        }
      } else {
        return std::nullopt;
      }
      if (s.lit(',')) continue;
      if (s.lit('}')) break;
      return std::nullopt;
    }
  }
  s.ws();
  if (s.p != s.end) return std::nullopt;
  if (!seen_machines || !seen_capacity || !seen_jobs) return std::nullopt;
  if (machines < std::numeric_limits<int>::min() ||
      machines > std::numeric_limits<int>::max()) {
    return std::nullopt;  // the DOM path owns the "out of range" error
  }
  // Identical values from here on: Instance's own validation (and its typed
  // errors) is the first thing that can reject on either path.
  return InstanceRecord{
      std::move(record_id),
      core::Instance(static_cast<int>(machines), capacity, std::move(jobs)),
      static_cast<std::uint64_t>(deadline_steps)};
}

}  // namespace

InstanceRecord parse_instance_record(const std::string& line) {
  if (std::optional<InstanceRecord> fast = parse_fast(line)) {
    return std::move(*fast);
  }
  const util::Json doc = util::Json::parse(line);
  if (!doc.is_object()) bad("line must be a JSON object");

  std::string record_id;
  if (doc.contains("id")) {
    const util::Json& id = doc.at("id");
    if (!id.is_string()) bad("id must be a string");
    record_id = id.as_string();
  }
  const std::int64_t machines = require_int(doc.at("machines"), "machines");
  if (machines < std::numeric_limits<int>::min() ||
      machines > std::numeric_limits<int>::max()) {
    bad("machines out of range");
  }

  std::int64_t deadline_steps = 0;
  if (doc.contains("deadline_steps")) {
    deadline_steps = require_int(doc.at("deadline_steps"), "deadline_steps");
    if (deadline_steps < 0) bad("deadline_steps must be >= 0");
  }

  // d-resource form: {"machines", "capacities": [C_0..C_{d-1}],
  // "requirements": [[r_0..r_{d-1}] per job], "sizes": [p per job]?}.
  // sizes defaults to all-1. Mixing with the classic capacity/jobs keys is
  // rejected — a record is one form or the other.
  const bool multires =
      doc.contains("capacities") || doc.contains("requirements");
  if (multires) {
    if (doc.contains("capacity") || doc.contains("jobs")) {
      bad("capacities/requirements cannot be mixed with capacity/jobs");
    }
    if (!doc.contains("capacities")) bad("requirements without capacities");
    if (!doc.contains("requirements")) bad("capacities without requirements");
    const util::Json& caps = doc.at("capacities");
    if (!caps.is_array() || caps.size() == 0) {
      bad("capacities must be a non-empty array");
    }
    std::vector<core::Res> capacities;
    capacities.reserve(caps.size());
    for (std::size_t k = 0; k < caps.size(); ++k) {
      capacities.push_back(require_int(caps.at(k), "capacity"));
    }
    const util::Json& reqs = doc.at("requirements");
    if (!reqs.is_array()) bad("requirements must be an array");
    std::vector<core::MultiJob> parsed(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const util::Json& row = reqs.at(i);
      if (!row.is_array() || row.size() != capacities.size()) {
        bad("requirements[" + std::to_string(i) + "] must list one value per "
            "resource");
      }
      parsed[i].requirements.reserve(row.size());
      for (std::size_t k = 0; k < row.size(); ++k) {
        parsed[i].requirements.push_back(
            require_int(row.at(k), "job requirement"));
      }
    }
    if (doc.contains("sizes")) {
      const util::Json& sizes = doc.at("sizes");
      if (!sizes.is_array() || sizes.size() != parsed.size()) {
        bad("sizes must list one value per job");
      }
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        parsed[i].size = require_int(sizes.at(i), "job size");
      }
    }
    return InstanceRecord{
        std::move(record_id),
        core::Instance(static_cast<int>(machines), std::move(capacities),
                       std::move(parsed)),
        static_cast<std::uint64_t>(deadline_steps)};
  }

  const std::int64_t capacity = require_int(doc.at("capacity"), "capacity");

  const util::Json& jobs = doc.at("jobs");
  if (!jobs.is_array()) bad("jobs must be an array");
  std::vector<core::Job> parsed;
  parsed.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const util::Json& pair = jobs.at(i);
    if (!pair.is_array() || pair.size() != 2) {
      bad("jobs[" + std::to_string(i) + "] must be a [size, requirement] pair");
    }
    parsed.push_back(core::Job{
        .size = require_int(pair.at(std::size_t{0}), "job size"),
        .requirement = require_int(pair.at(std::size_t{1}), "job requirement"),
    });
  }
  // Instance validates semantics (m >= 1, positive sizes/requirements) and
  // computes checked totals; its typed errors propagate to the caller.
  return InstanceRecord{
      std::move(record_id),
      core::Instance(static_cast<int>(machines), capacity, std::move(parsed)),
      static_cast<std::uint64_t>(deadline_steps)};
}

std::string format_instance_record(const core::Instance& instance,
                                   const std::string& id) {
  if (instance.resource_count() > 1) {
    // d-resource form (parse_instance_record's multires branch), jobs in the
    // caller's original order like the classic form below.
    const std::size_t d = instance.resource_count();
    std::vector<std::size_t> sorted_of(instance.size());
    for (core::JobId j = 0; j < instance.size(); ++j) {
      sorted_of[instance.original_id(j)] = j;
    }
    util::Json caps{util::Json::Array{}};
    for (std::size_t k = 0; k < d; ++k) caps.push_back(instance.capacity(k));
    util::Json sizes{util::Json::Array{}};
    util::Json reqs{util::Json::Array{}};
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const core::JobId j = sorted_of[i];
      sizes.push_back(instance.job(j).size);
      util::Json row{util::Json::Array{}};
      for (std::size_t k = 0; k < d; ++k) {
        row.push_back(instance.requirement(j, k));
      }
      reqs.push_back(std::move(row));
    }
    util::Json doc{util::Json::Object{}};
    if (!id.empty()) doc.emplace("id", id);
    doc.emplace("machines", instance.machines());
    doc.emplace("capacities", std::move(caps));
    doc.emplace("sizes", std::move(sizes));
    doc.emplace("requirements", std::move(reqs));
    return doc.dump();
  }

  // Undo the instance's sort so format∘parse round-trips the caller's order.
  std::vector<core::Job> original(instance.size());
  for (core::JobId j = 0; j < instance.size(); ++j) {
    original[instance.original_id(j)] = instance.job(j);
  }
  util::Json jobs{util::Json::Array{}};
  for (const core::Job& job : original) {
    util::Json pair{util::Json::Array{}};
    pair.push_back(job.size);
    pair.push_back(job.requirement);
    jobs.push_back(std::move(pair));
  }
  util::Json doc{util::Json::Object{}};
  if (!id.empty()) doc.emplace("id", id);
  doc.emplace("machines", instance.machines());
  doc.emplace("capacity", instance.capacity());
  doc.emplace("jobs", std::move(jobs));
  return doc.dump();
}

std::string format_result_record(const ResultRecord& record) {
  // One pass, no DOM: keys in stream.hpp's order, Json::dump's primitives.
  std::string out = "{\"index\":";
  util::append_json_int(out, record.index);
  const auto str = [&out](const char* key, const std::string& value) {
    util::append_json_string(out += key, value);
  };
  const auto num = [&out](const char* key, auto value) {
    util::append_json_int(out += key, value);
  };
  if (!record.id.empty()) str(",\"id\":", record.id);
  if (!record.ok) {
    str(",\"ok\":false,\"error\":{\"code\":", record.error_code);
    str(",\"message\":", record.error_message);
    out += "}}";
    return out;
  }
  str(",\"ok\":true,\"algorithm\":", record.algorithm);
  num(",\"machines\":", record.machines);
  num(",\"jobs\":", record.jobs);
  num(",\"makespan\":", record.makespan);
  num(",\"lower_bound\":", record.lower_bound);
  num(",\"blocks\":", record.blocks);
  if (!record.schedule_text.empty()) {
    str(",\"schedule\":", record.schedule_text);
  }
  out += '}';
  return out;
}

}  // namespace sharedres::batch
