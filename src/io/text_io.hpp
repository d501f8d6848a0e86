// Plain-text serialization for instances, schedules, task sets and packing
// problems.
//
// The format is line-based, versioned and diff-friendly:
//
//   # sharedres instance v1        # sharedres sas v1
//   machines 4                     machines 8
//   capacity 100                   capacity 1000
//   jobs 2                         tasks 2
//   job 3 40                       task 5 10 20
//   job 1 25                       task 7 7
//
//   # sharedres packing v1         # sharedres schedule v1
//   capacity 100                   blocks 2
//   cardinality 4                  block 3 2 0:40 1:25
//   items 2                        block 1 1 1:10
//   item 30
//   item 170
//
// `job p r` lists size then requirement; `task r1 r2 ...` lists the unit
// jobs' requirements; `block len k  job:share ...` lists len identical
// steps. Blank lines and lines starting with '#' are ignored (except the
// mandatory header). Readers throw util::Error (code kParse) carrying the
// 1-based line and column of the offending token; file wrappers throw
// util::Error (code kIo) when a path cannot be opened.
//
// d-resource instances (d > 1) use `# sharedres instance v2`:
//
//   # sharedres instance v2
//   machines 4
//   resources 2
//   capacity 100 60
//   jobs 2
//   job 3 40 12
//   job 1 25 5
//
// `capacity` lists all d capacities; `job p r0 r1 ...` lists the size then
// one requirement per resource. write_instance emits v1 byte-identically
// for single-resource instances and v2 otherwise; read_instance accepts
// both versions. All other kinds remain v1-only.
#pragma once

#include <iosfwd>
#include <string>

#include "binpack/packing.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "online/online_model.hpp"
#include "sas/task.hpp"

namespace sharedres::io {

void write_instance(std::ostream& os, const core::Instance& instance);
[[nodiscard]] core::Instance read_instance(std::istream& is);

/// Append the schedule text to `out`, every share multiplied by `scale`
/// (checked): a cached canonical schedule written as its source's own.
/// write_schedule streams the same text.
void append_schedule(std::string& out, const core::Schedule& schedule,
                     core::Res scale = 1);
void write_schedule(std::ostream& os, const core::Schedule& schedule);
[[nodiscard]] core::Schedule read_schedule(std::istream& is);

void write_sas(std::ostream& os, const sas::SasInstance& instance);
[[nodiscard]] sas::SasInstance read_sas(std::istream& is);

void write_packing_instance(std::ostream& os,
                            const binpack::PackingInstance& instance);
[[nodiscard]] binpack::PackingInstance read_packing_instance(std::istream& is);

/// Packing results: `# sharedres packs v1`, `bins N`, then per bin
/// `bin <k> item:amount ...`.
void write_packing(std::ostream& os, const binpack::Packing& packing);
[[nodiscard]] binpack::Packing read_packing(std::istream& is);

/// Online instances: `# sharedres online v1`, machines/capacity/jobs, then
/// per job `job <release> <size> <requirement>`.
void write_online(std::ostream& os, const online::OnlineInstance& instance);
[[nodiscard]] online::OnlineInstance read_online(std::istream& is);

// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_instance(const std::string& path, const core::Instance& instance);
[[nodiscard]] core::Instance load_instance(const std::string& path);
void save_schedule(const std::string& path, const core::Schedule& schedule);
[[nodiscard]] core::Schedule load_schedule(const std::string& path);

}  // namespace sharedres::io
