// Fuzz harness for the batch NDJSON layer (src/batch/).
//
// The first input byte selects the batch algorithm (a row of the algorithm
// table) and whether schedules are embedded; the rest is fed twice:
//
//   1. line by line through parse_instance_record, asserting the record
//      contract: rejection is a typed exception (util::Error,
//      util::OverflowError, std::invalid_argument, std::length_error from
//      absurd advertised counts) and acceptance round-trips —
//      parse(format(parse(x))) must yield the same id and instance;
//   2. as a whole stream through run_batch (threads=1, tiny queue),
//      asserting the pipeline contract: malformed records NEVER abort the
//      batch — run_batch returns a summary whose counts add up, and the
//      only exceptions that may escape are the typed ones above (a bad
//      stream is data, not a usage error). std::logic_error escaping —
//      including the pipeline's own "produced infeasible schedule" check —
//      is a finding and crashes the process.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "algorithms/table.hpp"
#include "batch/pipeline.hpp"
#include "batch/stream.hpp"
#include "util/error.hpp"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_batch_stream: %s\n", what);
  std::abort();
}

void check(bool cond, const char* what) {
  if (!cond) die(what);
}

using sharedres::util::Error;
using sharedres::util::OverflowError;
namespace batch = sharedres::batch;

void fuzz_records(const std::string& doc) {
  std::istringstream is(doc);
  std::string line;
  while (std::getline(is, line)) {
    try {
      const batch::InstanceRecord rec = batch::parse_instance_record(line);
      const std::string out =
          batch::format_instance_record(rec.instance, rec.id);
      const batch::InstanceRecord again = batch::parse_instance_record(out);
      check(again.id == rec.id, "record round trip changed the id");
      check(again.instance.machines() == rec.instance.machines() &&
                again.instance.capacity() == rec.instance.capacity() &&
                again.instance.jobs() == rec.instance.jobs(),
            "record round trip changed the instance");
    } catch (const Error&) {
      // typed rejection — the documented contract for malformed records
    } catch (const OverflowError&) {
      // adversarial magnitudes surfacing through checked arithmetic
    } catch (const std::invalid_argument&) {
      // semantic validation in core::Instance
    } catch (const std::length_error&) {
      // absurd advertised counts hitting vector::reserve limits
    }
  }
}

void fuzz_pipeline(std::uint8_t selector, const std::string& doc) {
  const auto rows = sharedres::algorithms::all();
  batch::BatchOptions options;
  options.algorithm = rows[(selector & 0x7f) % rows.size()]->name;
  options.emit_schedules = (selector & 0x80) != 0;
  options.threads = 1;
  options.queue_capacity = 4;

  std::istringstream in(doc);
  std::ostringstream out;
  const batch::BatchSummary summary = batch::run_batch(in, out, options);
  check(summary.records == summary.ok + summary.failed,
        "summary counts do not add up");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string doc(reinterpret_cast<const char*>(data + 1), size - 1);
  fuzz_records(doc);
  try {
    fuzz_pipeline(data[0], doc);
  } catch (const Error&) {
    // only plausible as kIo from a failing stream; never for record content
  } catch (const OverflowError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::length_error&) {
  }
  return 0;
}
