#include "io/text_io.hpp"

#include <cctype>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace sharedres::io {

namespace {

/// A whitespace-delimited token plus its 1-based column in the source line.
struct Token {
  std::string text;
  int column = 0;
};

/// Line-oriented tokenizer with position-aware (line, column) errors.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  /// Next non-blank, non-comment line split into tokens; empty at EOF.
  std::vector<Token> next_line() {
    SHAREDRES_FAILPOINT("io.next_line");
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      SHAREDRES_OBS_COUNT("io.lines_read");
      SHAREDRES_OBS_COUNT_N("io.bytes_read", line.size() + 1);
      std::vector<Token> tokens;
      std::size_t i = 0;
      while (i < line.size()) {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        const std::size_t start = i;
        while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
        if (i > start) {
          tokens.push_back(
              {line.substr(start, i - start), static_cast<int>(start) + 1});
        }
      }
      if (tokens.empty() || tokens[0].text[0] == '#') continue;
      return tokens;
    }
    return {};
  }

  [[noreturn]] void fail(const std::string& msg) const { fail_at(0, msg); }

  [[noreturn]] void fail_at(int column, const std::string& msg) const {
    SHAREDRES_OBS_COUNT("io.parse_errors");
    throw util::Error::parse(line_no_, column, msg);
  }

  util::i64 to_int(const Token& tok) const {
    return to_int_at(tok.text, tok.column);
  }

  /// Parse a full integer token; `column` points at its first character.
  util::i64 to_int_at(const std::string& text, int column) const {
    try {
      std::size_t pos = 0;
      const util::i64 value = std::stoll(text, &pos);
      if (pos != text.size()) {
        fail_at(column, "trailing characters in number '" + text + "'");
      }
      return value;
    } catch (const std::out_of_range&) {
      fail_at(column, "number out of 64-bit range: '" + text + "'");
    } catch (const std::invalid_argument&) {
      fail_at(column, "expected a number, got '" + text + "'");
    }
  }

  /// Expect `key <value>` and return the value.
  util::i64 expect_kv(const std::string& key) {
    const auto tokens = next_line();
    if (tokens.size() != 2 || tokens[0].text != key) {
      fail("expected '" + key + " <value>'");
    }
    return to_int(tokens[1]);
  }

  void expect_header(const std::string& kind) {
    (void)expect_header_version(kind, 1);
  }

  /// As expect_header, but accepts any version 1..max_version and returns
  /// it (the instance format grew a v2 for d-resource instances; every
  /// other kind is still v1-only and keeps its historical error text).
  int expect_header_version(const std::string& kind, int max_version) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      SHAREDRES_OBS_COUNT("io.lines_read");
      SHAREDRES_OBS_COUNT_N("io.bytes_read", line.size() + 1);
      if (line.empty()) continue;
      const std::string prefix = "# sharedres " + kind + " v";
      for (int v = 1; v <= max_version; ++v) {
        if (line == prefix + std::to_string(v)) return v;
      }
      fail(max_version == 1
               ? "expected header '" + prefix + "1'"
               : "expected header '" + prefix + "1'..'" + prefix +
                     std::to_string(max_version) + "'");
    }
    fail("missing header");
  }

 private:
  std::istream& is_;
  int line_no_ = 0;
};

}  // namespace

void write_instance(std::ostream& os, const core::Instance& instance) {
  SHAREDRES_OBS_COUNT("io.instances_written");
  const std::size_t d = instance.resource_count();
  if (d == 1) {
    // Single-resource instances keep the historical v1 bytes exactly.
    os << "# sharedres instance v1\n";
    os << "machines " << instance.machines() << "\n";
    os << "capacity " << instance.capacity() << "\n";
    os << "jobs " << instance.size() << "\n";
    for (const core::Job& job : instance.jobs()) {
      os << "job " << job.size << " " << job.requirement << "\n";
    }
    return;
  }
  os << "# sharedres instance v2\n";
  os << "machines " << instance.machines() << "\n";
  os << "resources " << d << "\n";
  os << "capacity";
  for (std::size_t k = 0; k < d; ++k) os << " " << instance.capacity(k);
  os << "\n";
  os << "jobs " << instance.size() << "\n";
  for (std::size_t j = 0; j < instance.size(); ++j) {
    os << "job " << instance.job(j).size;
    for (std::size_t k = 0; k < d; ++k) os << " " << instance.requirement(j, k);
    os << "\n";
  }
}

core::Instance read_instance(std::istream& is) {
  Reader r(is);
  const int version = r.expect_header_version("instance", 2);
  const auto machines = static_cast<int>(r.expect_kv("machines"));
  if (version == 1) {
    const core::Res capacity = r.expect_kv("capacity");
    const util::i64 n = r.expect_kv("jobs");
    std::vector<core::Job> jobs;
    jobs.reserve(static_cast<std::size_t>(n));
    for (util::i64 i = 0; i < n; ++i) {
      const auto tokens = r.next_line();
      if (tokens.size() != 3 || tokens[0].text != "job") {
        r.fail("expected 'job <size> <requirement>'");
      }
      jobs.push_back(core::Job{r.to_int(tokens[1]), r.to_int(tokens[2])});
    }
    SHAREDRES_OBS_COUNT("io.instances_read");
    SHAREDRES_OBS_OBSERVE("io.instance_jobs",
                          ({1, 10, 100, 1000, 10000, 100000}), n);
    return core::Instance(machines, capacity, std::move(jobs));
  }
  const util::i64 resources = r.expect_kv("resources");
  if (resources < 1 ||
      resources > static_cast<util::i64>(core::kMaxResources)) {
    r.fail("resources must be in [1, " +
           std::to_string(core::kMaxResources) + "]");
  }
  const auto d = static_cast<std::size_t>(resources);
  const auto cap_tokens = r.next_line();
  if (cap_tokens.size() != 1 + d || cap_tokens[0].text != "capacity") {
    r.fail("expected 'capacity <c0> ... <c" + std::to_string(d - 1) + ">'");
  }
  std::vector<core::Res> capacities(d);
  for (std::size_t k = 0; k < d; ++k) {
    capacities[k] = r.to_int(cap_tokens[1 + k]);
  }
  const util::i64 n = r.expect_kv("jobs");
  std::vector<core::MultiJob> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (util::i64 i = 0; i < n; ++i) {
    const auto tokens = r.next_line();
    if (tokens.size() != 2 + d || tokens[0].text != "job") {
      r.fail("expected 'job <size> <r0> ... <r" + std::to_string(d - 1) +
             ">'");
    }
    core::MultiJob job;
    job.size = r.to_int(tokens[1]);
    job.requirements.resize(d);
    for (std::size_t k = 0; k < d; ++k) {
      job.requirements[k] = r.to_int(tokens[2 + k]);
    }
    jobs.push_back(std::move(job));
  }
  SHAREDRES_OBS_COUNT("io.instances_read");
  SHAREDRES_OBS_OBSERVE("io.instance_jobs", ({1, 10, 100, 1000, 10000, 100000}),
                        n);
  return core::Instance(machines, std::move(capacities), std::move(jobs));
}

void append_schedule(std::string& out, const core::Schedule& schedule,
                     core::Res scale) {
  SHAREDRES_OBS_COUNT("io.schedules_written");
  out += "# sharedres schedule v1\nblocks ";
  util::append_json_int(out, schedule.blocks().size());
  for (const core::Block& block : schedule.blocks()) {
    util::append_json_int(out += "\nblock ", block.length);
    util::append_json_int(out += ' ', block.assignments.size());
    for (const core::Assignment& a : block.assignments) {
      util::append_json_int(out += ' ', a.job);
      util::append_json_int(out += ':', util::mul_checked(a.share, scale));
    }
  }
  out += '\n';
}

void write_schedule(std::ostream& os, const core::Schedule& schedule) {
  std::string text;
  append_schedule(text, schedule);
  os << text;
}

core::Schedule read_schedule(std::istream& is) {
  Reader r(is);
  r.expect_header("schedule");
  const util::i64 blocks = r.expect_kv("blocks");
  core::Schedule schedule;
  for (util::i64 b = 0; b < blocks; ++b) {
    const auto tokens = r.next_line();
    if (tokens.size() < 3 || tokens[0].text != "block") {
      r.fail("expected 'block <len> <k> job:share ...'");
    }
    const core::Time len = r.to_int(tokens[1]);
    const util::i64 k = r.to_int(tokens[2]);
    if (static_cast<util::i64>(tokens.size()) != 3 + k) {
      r.fail("block advertises " + std::to_string(k) + " assignments, has " +
             std::to_string(tokens.size() - 3));
    }
    std::vector<core::Assignment> assignments;
    assignments.reserve(static_cast<std::size_t>(k));
    for (std::size_t t = 3; t < tokens.size(); ++t) {
      const auto colon = tokens[t].text.find(':');
      if (colon == std::string::npos) {
        r.fail_at(tokens[t].column, "expected 'job:share'");
      }
      assignments.push_back(core::Assignment{
          static_cast<core::JobId>(r.to_int_at(tokens[t].text.substr(0, colon),
                                               tokens[t].column)),
          r.to_int_at(tokens[t].text.substr(colon + 1),
                      tokens[t].column + static_cast<int>(colon) + 1)});
    }
    schedule.append(len, std::move(assignments));
  }
  SHAREDRES_OBS_COUNT("io.schedules_read");
  return schedule;
}

void write_sas(std::ostream& os, const sas::SasInstance& instance) {
  os << "# sharedres sas v1\n";
  os << "machines " << instance.machines << "\n";
  os << "capacity " << instance.capacity << "\n";
  os << "tasks " << instance.tasks.size() << "\n";
  for (const sas::Task& task : instance.tasks) {
    os << "task";
    for (const core::Res req : task.requirements) os << " " << req;
    os << "\n";
  }
}

sas::SasInstance read_sas(std::istream& is) {
  Reader r(is);
  r.expect_header("sas");
  sas::SasInstance instance;
  instance.machines = static_cast<int>(r.expect_kv("machines"));
  instance.capacity = r.expect_kv("capacity");
  const util::i64 k = r.expect_kv("tasks");
  for (util::i64 i = 0; i < k; ++i) {
    const auto tokens = r.next_line();
    if (tokens.size() < 2 || tokens[0].text != "task") {
      r.fail("expected 'task <r1> <r2> ...'");
    }
    sas::Task task;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      task.requirements.push_back(r.to_int(tokens[t]));
    }
    instance.tasks.push_back(std::move(task));
  }
  instance.validate_input();
  return instance;
}

void write_packing_instance(std::ostream& os,
                            const binpack::PackingInstance& instance) {
  os << "# sharedres packing v1\n";
  os << "capacity " << instance.capacity << "\n";
  os << "cardinality " << instance.cardinality << "\n";
  os << "items " << instance.items.size() << "\n";
  for (const core::Res item : instance.items) os << "item " << item << "\n";
}

binpack::PackingInstance read_packing_instance(std::istream& is) {
  Reader r(is);
  r.expect_header("packing");
  binpack::PackingInstance instance;
  instance.capacity = r.expect_kv("capacity");
  instance.cardinality = static_cast<int>(r.expect_kv("cardinality"));
  const util::i64 n = r.expect_kv("items");
  for (util::i64 i = 0; i < n; ++i) {
    const auto tokens = r.next_line();
    if (tokens.size() != 2 || tokens[0].text != "item") {
      r.fail("expected 'item <w>'");
    }
    instance.items.push_back(r.to_int(tokens[1]));
  }
  instance.validate_input();
  return instance;
}

void write_packing(std::ostream& os, const binpack::Packing& packing) {
  os << "# sharedres packs v1\n";
  os << "bins " << packing.bins.size() << "\n";
  for (const auto& bin : packing.bins) {
    os << "bin " << bin.size();
    for (const binpack::ItemPart& part : bin) {
      os << " " << part.item << ":" << part.amount;
    }
    os << "\n";
  }
}

binpack::Packing read_packing(std::istream& is) {
  Reader r(is);
  r.expect_header("packs");
  const util::i64 bins = r.expect_kv("bins");
  binpack::Packing packing;
  packing.bins.reserve(static_cast<std::size_t>(bins));
  for (util::i64 b = 0; b < bins; ++b) {
    const auto tokens = r.next_line();
    if (tokens.size() < 2 || tokens[0].text != "bin") {
      r.fail("expected 'bin <k> item:amount ...'");
    }
    const util::i64 k = r.to_int(tokens[1]);
    if (static_cast<util::i64>(tokens.size()) != 2 + k) {
      r.fail("bin advertises " + std::to_string(k) + " parts");
    }
    std::vector<binpack::ItemPart> bin;
    bin.reserve(static_cast<std::size_t>(k));
    for (std::size_t t = 2; t < tokens.size(); ++t) {
      const auto colon = tokens[t].text.find(':');
      if (colon == std::string::npos) {
        r.fail_at(tokens[t].column, "expected 'item:amount'");
      }
      bin.push_back(binpack::ItemPart{
          static_cast<std::size_t>(r.to_int_at(
              tokens[t].text.substr(0, colon), tokens[t].column)),
          r.to_int_at(tokens[t].text.substr(colon + 1),
                      tokens[t].column + static_cast<int>(colon) + 1)});
    }
    packing.bins.push_back(std::move(bin));
  }
  return packing;
}

void write_online(std::ostream& os, const online::OnlineInstance& instance) {
  os << "# sharedres online v1\n";
  os << "machines " << instance.machines << "\n";
  os << "capacity " << instance.capacity << "\n";
  os << "jobs " << instance.jobs.size() << "\n";
  for (const online::OnlineJob& oj : instance.jobs) {
    os << "job " << oj.release << " " << oj.job.size << " "
       << oj.job.requirement << "\n";
  }
}

online::OnlineInstance read_online(std::istream& is) {
  Reader r(is);
  r.expect_header("online");
  online::OnlineInstance instance;
  instance.machines = static_cast<int>(r.expect_kv("machines"));
  instance.capacity = r.expect_kv("capacity");
  const util::i64 n = r.expect_kv("jobs");
  for (util::i64 i = 0; i < n; ++i) {
    const auto tokens = r.next_line();
    if (tokens.size() != 4 || tokens[0].text != "job") {
      r.fail("expected 'job <release> <size> <requirement>'");
    }
    instance.jobs.push_back(online::OnlineJob{
        r.to_int(tokens[1]),
        core::Job{r.to_int(tokens[2]), r.to_int(tokens[3])}});
  }
  instance.validate_input();
  return instance;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    SHAREDRES_OBS_COUNT("io.open_errors");
    throw util::Error::io("cannot open for writing: " + path);
  }
  return os;
}

std::ifstream open_in(const std::string& path) {
  SHAREDRES_FAILPOINT("io.open_in");
  std::ifstream is(path);
  if (!is) {
    SHAREDRES_OBS_COUNT("io.open_errors");
    throw util::Error::io("cannot open for reading: " + path);
  }
  return is;
}

}  // namespace

void save_instance(const std::string& path, const core::Instance& instance) {
  auto os = open_out(path);
  write_instance(os, instance);
}

core::Instance load_instance(const std::string& path) {
  auto is = open_in(path);
  return read_instance(is);
}

void save_schedule(const std::string& path, const core::Schedule& schedule) {
  auto os = open_out(path);
  write_schedule(os, schedule);
}

core::Schedule load_schedule(const std::string& path) {
  auto is = open_in(path);
  return read_schedule(is);
}

}  // namespace sharedres::io
