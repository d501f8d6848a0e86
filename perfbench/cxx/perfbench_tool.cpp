// perfbench_tool — the in-process half of the end-to-end benchmark. run.py
// builds it next to sharedres_cli and calls one mode per job:
//
//   ref-batch        NDJSON stream on stdin → batch::run_batch at threads=1
//                    → stdout. The byte-for-byte reference for `batch`.
//   expect           request lines on stdin → batch::process_record(line, 0)
//                    per line → stdout. run.py re-indexes each line to the
//                    request's client-local index.
//   check-schedules  --stream=F --results=F: core::validate every schedule a
//                    batch result line carries. Exit 1 on any defect.
//   client           open-loop load over two connections to `serve --socket`.
//   spawn            --rusage=F -- argv...: run argv as a child of this small
//                    process and write its wall time and wait4 rusage to F.
//                    A child forked straight from run.py would inherit
//                    that (large) Python process's peak RSS in ru_maxrss.
//   setup            --reps=N [--socket=S] -- argv...: set-up time of argv,
//                    N times, one time in seconds per stdout line.
//   trace            traced in-process replay of a stream: one span per
//                    public call a record passes through, kept in memory and
//                    reduced to per-layer self times at exit; plus an
//                    in-process Service driven open-loop for admission,
//                    queue wait and journal timings.
//
// Every mode reads and writes only the paths it is given.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/pipeline.hpp"
#include "batch/stream.hpp"
#include "batch/worker.hpp"
#include "cache/canonical.hpp"
#include "cache/solve_cache.hpp"
#include "core/improved_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/validator.hpp"
#include "io/text_io.hpp"
#include "obs/registry.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace sharedres;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::vector<std::string> read_file_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_lines(in);
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// ---- ref-batch / expect / check-schedules ---------------------------------

int cmd_ref_batch(const util::Cli& cli) {
  batch::BatchOptions options;
  options.algorithm = cli.get("algorithm", "window");
  options.threads = 1;
  options.emit_schedules = cli.has("emit-schedules");
  (void)batch::run_batch(std::cin, std::cout, options);
  std::cout.flush();
  return std::cout ? 0 : 1;
}

int cmd_expect(const util::Cli& cli) {
  batch::WorkOptions options;
  options.algorithm = cli.get("algorithm", "window");
  batch::WorkerScratch scratch;
  for (std::string line; std::getline(std::cin, line);) {
    std::cout << batch::process_record(line, 0, options, scratch) << '\n';
  }
  std::cout.flush();
  return std::cout ? 0 : 1;
}

int cmd_check_schedules(const util::Cli& cli) {
  const auto stream = read_file_lines(cli.get("stream", ""));
  const auto results = read_file_lines(cli.get("results", ""));
  std::size_t checked = 0, invalid = 0;
  for (const auto& text : results) {
    const util::Json doc = util::Json::parse(text);
    if (!doc.contains("schedule")) continue;
    const auto index = static_cast<std::size_t>(doc.at("index").as_double());
    if (index >= stream.size()) {
      ++invalid;
      continue;
    }
    const auto record = batch::parse_instance_record(stream[index]);
    std::istringstream ss(doc.at("schedule").as_string());
    const core::Schedule schedule = io::read_schedule(ss);
    const auto check = core::validate(record.instance, schedule);
    ++checked;
    if (!check.ok) {
      ++invalid;
      std::cerr << "record " << index << ": " << check.error << "\n";
    }
  }
  std::cout << "{\"checked\":" << checked << ",\"invalid\":" << invalid
            << "}\n";
  return invalid == 0 ? 0 : 1;
}

// ---- spawn / setup ---------------------------------------------------------

volatile std::sig_atomic_t g_child = 0;

extern "C" void forward_signal(int sig) {
  if (g_child > 0) ::kill(static_cast<pid_t>(g_child), sig);
}

/// The argv after "--" on this tool's command line.
char** child_argv(int argc, char** argv) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--") return argv + i + 1;
  }
  throw std::runtime_error("missing -- argv...");
}

/// fork + exec; with `quiet` the child's stdio goes to /dev/null. The child
/// is killed if this process dies first, so a timed-out tool leaves no
/// program behind.
pid_t start_child(char** argv, bool quiet) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    if (quiet) {
      const int null = ::open("/dev/null", O_RDWR);
      for (int fd = 0; fd <= 2; ++fd) ::dup2(null, fd);
    }
    ::execvp(argv[0], argv);
    std::perror("exec");
    ::_exit(127);
  }
  return pid;
}

int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int cmd_spawn(int argc, char** argv, const util::Cli& cli) {
  char** child = child_argv(argc, argv);
  struct sigaction sa{};
  sa.sa_handler = forward_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  const std::uint64_t t0 = now_ns();
  const pid_t pid = start_child(child, false);
  g_child = pid;
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const std::uint64_t t1 = now_ns();
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  const int code = exit_code(status);
  std::ofstream out(cli.get("rusage", ""));
  out.precision(12);
  out << "{\"exit\":" << code << ",\"wall_s\":"
      << static_cast<double>(t1 - t0) / 1e9 << ",\"cpu_s\":"
      << seconds(ru.ru_utime) + seconds(ru.ru_stime)
      << ",\"maxrss_kb\":" << ru.ru_maxrss << "}\n";
  return code;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A connected unix-socket fd, or -1 while nothing listens at `path`.
int try_connect(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Send a status probe on a fresh connection and wait up to 10 s for its
/// answer.
bool probe_answered(int fd) {
  const timeval limit{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  if (!write_all(fd, "{\"status\":true}\n")) return false;
  std::string answer;
  char chunk[4096];
  while (answer.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    answer.append(chunk, static_cast<std::size_t>(n));
  }
  return answer.find("\"status\":") != std::string::npos;
}

// Set-up time, --reps times in a row. With --socket (serve): from fork until
// the socket answers a {"status":true} probe, then SIGTERM; the daemon must
// exit 0. Without (batch on an empty stream): the wall time of the whole run,
// which must exit 0. The whole window runs in this process, polling connect()
// every 20 us, so no interpreter or coarse sleep sits inside it.
int cmd_setup(int argc, char** argv, const util::Cli& cli) {
  char** child = child_argv(argc, argv);
  const std::string sock = cli.get("socket", "");
  const auto reps = cli.get_int("reps", 1);
  std::cout.precision(12);
  for (std::int64_t r = 0; r < reps; ++r) {
    if (!sock.empty()) ::unlink(sock.c_str());
    const std::uint64_t t0 = now_ns();
    const pid_t pid = start_child(child, true);
    int status = 0;
    if (!sock.empty()) {
      int fd = -1;
      while ((fd = try_connect(sock)) < 0) {
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          throw std::runtime_error("setup: program exited before listening");
        }
        if (now_ns() - t0 > 30'000'000'000ull) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          throw std::runtime_error("setup: program did not listen");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const bool answered = probe_answered(fd);
      const std::uint64_t t1 = now_ns();
      ::close(fd);
      ::kill(pid, SIGTERM);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!answered) throw std::runtime_error("setup: no status answer");
      std::cout << static_cast<double>(t1 - t0) / 1e9 << '\n';
    } else {
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      std::cout << static_cast<double>(now_ns() - t0) / 1e9 << '\n';
    }
    if (exit_code(status) != 0) {
      throw std::runtime_error("setup: program exited " +
                               std::to_string(exit_code(status)));
    }
  }
  std::cout.flush();
  return std::cout ? 0 : 1;
}

// ---- client ----------------------------------------------------------------
//
// Open loop: request g of a step is due at the step start plus a Poisson
// arrival offset, whatever the program has answered so far. Request g goes to
// connection g % kConnections; responses on a connection arrive in its send
// order, so the reader matches them to sent items by position. A step starts
// only once the previous one is fully answered, so every step begins from an
// empty system. Optional status probes ride on connection 0. With --seconds,
// no step starts after that many seconds, and the steps never started are
// left out of the output. After the last step the client shuts down its
// write sides and reads every connection to EOF: a line with no request sent
// ahead of it on its connection, or a connection still open after
// kDrainTimeout, goes to extra.ndjson.

constexpr std::size_t kConnections = 2;

struct Item {
  bool probe = false;
  std::size_t request = 0;  ///< global request number (requests only)
  std::size_t step = 0;
  std::uint64_t due = 0;    ///< ns from step start
};

struct Channel {
  int fd = -1;
  std::vector<Item> items;
  std::vector<std::size_t> step_begin;  ///< first item index of each step
};

struct RequestResult {
  std::size_t step = 0, channel = 0, local_index = 0, pool_index = 0;
  std::int64_t due = -1, sent = -1, recv = -1;
  std::string response;
};

void wait_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// A step still unanswered this long after its last send counts its
/// missing responses as failed and ends the run.
constexpr std::chrono::seconds kStepTimeout{60};
/// How long the program may take to close a connection after its last
/// request.
constexpr std::chrono::seconds kDrainTimeout{10};

int cmd_client(const util::Cli& cli) {
  auto pool = read_file_lines(cli.get("requests", ""));
  if (pool.empty()) throw std::runtime_error("client: empty request pool");
  for (auto& line : pool) line += '\n';
  const std::string probe_line = "{\"status\":true}\n";
  struct Step {
    double rate;
    std::size_t count;
  };
  std::vector<Step> plan;
  {
    std::ifstream in(cli.get("plan", ""));
    for (double rate = 0; in >> rate;) {
      std::size_t count = 0;
      in >> count;
      plan.push_back({rate, count});
    }
  }
  // The program may still be starting: retry the connect for a while.
  const std::string sock = cli.get("socket", "");
  std::vector<Channel> channels(kConnections);
  const std::uint64_t connect_end = now_ns() + 30'000'000'000ull;
  for (auto& ch : channels) {
    while ((ch.fd = try_connect(sock)) < 0) {
      if (now_ns() > connect_end) {
        throw std::runtime_error("client: cannot connect to " + sock);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto probe_every =
      static_cast<std::size_t>(cli.get_int("probe-every", 0));
  // Sleep precisely instead of spinning: the default 50 us timer slack would
  // make every send late, and a spinning sender would compete with the
  // program for the same cores.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  // A dead peer must show as a failed write, not kill the client.
  ::signal(SIGPIPE, SIG_IGN);
  std::mt19937_64 rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));

  std::vector<RequestResult> results;
  std::vector<std::size_t> local_next(channels.size(), 0);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    for (auto& ch : channels) ch.step_begin.push_back(ch.items.size());
    std::exponential_distribution<double> gap(plan[s].rate);
    double t = 0.0;
    std::size_t on_zero = 0;
    for (std::size_t k = 0; k < plan[s].count; ++k) {
      t += gap(rng);
      const std::size_t g = results.size();
      const std::size_t c = g % channels.size();
      RequestResult r;
      r.step = s;
      r.channel = c;
      r.local_index = local_next[c]++;
      r.pool_index = g % pool.size();
      r.due = static_cast<std::int64_t>(t * 1e9);
      results.push_back(r);
      channels[c].items.push_back(
          {false, g, s, static_cast<std::uint64_t>(r.due)});
      if (c == 0 && probe_every > 0 && ++on_zero % probe_every == 0) {
        ++local_next[0];
        channels[0].items.push_back(
            {true, 0, s, static_cast<std::uint64_t>(r.due)});
      }
    }
  }
  for (auto& ch : channels) ch.step_begin.push_back(ch.items.size());

  const std::uint64_t t0 = now_ns();
  std::vector<std::uint64_t> step_start(plan.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> answered(plan.size(), 0);
  std::vector<std::size_t> expected(plan.size(), 0);
  for (const auto& ch : channels) {
    for (const auto& item : ch.items) ++expected[item.step];
  }
  std::vector<std::pair<std::int64_t, long>> probes;  // (t, queue_depth)
  std::vector<std::string> extra;
  std::atomic<bool> stop{false};
  std::size_t ended = 0;  // connections read to EOF; guarded by mu
  // Per connection: the items of the steps started so far.
  std::vector<std::atomic<std::size_t>> started_items(channels.size());

  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    readers.emplace_back([&, c] {
      Channel& ch = channels[c];
      std::size_t next = 0;
      std::string buf;
      char chunk[1 << 16];
      for (;;) {
        pollfd p{ch.fd, POLLIN, 0};
        const int rc = ::poll(&p, 1, 50);
        if (rc < 0 && errno == EINTR) continue;
        if (rc == 0) {
          if (stop.load()) return;
          continue;
        }
        const ssize_t n = rc < 0 ? -1 : ::read(ch.fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // EOF: the program closed the connection
        const std::uint64_t t = now_ns();
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t from = 0;
        for (auto nl = buf.find('\n', from); nl != std::string::npos;
             nl = buf.find('\n', from)) {
          std::string line = buf.substr(from, nl - from);
          from = nl + 1;
          const std::lock_guard<std::mutex> lock(mu);
          if (next >= started_items[c].load()) {
            extra.push_back(std::move(line));
            continue;
          }
          const Item& item = ch.items[next++];
          if (item.probe) {
            const auto key = line.find("\"queue_depth\":");
            const long depth =
                key == std::string::npos
                    ? -1
                    : std::strtol(line.c_str() + key + 14, nullptr, 10);
            probes.emplace_back(static_cast<std::int64_t>(t - t0), depth);
          } else {
            results[item.request].recv = static_cast<std::int64_t>(t - t0);
            results[item.request].response = std::move(line);
          }
          if (++answered[item.step] == expected[item.step]) cv.notify_all();
        }
        buf.erase(0, from);
      }
      const std::lock_guard<std::mutex> lock(mu);
      if (!buf.empty()) extra.push_back(buf);  // an unterminated last line
      ++ended;
      cv.notify_all();
    });
  }

  const double budget_s = cli.get_double("seconds", 0.0);
  std::size_t started = 0;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    if (budget_s > 0.0 && static_cast<double>(now_ns() - t0) > budget_s * 1e9) {
      break;
    }
    started = s + 1;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      started_items[c].store(channels[c].step_begin[s + 1]);
    }
    const std::uint64_t base = now_ns() + 2'000'000;
    step_start[s] = base - t0;
    std::vector<std::thread> writers;
    std::atomic<bool> failed{false};
    for (std::size_t c = 0; c < channels.size(); ++c) {
      writers.emplace_back([&, c] {
        Channel& ch = channels[c];
        for (std::size_t i = ch.step_begin[s]; i < ch.step_begin[s + 1]; ++i) {
          const Item& item = ch.items[i];
          wait_until_ns(base + item.due);
          const std::uint64_t sent = now_ns();
          if (!item.probe) {
            results[item.request].sent = static_cast<std::int64_t>(sent - t0);
          }
          const std::string& line =
              item.probe ? probe_line : pool[results[item.request].pool_index];
          if (!write_all(ch.fd, line)) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    // A program that stopped reading ends the load; its unanswered requests
    // stay recv = -1 and count as failed.
    if (failed.load()) break;
    std::unique_lock<std::mutex> lock(mu);
    const bool done = cv.wait_for(
        lock, kStepTimeout,
        [&] { return answered[s] == expected[s]; });
    if (!done) break;  // the unanswered requests stay recv = -1
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // End of input: `serve` closes a connection once its last response is out.
  for (auto& ch : channels) ::shutdown(ch.fd, SHUT_WR);
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, kDrainTimeout,
                     [&] { return ended == channels.size(); })) {
      extra.push_back("<a connection stayed open after its last request>");
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  for (auto& ch : channels) ::close(ch.fd);
  while (!results.empty() && results.back().step >= started) results.pop_back();
  for (auto& r : results) r.due += static_cast<std::int64_t>(step_start[r.step]);

  const std::string out = cli.get("out", "");
  std::ofstream timing(out + "/timing.tsv");
  std::ofstream responses(out + "/responses.ndjson");
  for (const auto& r : results) {
    timing << r.step << '\t' << r.channel << '\t' << r.local_index << '\t'
           << r.pool_index << '\t' << r.due << '\t' << r.sent << '\t'
           << r.recv << '\n';
    responses << r.response << '\n';
  }
  std::ofstream probe_out(out + "/probes.tsv");
  for (const auto& [t, depth] : probes) probe_out << t << '\t' << depth << '\n';
  std::ofstream extra_out(out + "/extra.ndjson");
  for (const auto& line : extra) extra_out << line << '\n';
  return 0;
}

// ---- trace -----------------------------------------------------------------

enum Stage : std::uint8_t {
  kRecord,  // root span of one record; its self time is loop overhead
  kParse,
  kCanon,
  kAcquire,
  kSolve,
  kValidate,
  kBounds,
  kScheduleText,
  kFormat,
  kSubmit,   // in-process service: Service::submit
  kRespond,  // in-process service: the response callback
  kStageCount
};
constexpr const char* kStageNames[kStageCount] = {
    "record",   "parse",  "canon",         "acquire", "solve",
    "validate", "bounds", "schedule_text", "format",  "submit",
    "respond"};

struct Span {
  std::uint32_t request;  ///< spans of one record share this id
  Stage stage;            ///< parent: the request's kRecord span
  std::uint64_t t0, t1;
};

template <bool Traced>
struct Tracer {
  std::vector<Span>* spans = nullptr;
  std::uint32_t request = 0;
  template <class F>
  decltype(auto) span(Stage stage, F&& f) {
    if constexpr (Traced) {
      const std::uint64_t t0 = now_ns();
      struct Close {
        Tracer* tracer;
        Stage stage;
        std::uint64_t t0;
        ~Close() { tracer->spans->push_back({tracer->request, stage, t0, now_ns()}); }
      } close{this, stage, t0};
      return f();
    } else {
      return f();
    }
  }
};

struct ReplayCounts {
  std::uint64_t jobs = 0;
  std::uint64_t schedule_bytes = 0;
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
};

/// One pass over `lines`, mirroring batch::process_record (cache off) or
/// batch::process_cached (cache on) call for call, with a span around each
/// public call. Returns the formatted result lines.
template <bool Traced>
std::vector<std::string> replay(const std::vector<std::string>& lines,
                                const batch::WorkOptions& options,
                                std::size_t cache_capacity,
                                batch::WorkerScratch& scratch,
                                std::vector<Span>* spans,
                                ReplayCounts& counts) {
  std::optional<cache::SolveCache> solve_cache;
  if (cache_capacity > 0) {
    solve_cache.emplace(cache::SolveCache::Config{cache_capacity, 8});
  }
  Tracer<Traced> tr{spans, 0};
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    tr.request = static_cast<std::uint32_t>(i);
    const std::uint64_t root0 = Traced ? now_ns() : 0;
    batch::ResultRecord rec;
    rec.index = i;
    auto input = tr.span(kParse, [&] {
      return batch::parse_instance_record(lines[i]);
    });
    rec.id = input.id;
    const core::Instance* inst = &input.instance;
    std::optional<core::Instance> canonical;
    std::optional<cache::CanonicalForm> form;
    std::optional<cache::SolveCache::Handle> handle;
    if (solve_cache) {
      tr.span(kCanon, [&] { form.emplace(cache::canonicalize(input.instance)); });
      tr.span(kAcquire, [&] { handle.emplace(solve_cache->acquire(*form)); });
      ++counts.acquires;
    }
    const cache::CacheValue* hit = nullptr;
    if (handle && handle->hit()) {
      hit = handle->wait();
      ++counts.hits;
    }
    if (hit != nullptr) {
      rec.makespan = hit->makespan;
      rec.lower_bound = hit->lower_bound;
      rec.blocks = hit->blocks;
    } else {
      if (handle) {
        tr.span(kCanon, [&] { canonical.emplace(form->instance()); });
        inst = &*canonical;
      }
      tr.span(kSolve, [&] { batch::solve_into(*inst, options.algorithm, scratch); });
      const auto check =
          tr.span(kValidate, [&] { return core::validate(*inst, scratch.schedule); });
      if (!check.ok) {
        throw std::logic_error("trace: infeasible schedule: " + check.error);
      }
      rec.makespan = scratch.schedule.makespan();
      rec.lower_bound = tr.span(
          kBounds, [&] { return core::lower_bounds(*inst).combined(); });
      rec.blocks = scratch.schedule.blocks().size();
      if (options.emit_schedules) {
        rec.schedule_text = tr.span(kScheduleText, [&] {
          std::ostringstream ss;
          io::write_schedule(ss, scratch.schedule);
          return ss.str();
        });
        counts.schedule_bytes += rec.schedule_text.size();
      }
      if (handle) {
        cache::CacheValue value;
        value.makespan = rec.makespan;
        value.lower_bound = rec.lower_bound;
        value.blocks = rec.blocks;
        handle->fill(std::move(value));
      }
    }
    rec.ok = true;
    rec.algorithm = options.algorithm;
    rec.machines = input.instance.machines();
    rec.jobs = input.instance.size();
    counts.jobs += rec.jobs;
    out.push_back(tr.span(kFormat, [&] { return batch::format_result_record(rec); }));
    if constexpr (Traced) spans->push_back({tr.request, kRecord, root0, now_ns()});
  }
  if (solve_cache) counts.evictions = solve_cache->stats().evictions;
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Untraced and traced replays alternate this many times.
constexpr std::size_t kRounds = 3;
/// The in-process service: worker threads (the workloads' --threads) and
/// requests submitted.
constexpr std::size_t kServiceThreads = 2;
constexpr std::size_t kServiceRequests = 1000;

int cmd_trace(const util::Cli& cli) {
  const auto lines = read_file_lines(cli.get("stream", ""));
  batch::WorkOptions options;
  options.algorithm = cli.get("algorithm", "window");
  options.emit_schedules = cli.has("emit-schedules");
  const auto cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache", 0));

  // Reference lines: what process_record emits for the same records. The
  // replay must reproduce them, or it is not measuring the real path.
  std::vector<std::string> reference;
  {
    batch::WorkerScratch scratch;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      reference.push_back(batch::process_record(lines[i], i, options, scratch));
    }
  }

  batch::WorkerScratch scratch;
  std::vector<Span> spans;
  std::vector<double> untraced_ns, traced_ns;
  ReplayCounts counts;
  for (std::size_t r = 0; r < kRounds; ++r) {
    ReplayCounts discard;
    std::uint64_t t = now_ns();
    const auto plain =
        replay<false>(lines, options, cache_capacity, scratch, nullptr, discard);
    untraced_ns.push_back(static_cast<double>(now_ns() - t));
    counts = ReplayCounts{};
    spans.clear();
    spans.reserve(lines.size() * 10);
    t = now_ns();
    const auto traced =
        replay<true>(lines, options, cache_capacity, scratch, &spans, counts);
    traced_ns.push_back(static_cast<double>(now_ns() - t));
    if (plain != reference || traced != reference) {
      std::cerr << "trace: replay output differs from process_record\n";
      return 1;
    }
  }

  // Self time: a record span's duration minus its children's.
  double stage_ns[kStageCount] = {};
  std::vector<double> record_ns(lines.size(), 0.0);
  for (const auto& s : spans) {
    const auto d = static_cast<double>(s.t1 - s.t0);
    if (s.stage == kRecord) {
      stage_ns[kRecord] += d;
      record_ns[s.request] = d;
    } else {
      stage_ns[s.stage] += d;
      stage_ns[kRecord] -= d;
    }
  }
  util::Json doc{util::Json::Object{}};
  doc.emplace("records", static_cast<std::uint64_t>(lines.size()));
  doc.emplace("jobs", counts.jobs);
  util::Json self{util::Json::Object{}};
  for (int s = 0; s <= kFormat; ++s) self.emplace(kStageNames[s], stage_ns[s]);
  doc.emplace("self_ns", std::move(self));
  doc.emplace("untraced_ns", median(untraced_ns));
  doc.emplace("traced_ns", median(traced_ns));
  doc.emplace("schedule_bytes", counts.schedule_bytes);
  doc.emplace("acquires", counts.acquires);
  doc.emplace("hits", counts.hits);
  doc.emplace("evictions", counts.evictions);

  if (options.algorithm == "improved") {
    // The portfolio's pick is counted by the core::schedule_improved facade
    // (the worker path does not count it); replay each record through it,
    // outside any span.
    auto& reg = obs::Registry::global();
    const char* picks[] = {"balanced", "window", "unit"};
    std::uint64_t before[3];
    for (int k = 0; k < 3; ++k) {
      before[k] = reg.counter(std::string("engine.improved.portfolio.") + picks[k]).value();
    }
    for (const auto& line : lines) {
      (void)core::schedule_improved(batch::parse_instance_record(line).instance);
    }
    util::Json portfolio{util::Json::Object{}};
    for (int k = 0; k < 3; ++k) {
      portfolio.emplace(
          picks[k],
          reg.counter(std::string("engine.improved.portfolio.") + picks[k]).value() -
              before[k]);
    }
    doc.emplace("portfolio", std::move(portfolio));
  }

  // In-process service: admission (Service::submit, which appends to the
  // journal) and queue wait, open loop at --service-rate.
  const double rate = cli.get_double("service-rate", 0.0);
  if (rate > 0.0) {
    service::ServiceOptions sopt;
    sopt.algorithm = options.algorithm;
    sopt.threads = kServiceThreads;
    sopt.cache_capacity = cache_capacity;
    sopt.journal_path = cli.get("journal", "");
    const auto count = std::min(kServiceRequests, lines.size());
    std::vector<std::uint64_t> submit_start(count, 0), done(count, 0);
    std::vector<double> admit_us;
    std::mutex done_mu;
    std::size_t responses = 0, mismatches = 0;
    {
      service::Service svc(sopt);
      auto client = svc.open_client([&](const std::string& line) {
        const std::uint64_t t = now_ns();
        const auto index = static_cast<std::size_t>(
            std::strtoull(line.c_str() + 9, nullptr, 10));  // {"index":N
        const std::lock_guard<std::mutex> lock(done_mu);
        ++responses;
        if (index >= count || done[index] != 0 || line != reference[index]) {
          ++mismatches;
        } else {
          done[index] = t;
          spans.push_back({static_cast<std::uint32_t>(index), kRespond, t,
                           now_ns()});
        }
        return true;
      });
      std::mt19937_64 rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
      std::exponential_distribution<double> gap(rate);
      double due = 0.0;
      const std::uint64_t base = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < count; ++i) {
        due += gap(rng);
        wait_until_ns(base + static_cast<std::uint64_t>(due * 1e9));
        submit_start[i] = now_ns();
        svc.submit(client, lines[i]);
        const std::uint64_t t = now_ns();
        admit_us.push_back(static_cast<double>(t - submit_start[i]) / 1e3);
        const std::lock_guard<std::mutex> lock(done_mu);
        spans.push_back({static_cast<std::uint32_t>(i), kSubmit,
                         submit_start[i], t});
      }
      (void)svc.finish();
    }
    if (responses != count || mismatches != 0) {
      std::cerr << "trace: service answered " << responses << " of " << count
                << " requests, " << mismatches << " wrong\n";
      return 1;
    }
    std::vector<double> wait_ms;
    for (std::size_t i = 0; i < count; ++i) {
      if (done[i] == 0) continue;
      const double response = static_cast<double>(done[i] - submit_start[i]);
      wait_ms.push_back(std::max(0.0, response - record_ns[i]) / 1e6);
    }
    doc.emplace("admit_us_p50", percentile(admit_us, 50));
    doc.emplace("admit_us_p99", percentile(admit_us, 99));
    doc.emplace("queue_wait_ms_p50", percentile(wait_ms, 50));
    doc.emplace("queue_wait_ms_p99", percentile(wait_ms, 99));

    // Journal append on its own, on a fresh file beside the service's.
    if (!sopt.journal_path.empty()) {
      const std::string path = sopt.journal_path + ".append";
      std::vector<double> append_us;
      {
        service::Journal journal(path, false);
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint64_t t = now_ns();
          journal.append(lines[i]);
          append_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        }
      }
      std::remove(path.c_str());
      doc.emplace("journal_append_us", median(append_us));
    }
  }
  const std::string spans_path = cli.get("spans", "");
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const auto& s : spans) {
      out << s.request << '\t' << kStageNames[s.stage] << '\t' << s.t0 << '\t'
          << s.t1 << '\n';
    }
  }
  std::cout << doc.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool <ref-batch|expect|check-schedules|"
                 "client|spawn|setup|trace> [--flags]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    if (mode == "ref-batch") return cmd_ref_batch(cli);
    if (mode == "expect") return cmd_expect(cli);
    if (mode == "check-schedules") return cmd_check_schedules(cli);
    if (mode == "client") return cmd_client(cli);
    if (mode == "spawn") return cmd_spawn(argc, argv, cli);
    if (mode == "setup") return cmd_setup(argc, argv, cli);
    if (mode == "trace") return cmd_trace(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << mode << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_tool: unknown mode " << mode << "\n";
  return 2;
}
