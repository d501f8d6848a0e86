#!/usr/bin/env python3
"""End-to-end benchmark for sharedres (see README.md in this directory).

    python3 perfbench/run.py --workload <batch-io|batch-engine|serve-mixed>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds sharedres_cli
and perfbench_tool (Release, no fail points) into .bench_build/. The inputs
come from --seed and are generated in this process; the real binary is
driven through `batch` (file in, pipe out) or `serve --socket` (two
connections, open-loop). Every output is checked against the library's own
reference, and the last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones. Exit status is 0 only when every output was
correct.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from bisect import bisect_right

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from stats import check_name, median, percentile, reindex  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "release")
CLI = os.path.join(BUILD, "tools", "sharedres_cli")
TOOL = os.path.join(BUILD, "perfbench", "perfbench_tool")
THREADS = 2
FLOOD_REQUESTS = 2000
WARMUP_FLOODS = 3

# Offered load of each step of serve-mixed's rate ladder, as a share of its
# saturation rate. The first three are the reported r25/r50/r80; the rest
# find max_rate_rps. Requests in a step follow a Poisson process.
LADDER = (0.25, 0.50, 0.80, 1.00, 1.15, 1.30, 1.50, 1.75, 2.00, 2.50)
RATE_TAGS = ("r25", "r50", "r80")

# serve-mixed's saturation rate (req/s) and p99 latency limit are frozen from
# the seed-1 calibration (README.md): absolute numbers, never re-derived at
# run time. Each ladder rate runs `reps` times with `step_requests` requests.
WORKLOADS = {
    "batch-io": {
        "front": "batch",
        "args": ["--algorithm=window", "--emit-schedules"],
        "algorithm": "window", "emit": True,
        "corpus": lambda seed: gen.batch_io(seed, 4000),
    },
    "batch-engine": {
        "front": "batch",
        "args": ["--algorithm=improved"],
        "algorithm": "improved", "emit": False,
        "corpus": gen.batch_engine,
    },
    "serve-mixed": {
        "front": "serve",
        "args": ["--algorithm=multires", "--cache"],
        "algorithm": "multires", "emit": False, "cache": 1024,
        "sat_rps": 4300.0, "p99_limit_ms": 40.0,
        "step_requests": 300, "reps": 10,
        "corpus": lambda seed: gen.serve_mixed(seed, 3000),
    },
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "sharedres_cli.cpp"))):
        raise BenchError("run from the root of a sharedres source checkout "
                         "(CMakeLists.txt, src/ and tools/ not found)")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(logfile, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", ROOT, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", "-DSHAREDRES_FAILPOINTS=OFF",
                 "-DCMAKE_PROJECT_sharedres_INCLUDE="
                 + os.path.join(HERE, "hook.cmake")],
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed, see {logfile}")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", jobs, "--target",
             "sharedres_cli", "perfbench_tool"],
            stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed, see {logfile}")


# ---- child processes -------------------------------------------------------

class Child:
    """A measured child: `perfbench_tool spawn` forks it from a small process
    and reports its wall time and wait4 rusage."""

    def __init__(self, work, name, argv, **popen):
        self.rusage_path = os.path.join(work, name + ".rusage.json")
        self.proc = subprocess.Popen(
            [TOOL, "spawn", "--rusage=" + self.rusage_path, "--"] + argv,
            cwd=ROOT, **popen)

    def wait(self, timeout=120):
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("child timed out")
        with open(self.rusage_path) as f:
            return json.load(f)


def setup_times(argv, reps, sock=None):
    """`perfbench_tool setup`: `reps` set-up times of argv, in seconds."""
    args = [TOOL, "setup", f"--reps={reps}"]
    if sock:
        args.append("--socket=" + sock)
    try:
        out = subprocess.run(args + ["--"] + argv, cwd=ROOT,
                             stdout=subprocess.PIPE, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up timing timed out")
    if out.returncode != 0:
        raise BenchError("set-up timing failed")
    return [float(x) for x in out.stdout.split()]


def run_tool(args, stdin_path=None, stdout_path=None):
    with open(stdin_path or os.devnull, "rb") as fin, \
            open(stdout_path or os.devnull, "wb") as fout:
        rc = subprocess.call([TOOL] + args, stdin=fin, stdout=fout, cwd=ROOT)
    return rc


def read_lines(path):
    with open(path) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


# ---- correctness gate -------------------------------------------------------

def gate(rows, responses, expected0):
    """Per request: True iff exactly one response arrived and it equals the
    reference line for its record at its client-local index. `expected0[p]`
    is the reference line of pool record p (any index)."""
    verdicts = []
    for row, resp in zip(rows, responses):
        verdicts.append(row["recv"] >= 0 and
                        resp == reindex(expected0[row["pool"]], row["local"]))
    return verdicts


def load_client_output(out_dir):
    rows = []
    with open(os.path.join(out_dir, "timing.tsv")) as f:
        for line in f:
            step, chan, local, pool, due, sent, recv = map(int, line.split())
            rows.append({"step": step, "chan": chan, "local": local,
                         "pool": pool, "due": due, "sent": sent,
                         "recv": recv})
    with open(os.path.join(out_dir, "responses.ndjson")) as f:
        responses = [line.rstrip("\n") for line in f]
    if len(responses) != len(rows):
        raise BenchError("client output is inconsistent")
    probes = []
    with open(os.path.join(out_dir, "probes.tsv")) as f:
        for line in f:
            probes.append(int(line.split()[1]))
    return rows, responses, probes, read_lines(os.path.join(out_dir, "extra.ndjson"))


# ---- open-loop rate ladder -------------------------------------------------

def ladder_plan(wl, shares):
    """Every share runs `reps` times, round-robin, so slow drift on the
    machine hits all rates alike."""
    return [(wl["sat_rps"] * share, wl["step_requests"])
            for _ in range(wl["reps"]) for share in shares]


def run_client(work, sock, pool_path, plan, seed, probe_every=0, seconds=0):
    out_dir = os.path.join(work, "client")
    os.makedirs(out_dir, exist_ok=True)
    plan_path = os.path.join(work, "plan.txt")
    with open(plan_path, "w") as f:
        for rate, count in plan:
            f.write(f"{rate!r} {count}\n")
    client = subprocess.Popen(
        [TOOL, "client", "--socket=" + sock,
         "--requests=" + pool_path, "--plan=" + plan_path,
         f"--seed={seed}", "--out=" + out_dir,
         f"--probe-every={probe_every}", f"--seconds={seconds!r}"],
        cwd=ROOT)
    try:
        rc = client.wait(timeout=170)
    except subprocess.TimeoutExpired:
        client.kill()
        client.wait()
        raise BenchError("client timed out")
    if rc != 0:
        raise BenchError("client failed")
    return load_client_output(out_dir)


def step_stats(rows, ok):
    """One repetition of a rate: latency of each answered request from its
    due time, generator lateness, and the backlog (requests due but not yet
    answered) at the middle and end of the arrival window."""
    lat = [(r["recv"] - r["due"]) / 1e6 for r, good in zip(rows, ok) if good]
    late = [(r["sent"] - r["due"]) / 1e6 for r in rows if r["sent"] >= 0]
    dues = sorted(r["due"] for r in rows)
    recvs = sorted(r["recv"] for r in rows if r["recv"] >= 0)

    def backlog(t):
        return bisect_right(dues, t) - bisect_right(recvs, t)

    return {"lat": lat,
            "p99": percentile(lat, 99) if lat else float("inf"),
            "late_p99": percentile(late, 99) if late else float("inf"),
            "backlog_mid": backlog(dues[0] + (dues[-1] - dues[0]) // 2),
            "backlog_end": backlog(dues[-1]),
            "failed": sum(1 for good in ok if not good)}


def growing(mid, end):
    """A backlog grows when it is clearly larger at the end of the arrival
    window than in its middle (a stable queue fluctuates around a level)."""
    return end > 8 + 1.5 * mid


def ladder_metrics(wl, rows, ok, shares):
    """Per rate: p50 and p99 over the requests of all its repetitions
    pooled; lateness and backlog as medians over the repetitions."""
    by_step = {}
    for r, good in zip(rows, ok):
        by_step.setdefault(r["step"], ([], []))
        by_step[r["step"]][0].append(r)
        by_step[r["step"]][1].append(good)
    steps = []
    for k, share in enumerate(shares):
        keys = [rep * len(shares) + k for rep in range(wl["reps"])]
        reps = [step_stats(*by_step[key]) for key in keys if key in by_step]
        lat = [x for rep in reps for x in rep["lat"]]
        st = {key: median([rep[key] for rep in reps])
              for key in ("late_p99", "backlog_mid", "backlog_end")}
        st["p50"] = percentile(lat, 50) if lat else float("inf")
        st["p99"] = percentile(lat, 99) if lat else float("inf")
        # The limit is judged on the median repetition's p99, so a host
        # stall inside one repetition does not fail the whole rate.
        st["rep_p99"] = median([rep["p99"] for rep in reps])
        st["failed"] = sum(rep["failed"] for rep in reps)
        st["pass"] = (len(reps) == wl["reps"] and st["failed"] == 0
                      and st["rep_p99"] <= wl["p99_limit_ms"]
                      and not growing(st["backlog_mid"], st["backlog_end"]))
        st["rate"] = wl["sat_rps"] * share
        steps.append(st)
    return steps


def max_rate(steps, limit_ms):
    """Highest rate whose p99 meets the limit without a growing backlog,
    interpolated on p99 between the last passing and first failing step."""
    for i, st in enumerate(steps):
        if st["pass"]:
            continue
        p99 = st["rep_p99"]
        if i == 0:
            return st["rate"] * min(1.0, limit_ms / p99)
        prev = steps[i - 1]
        frac = 0.0
        if limit_ms < p99 < float("inf"):
            frac = (limit_ms - prev["rep_p99"]) / (p99 - prev["rep_p99"])
        return prev["rate"] + max(0.0, min(1.0, frac)) * (st["rate"] - prev["rate"])
    return steps[-1]["rate"]


def steady_rate(rows):
    """Completions per second between the 20% and 80% completion marks of a
    flood step: the front end's throughput without ramp-up and drain."""
    done = sorted(r["recv"] for r in rows if r["recv"] >= 0)
    if len(done) < 5:
        return 0.0  # too few answers to time: the gate has failed the run
    lo, hi = done[len(done) // 5], done[len(done) * 4 // 5]
    return (len(done) * 4 // 5 - len(done) // 5) / ((hi - lo) / 1e9)


def quality(lines):
    makespan = lower = 0
    for line in lines:
        doc = json.loads(line)
        if doc.get("ok"):
            makespan += doc["makespan"]
            lower += doc["lower_bound"]
    return makespan / lower


# ---- batch front end -------------------------------------------------------

def batch_argv(wl, source):
    return [CLI, "batch", "--in=" + source, f"--threads={THREADS}"] + wl["args"]


def run_batch_workload(wl, work, seed, seconds, trace):
    corpus = wl["corpus"](seed)
    corpus_path = os.path.join(work, "corpus.ndjson")
    write_lines(corpus_path, corpus)
    del corpus
    ref_path = os.path.join(work, "ref.ndjson")
    ref_args = ["ref-batch", "--algorithm=" + wl["algorithm"]]
    if wl["emit"]:
        ref_args.append("--emit-schedules")
    if run_tool(ref_args, corpus_path, ref_path) != 0:
        raise BenchError("ref-batch failed")
    with open(ref_path, "rb") as f:
        ref_bytes = f.read()
    *ref_lines, summary = ref_bytes.decode().splitlines()
    records = len(ref_lines)
    tally = Tally()
    # The reference comes from the same library, so check it on its own
    # terms too: one ok line per input record, in input order.
    inputs = len(read_lines(corpus_path))
    good = sum(1 for i, line in enumerate(ref_lines)
               if line.startswith('{"index":%d,' % i) and '"ok":true' in line)
    tally.add(inputs, inputs - good)
    tally.check(json.loads(summary).get("ok") == inputs)
    if wl["emit"]:
        tally.check(run_tool(["check-schedules", "--stream=" + corpus_path,
                              "--results=" + ref_path]) == 0)

    def one_pass(extra_args=()):
        child = Child(work, "pass",
                      batch_argv(wl, corpus_path) + list(extra_args),
                      stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        same = child.proc.stdout.read() == ref_bytes
        child.proc.stdout.close()
        usage = child.wait()
        tally.add(records, 0 if usage["exit"] == 0 and same else records)
        return usage

    if trace:
        metrics_path = os.path.join(work, "metrics.json")
        usage = one_pass(["--metrics-json=" + metrics_path])
        with open(metrics_path) as f:
            counters = json.load(f)["deterministic"]["counters"]
        layers = run_trace(wl, work, corpus_path, seed, records)
        metrics = per_layer_metrics(wl, layers, counters, None, None)
        metrics["batch.cpu_util"] = usage["cpu_s"] / (usage["wall_s"] * THREADS)
        metrics["batch.unaccounted.share"] = (
            1.0 - layers["record_ns"] / 1e9 / (usage["cpu_s"] / records))
        return tally, metrics

    empty = os.path.join(work, "empty.ndjson")
    open(empty, "w").close()
    setups, rates, cpu, rss = [], [], [], []
    deadline = time.monotonic() + seconds
    while len(rates) < 5 or time.monotonic() < deadline:
        # Set-up runs interleave with the passes, so a stretch of host noise
        # reaches both alike.
        setups += setup_times(batch_argv(wl, empty), 3)
        usage = one_pass()
        rates.append(records / usage["wall_s"])
        cpu.append(usage["cpu_s"] * 1e3 / records)
        rss.append(usage["maxrss_kb"] / 1024.0)
    return tally, {
        "records_per_s": median(rates),
        "cpu_ms_per_rec": median(cpu),
        "peak_rss_mb": max(rss),
        "makespan_over_lb": quality(ref_lines),
        "setup_s": median(setups),
        "ok_frac": tally.ok_frac(),
    }


class Tally:
    """Attempted and failed outputs of one run, and whether every check
    held."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        self.correct &= failed == 0

    def check(self, held):
        self.correct &= bool(held)

    def ok_frac(self):
        return (self.attempted - self.failed) / self.attempted


# ---- serve front end -------------------------------------------------------

def serve_argv(wl, work, sock, extra=()):
    journal = os.path.join(work, "journal.ndjson")
    if os.path.exists(journal):
        os.remove(journal)
    return ([CLI, "serve", "--socket=" + sock, f"--threads={THREADS}",
             "--journal=" + journal] + wl["args"] + list(extra))


def socket_path(work):
    # Relative: a unix socket path is limited to about 100 bytes.
    return os.path.relpath(os.path.join(work, "s.sock"), ROOT)


def serve_session(wl, work, pool_path, expected0, seed, plan, probe_every=0,
                  extra=(), seconds=0):
    """One daemon under the client's plan, then SIGTERM. Returns the
    client's rows, their gate verdicts, the number of extra lines (each
    answers no request, and counts as one more failure), the status probe
    answers, the daemon's rusage, and whether it exited 0 after its summary
    line."""
    sock = socket_path(work)
    out_path = os.path.join(work, "serve.out")
    with open(out_path, "wb") as out:
        child = Child(work, "serve", serve_argv(wl, work, sock, extra),
                      stdout=out, stderr=subprocess.DEVNULL)
        try:
            rows, responses, probes, stray = run_client(
                work, sock, pool_path, plan, seed, probe_every, seconds)
        finally:
            if child.proc.poll() is None:
                child.proc.send_signal(signal.SIGTERM)
            usage = child.wait()
    summary = read_lines(out_path)
    clean = (usage["exit"] == 0 and bool(summary)
             and json.loads(summary[-1]).get("summary") is True)
    return (rows, gate(rows, responses, expected0), len(stray), probes, usage,
            clean)


def run_serve_workload(wl, work, seed, seconds, trace):
    pool = wl["corpus"](seed)
    pool_path = os.path.join(work, "pool.ndjson")
    write_lines(pool_path, pool)
    del pool
    expected_path = os.path.join(work, "expected.ndjson")
    if run_tool(["expect", "--algorithm=" + wl["algorithm"]], pool_path,
                expected_path) != 0:
        raise BenchError("expect failed")
    expected0 = read_lines(expected_path)
    tally = Tally()

    if trace:
        metrics_path = os.path.join(work, "metrics.json")
        rows, ok, stray, probes, usage, clean = serve_session(
            wl, work, pool_path, expected0, seed, ladder_plan(wl, LADDER),
            probe_every=25, extra=["--metrics-json=" + metrics_path])
        tally.add(len(rows), ok.count(False) + stray)
        tally.check(clean)
        with open(metrics_path) as f:
            counters = json.load(f)["deterministic"]["counters"]
        layers = run_trace(wl, work, pool_path, seed, 2000,
                           service_rate=wl["sat_rps"] * LADDER[2])
        metrics = per_layer_metrics(wl, layers, counters,
                                    ladder_metrics(wl, rows, ok, LADDER),
                                    probes)
        metrics["batch.cpu_util"] = usage["cpu_s"] / (usage["wall_s"] * THREADS)
        metrics["batch.unaccounted.share"] = (
            1.0 - layers["record_ns"] / 1e9 / (usage["cpu_s"] / len(rows)))
        return tally, metrics

    def setup(reps):
        return setup_times(serve_argv(wl, work, socket_path(work)), reps,
                           socket_path(work))

    # Set-up runs before and after the floods, so a stretch of host noise
    # at either end does not decide the median alone.
    setups = setup(15)
    # Floods: each offered far above capacity, so its completion rate is the
    # daemon's throughput. The first ones warm the daemon up (its first
    # thousands of requests run measurably slower) and are not timed. Floods
    # start until --seconds have passed, up to three times the saturation
    # rate's worth.
    plan = [(wl["sat_rps"] * 20.0, FLOOD_REQUESTS)] * (
        WARMUP_FLOODS + int(3 * seconds * wl["sat_rps"] / FLOOD_REQUESTS))
    rows, ok, stray, _, usage, clean = serve_session(
        wl, work, pool_path, expected0, seed, plan, seconds=seconds)
    tally.add(len(rows), ok.count(False) + stray)
    tally.check(clean)
    timed = sorted({r["step"] for r in rows} - set(range(WARMUP_FLOODS)))
    if not timed and tally.correct:
        raise BenchError("--seconds too short for a timed flood")
    setups += setup(15)
    return tally, {
        # A failed run may have no timed flood; it reports 0.
        "records_per_s": median([steady_rate([r for r in rows
                                              if r["step"] == k])
                                 for k in timed]) or 0.0,
        "cpu_ms_per_rec": usage["cpu_s"] * 1e3 / len(rows),
        "peak_rss_mb": usage["maxrss_kb"] / 1024.0,
        "makespan_over_lb": quality(expected0),
        "setup_s": median(setups),
        "ok_frac": tally.ok_frac(),
    }


# ---- traced per-layer run --------------------------------------------------

def run_trace(wl, work, stream_path, seed, max_records, service_rate=0.0):
    """In-process replay through perfbench_tool trace: spans around each
    public call, reduced to self time per layer."""
    lines = read_lines(stream_path)[:max_records]
    sub = os.path.join(work, "trace.ndjson")
    write_lines(sub, lines)
    out = os.path.join(work, "trace.json")
    # The spans of the last traced round outlive the run, for inspection.
    spans = os.path.join(ROOT, ".bench_build", f"spans-{wl['name']}.tsv")
    args = ["trace", "--stream=" + sub, "--algorithm=" + wl["algorithm"],
            f"--cache={wl.get('cache', 0)}", f"--seed={seed}",
            "--spans=" + spans]
    if wl["emit"]:
        args.append("--emit-schedules")
    if service_rate:
        args += [f"--service-rate={service_rate!r}",
                 "--journal=" + os.path.join(work, "trace-journal.ndjson")]
    if run_tool(args, stdout_path=out) != 0:
        raise BenchError("trace failed")
    with open(out) as f:
        layers = json.load(f)
    layers["record_ns"] = sum(layers["self_ns"].values()) / layers["records"]
    return layers


def per_layer_metrics(wl, layers, counters, steps, probes):
    n = layers["records"]  # spans of the last traced round
    self_ns = layers["self_ns"]
    total = sum(self_ns.values())
    m = {}

    def stage(prefix, key, share=True):
        m[prefix + ".us_per_rec"] = self_ns[key] / n / 1e3
        if share:
            m[prefix + ".share"] = self_ns[key] / total

    stage("stream.parse", "parse")
    stage("stream.format", "format")
    stage("io.schedule_text", "schedule_text")
    m["io.schedule_text.bytes_per_rec"] = layers["schedule_bytes"] / layers["records"]
    stage("core.solve", "solve")
    m["core.solve.ns_per_job"] = self_ns["solve"] / layers["jobs"]
    stage("core.validate", "validate")
    stage("core.lower_bounds", "bounds")
    stage("cache.canon", "canon", share=False)
    stage("cache.acquire", "acquire", share=False)
    m["cache.hit_ratio"] = (layers["hits"] / layers["acquires"]
                            if layers["acquires"] else 0.0)
    m["cache.evictions"] = layers["evictions"]

    def ratio(a, b):
        return counters.get(a, 0) / counters[b] if counters.get(b) else 0.0

    m["engine.sos.window_hops_per_step"] = ratio("engine.sos.window_hops",
                                                 "engine.sos.steps")
    m["engine.sos.ff_step_frac"] = ratio("engine.sos.fast_forward_steps",
                                         "engine.sos.steps")
    m["engine.unit.walk_hops_per_step"] = ratio("engine.unit.walk_hops",
                                                "engine.unit.steps")
    m["engine.unit.window_rebuilds"] = counters.get("engine.unit.window_rebuilds", 0)
    m["engine.improved.steps"] = counters.get("engine.improved.steps", 0)
    m["engine.multires.steps"] = counters.get("engine.multires.steps", 0)
    for pick in ("balanced", "window", "unit"):
        m["engine.improved.portfolio." + pick] = layers.get(
            "portfolio", {}).get(pick, 0)

    m["service.admit_us.p50"] = layers.get("admit_us_p50", 0.0)
    m["service.admit_us.p99"] = layers.get("admit_us_p99", 0.0)
    m["service.journal.append_us"] = layers.get("journal_append_us", 0.0)
    m["service.queue_wait_ms.p50"] = layers.get("queue_wait_ms_p50", 0.0)
    m["service.queue_wait_ms.p99"] = layers.get("queue_wait_ms_p99", 0.0)
    m["service.queue_depth.max"] = max(probes) if probes else 0

    # The rate ladder runs on serve-mixed only; the batch workloads report 0.
    for tag, st in zip(RATE_TAGS, steps or [{}] * len(RATE_TAGS)):
        m["lat_p50_ms." + tag] = st.get("p50", 0.0)
        m["lat_p99_ms." + tag] = st.get("p99", 0.0)
        m["gen.late_ms.p99." + tag] = st.get("late_p99", 0.0)
        m["backlog.end." + tag] = st.get("backlog_end", 0)
    m["max_rate_rps"] = max_rate(steps, wl["p99_limit_ms"]) if steps else 0.0
    m["trace.overhead_frac"] = layers["traced_ns"] / layers["untraced_ns"] - 1.0
    return m


# ---- units and output ------------------------------------------------------

def unit_of(name):
    table = [
        ("records_per_s", "records/s"), ("max_rate_rps", "req/s"),
        ("cpu_ms_per_rec", "ms"), ("lat_", "ms"), ("peak_rss_mb", "MB"),
        ("setup_s", "s"), ("ok_frac", "ratio"), ("makespan_over_lb", "ratio"),
        ("io.schedule_text.bytes_per_rec", "bytes"), (".share", "ratio"),
        (".us_per_rec", "us"), ("ns_per_job", "ns"), ("_per_step", "hops/step"),
        ("ff_step_frac", "ratio"), ("hit_ratio", "ratio"),
        ("service.admit_us", "us"), ("append_us", "us"),
        ("queue_wait_ms", "ms"), ("gen.late_ms", "ms"), ("cpu_util", "ratio"),
        ("overhead_frac", "ratio"),
    ]
    for key, unit in table:
        if key in name:
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = dict(WORKLOADS[args.workload], name=args.workload)
    try:
        build()
        work = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
        os.makedirs(work)
        try:
            runner = (run_batch_workload if wl["front"] == "batch"
                      else run_serve_workload)
            tally, metrics = runner(wl, work, args.seed, args.seconds,
                                    bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {check_name(k): {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
