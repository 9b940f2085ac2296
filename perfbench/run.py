#!/usr/bin/env python3
"""Repo benchmark: the shipped `cyptrace` on five workloads.

    python3 perfbench/run.py --workload trace-lu --seed 1 --seconds 7 --trace 0

Run from the root of a cypress checkout. The first run builds `cyptrace`
and the helpers into .bench_build/; every run works in .bench_work/ and
leaves a full report in .bench_out/. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it is the report (host record, inputs, samples, medians).

--trace 0 times the workload's closed loop of `cyptrace` processes and
prints the end-to-end metrics. --trace 1 runs the traced per-layer
breakdown (cypbench, one fresh process per stage) next to the same loop
and prints the per-layer metrics. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CYPRESS_BUILD = os.path.join(BUILD, "cypress")
HELPER_BUILD = os.path.join(BUILD, "perfbench")
CYPTRACE = os.path.join(CYPRESS_BUILD, "tools", "cyptrace")
CYPBENCH = os.path.join(HELPER_BUILD, "cypbench")
CYPSPAWN = os.path.join(HELPER_BUILD, "cypspawn")
BUILD_TYPE = "RelWithDebInfo"  # the project's default build type
CHILD_TIMEOUT_S = 150
SETUP_REPS = 3
MIN_OPS = 3

# Input sizes. "tiny" is for the self-test only (test_run.py).
SCALES = {
    "full": {"lu_procs": 1024, "cg_procs": 2048, "merge_budget": 1 << 20},
    "tiny": {"lu_procs": 16, "cg_procs": 16, "merge_budget": 4 << 10},
}
QUERY_KINDS = ["summary", "hist", "matrix", "colls"]


class BenchError(Exception):
    """A failure that makes the run unusable (build, set-up)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- build ------------------------------------------------------------


def run_checked(argv, what):
    r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        log(r.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {r.returncode})")


def cache_value(cache_file, key):
    with open(cache_file) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def build(jobs):
    """Build cyptrace from this checkout, then the helpers against it."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "tools"))):
        raise BenchError(f"{ROOT} is not a cypress source checkout")
    if not os.path.isfile(os.path.join(CYPRESS_BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", ROOT, "-B", CYPRESS_BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], "configure cypress")
    run_checked(["cmake", "--build", CYPRESS_BUILD, "--target", "cyptrace",
                 "-j", str(jobs)], "build cyptrace")
    if not os.path.isfile(os.path.join(HELPER_BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", HELPER_BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     f"-DCYPRESS_BUILD_DIR={CYPRESS_BUILD}"],
                    "configure perfbench")
    run_checked(["cmake", "--build", HELPER_BUILD, "-j", str(jobs)],
                "build perfbench")


def source_digest():
    """sha256 over the sources cyptrace is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "tools"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    paths.append(os.path.join(ROOT, "CMakeLists.txt"))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def host_record(threads):
    cache = os.path.join(CYPRESS_BUILD, "CMakeCache.txt")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    sanitize = cache_value(cache, "CYPRESS_SANITIZE")
    r = subprocess.run([CYPBENCH, "host"], capture_output=True, text=True,
                       check=True)
    helper = json.loads(r.stdout)
    if build_type == "Debug" or sanitize or helper["sanitized"]:
        raise BenchError(f"refusing to report from a {build_type or 'default'}"
                         f" build with sanitize='{sanitize}'")
    hw = helper["hardware_concurrency"]
    return {
        "hardware_concurrency": hw,
        "nproc": os.cpu_count(),
        "threads": threads,
        "oversubscribed": threads > hw,
        "build_type": build_type,
        "ndebug": helper["ndebug"],
        "compiler": cache_value(cache, "CMAKE_CXX_COMPILER") + " "
                    + helper["compiler"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---- child processes --------------------------------------------------


class Proc:
    """One finished child: wall time, its own peak RSS, exit code, CPU
    time (user + system) and output."""

    def __init__(self, wall_s, rss_mb, code, cpu_s, out_path, err_path):
        self.wall_s, self.rss_mb, self.code = wall_s, rss_mb, code
        self.cpu_s = cpu_s
        self.out_path, self.err_path = out_path, err_path

    @property
    def stdout(self):
        with open(self.out_path) as f:
            return f.read()

    @property
    def stderr(self):
        with open(self.err_path) as f:
            return f.read()


class Runner:
    """Spawns children through cypspawn, so each reading is the child's own
    peak RSS and wall time, not this Python process's."""

    def __init__(self, work):
        self.work = work
        self.count = 0

    def spawn(self, argv):
        self.count += 1
        out = os.path.join(self.work, f"p{self.count}.out")
        err = os.path.join(self.work, f"p{self.count}.err")
        r = subprocess.run([CYPSPAWN, out, err, str(CHILD_TIMEOUT_S), "--"]
                           + argv, capture_output=True, text=True)
        if r.returncode != 0:
            raise BenchError(f"cypspawn failed: {r.stderr.strip()}")
        wall_ns, rss_kb, code, cpu_ns = (int(x) for x in r.stdout.split())
        return Proc(wall_ns * 1e-9, rss_kb / 1024.0, code, cpu_ns * 1e-9, out,
                    err)

    def must(self, argv):
        """A set-up step: any failure makes the run unusable."""
        p = self.spawn(argv)
        if p.code != 0:
            raise BenchError(f"{' '.join(argv)} exited {p.code}: "
                             f"{p.stderr.strip()[-2000:]}")
        return p


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_text(path):
    with open(path) as f:
        return f.read()


# ---- workloads --------------------------------------------------------


class Op:
    """One closed-loop operation and the outcome of its correctness check."""

    def __init__(self, wall_s, cpu_s, rss_mb, trace_bytes, ok, why=""):
        self.wall_s, self.cpu_s, self.rss_mb = wall_s, cpu_s, rss_mb
        self.trace_bytes = trace_bytes
        self.ok, self.why = ok, why


def corrupt_file(path):
    data = bytearray(read_bytes(path))
    data[len(data) // 2] ^= 0xFF
    with open(path, "wb") as f:
        f.write(data)


class Workload:
    """Set-up (repeated, timed), a once-per-run oracle check, then ops."""

    name = ""
    procs_per_op = 1  # processes one op starts

    def __init__(self, runner, scale, threads, seed):
        self.r, self.scale, self.t, self.seed = runner, scale, threads, seed
        self.inputs = {}

    def path(self, name):
        return os.path.join(self.r.work, name)

    def draw(self, trace_path):
        p = self.r.must([CYPBENCH, "draw", "--trace", trace_path,
                         "--seed", str(self.seed)])
        return json.loads(p.stdout)["spec"]

    def answers(self, trace_path, specs):
        """CLI answers to each spec, or None when a query fails."""
        out = {}
        for spec in specs:
            p = self.r.spawn([CYPTRACE, "query", trace_path, spec])
            if p.code != 0:
                return None
            out[spec] = p.stdout
        return out

    def setup_once(self, i):
        raise NotImplementedError

    def setup(self, i):
        """Set-up repetition `i`; it must produce the same inputs as
        repetition 0. Returns its wall time."""
        t0 = time.perf_counter()
        produced = self.setup_once(i)
        elapsed = time.perf_counter() - t0
        if i == 0:
            self.produced = produced
        elif produced != self.produced:
            raise BenchError(f"set-up repetition {i} produced different "
                             f"inputs than repetition 0")
        return elapsed

    def check_oracle(self):
        """Once per run; returns "" or why the check failed."""
        raise NotImplementedError

    def op(self, corrupt):
        raise NotImplementedError

    def layer_stages(self):
        """(name, argv) of each traced cypbench process; the last one is
        the op's equivalent."""
        raise NotImplementedError

    def check_layers(self, metrics):
        """Whether the traced run's outputs match the CLI's."""
        raise NotImplementedError

    def derive(self, stages):
        """Per-layer metrics from the traced stages' outputs."""
        (metrics,) = stages.values()
        return metrics


class TraceLu(Workload):
    """`cyptrace run LU`: VM, engine, CYPRESS hooks, raw recorder, merge,
    serialize, one atomic write."""

    name = "trace-lu"

    def run_argv(self, out):
        return [CYPTRACE, "run", "LU", "--procs", str(self.scale["lu_procs"]),
                "--out", out]

    def setup_once(self, i):
        ref = self.path(f"ref{i}.cyp")
        self.r.must(self.run_argv(ref))
        self.ref = ref
        self.ref_bytes = read_bytes(ref)
        self.inputs["callsites"] = self.draw(ref)
        return (self.ref_bytes, self.inputs["callsites"])

    def check_oracle(self):
        odir = self.path("oracle")
        os.makedirs(odir, exist_ok=True)
        p = self.r.must([CYPBENCH, "oracle-raw", "--workload", "LU", "--procs",
                         str(self.scale["lu_procs"]), "--threads", str(self.t),
                         "--out", odir])
        self.events = int(json.loads(p.stdout)["events"])
        if read_bytes(f"{odir}/trace.cyp") != self.ref_bytes:
            return f"the in-process trace at {self.t} threads differs"
        got = self.answers(self.ref, QUERY_KINDS + [self.inputs["callsites"]])
        if got is None:
            return "a query on the reference trace failed"
        for kind in QUERY_KINDS:
            if got[kind].rstrip("\n") != read_text(f"{odir}/{kind}.json"):
                return f"{kind} differs from the raw-trace oracle"
        return ""

    def op(self, corrupt):
        out = self.path("op.cyp")
        p = self.r.spawn(self.run_argv(out))
        if p.code != 0:
            return Op(p.wall_s, p.cpu_s, p.rss_mb, 0, False, f"exit {p.code}")
        if corrupt:
            corrupt_file(out)
        data = read_bytes(out)
        m = re.search(r"traced LU on \d+ ranks: (\d+) events", p.stdout)
        if data != self.ref_bytes:
            return Op(p.wall_s, p.cpu_s, p.rss_mb, len(data), False,
                      "trace differs from the set-up reference")
        if not m or int(m.group(1)) != self.events:
            return Op(p.wall_s, p.cpu_s, p.rss_mb, len(data), False, "event count")
        return Op(p.wall_s, p.cpu_s, p.rss_mb, len(data), True)

    def layer_stages(self):
        base = [CYPBENCH, "layers", "trace-lu", "--workload", "LU",
                "--procs", str(self.scale["lu_procs"])]
        return [
            ("bare", base + ["--stage", "bare", "--threads", str(self.t)]),
            ("bare_1t", base + ["--stage", "bare", "--threads", "1"]),
            # As the timed op: the CLI's default of one thread.
            ("ctt", base + ["--stage", "ctt", "--threads", "1"]),
            ("full", base + ["--stage", "full", "--threads", "1",
                             "--out", self.path("layers.cyp")]),
        ]

    def check_layers(self, metrics):
        return read_bytes(self.path("layers.cyp")) == self.ref_bytes

    def derive(self, stages):
        full, bare, bare1, ctt = (stages["full"], stages["bare"],
                                  stages["bare_1t"], stages["ctt"])
        m = dict(full)
        m["vm.run_s"] = bare["vm.run_s"]
        m["vm.instructions"] = bare["vm.instructions"]
        m["vm.run_1t_s"] = bare1["vm.run_s"]
        m["vm.speedup"] = bare1["vm.run_s"] / bare["vm.run_s"]
        m["cypress.hooks_s"] = ctt["run.ctt_s"] - bare1["vm.run_s"]
        m["cypress.hook_cpu_s"] = ctt["cypress.hook_cpu_s"]
        m["cypress.mem_per_rank_bytes"] = ctt["cypress.mem_per_rank_bytes"]
        m["trace.raw_recorder_s"] = full["run.ctt_raw_s"] - ctt["run.ctt_s"]
        return m


class MergeCg(Workload):
    """`cyptrace merge` of a CG rank-trace directory under a 1 MiB budget:
    rank loads, spills, reduction rounds and fsyncs; no VM at all."""

    name = "merge-cg"

    def setup_once(self, i):
        out, ranks = self.path(f"run{i}.cyp"), self.path(f"ranks{i}")
        self.r.must([CYPTRACE, "run", "CG", "--procs",
                     str(self.scale["cg_procs"]), "--out", out,
                     "--emit-ranks", ranks])
        if i > 0:  # keep one rank directory on disk
            shutil.rmtree(self.ranks)
        self.run_trace, self.ranks = out, ranks
        self.inputs["callsites"] = self.draw(out)
        return (read_bytes(out), self.inputs["callsites"])

    def specs(self):
        return QUERY_KINDS + [self.inputs["callsites"]]

    def check_oracle(self):
        self.expected = self.answers(self.run_trace, self.specs())
        return "" if self.expected else "a query on the run trace failed"

    def merge_argv(self, out):
        return [CYPTRACE, "merge", self.ranks, "--merge-budget",
                str(self.scale["merge_budget"]), "--out", out]

    def check_merged(self, out):
        got = self.answers(out, self.specs())
        if got != self.expected:
            return "merged trace answers differ from the in-memory run's"
        return ""

    def op(self, corrupt):
        out = self.path("merged.cyp")
        p = self.r.spawn(self.merge_argv(out))
        if p.code != 0:
            return Op(p.wall_s, p.cpu_s, p.rss_mb, 0, False, f"exit {p.code}")
        if corrupt:
            corrupt_file(out)
        size = os.path.getsize(out)
        if (f"merged {self.scale['cg_procs']} ranks" not in p.stdout
                or "partial trace" in p.stdout):
            return Op(p.wall_s, p.cpu_s, p.rss_mb, size, False, "dropped ranks")
        why = self.check_merged(out)
        return Op(p.wall_s, p.cpu_s, p.rss_mb, size, not why, why)

    def layer_stages(self):
        return [("merge", [CYPBENCH, "layers", "merge-cg", "--rankdir",
                           self.ranks, "--budget",
                           str(self.scale["merge_budget"]),
                           "--out", self.path("layers.cyp")])]

    def check_layers(self, metrics):
        return not self.check_merged(self.path("layers.cyp"))


class AnalyzeCg(Workload):
    """One read of the CG trace. The three analyze-cg-* workloads share
    this set-up and read the same CTT three ways, each timed on its own:
    the CompressedCursor walk (`replay`), full expansion (`stats`) and
    compressed-domain queries (`query`)."""

    read = ""

    def setup_once(self, i):
        # One path for every repetition: `stats` prints it, and ops after
        # each set-up must print the same output.
        out = self.path("cg.cyp")
        self.r.must([CYPTRACE, "run", "CG", "--procs",
                     str(self.scale["cg_procs"]), "--out", out])
        self.trace = out
        return read_bytes(out)

    def commands(self):
        """(key, argv) of each process of one op."""
        return [(self.read, [CYPTRACE, self.read, self.trace])]

    @property
    def procs_per_op(self):
        return len(self.commands())

    def oracle_argv(self, odir):
        return [CYPBENCH, "oracle-trace", "--read", self.read,
                "--trace", self.trace, "--out", odir]

    def check_oracle(self):
        odir = self.path("oracle")
        os.makedirs(odir, exist_ok=True)
        self.load_oracle(odir, json.loads(self.r.must(
            self.oracle_argv(odir)).stdout))
        self.first = None
        return ""

    def op(self, corrupt):
        wall, cpu, rss, outs = 0.0, 0.0, 0.0, {}
        failed = ""
        for key, argv in self.commands():
            p = self.r.spawn(argv)
            wall += p.wall_s
            cpu += p.cpu_s
            rss = max(rss, p.rss_mb)
            if p.code != 0 and not failed:
                failed = f"{key} exited {p.code}"
            outs[key] = p.stdout
        if corrupt:  # every number in the first output off by one digit
            key = next(iter(outs))
            outs[key] = re.sub(r"\d", lambda d: str((int(d.group()) + 1) % 10),
                               outs[key])
        why = failed or self.check_outputs(outs)
        if not why:
            if self.first is None:
                self.first = outs
            elif outs != self.first:
                why = "output differs from the first op"
        return Op(wall, cpu, rss, os.path.getsize(self.trace), not why, why)

    def layer_stages(self):
        return [(self.read, [CYPBENCH, "layers", "analyze-cg", "--read",
                             self.read, "--trace", self.trace]
                 + self.layer_args())]

    def layer_args(self):
        return []


class AnalyzeReplay(AnalyzeCg):
    """`cyptrace replay`: the CompressedCursor walk and the simulator."""

    name = "analyze-cg-replay"
    read = "replay"

    def load_oracle(self, odir, o):
        self.oracle = {"events": int(o["replay_events"]),
                       "predicted_ms": "%.3f" % (o["predicted_ns"] / 1e6)}

    def check_outputs(self, outs):
        events = re.search(r"replayed (\d+) events", outs["replay"])
        predicted = re.search(r"predicted execution time: ([0-9.]+) ms",
                              outs["replay"])
        if not events or int(events.group(1)) != self.oracle["events"]:
            return "replay event count differs from the oracle"
        if not predicted or predicted.group(1) != self.oracle["predicted_ms"]:
            return "replay prediction differs from the oracle"
        return ""

    def check_layers(self, metrics):
        return (metrics["replay.events"] == self.oracle["events"]
                and metrics["query.cursor_events"] == self.oracle["events"])


class AnalyzeStats(AnalyzeCg):
    """`cyptrace stats`: full expansion through decompressAll."""

    name = "analyze-cg-stats"
    read = "stats"

    def load_oracle(self, odir, o):
        self.oracle = {"events": int(o["events"]),
                       "stats": read_text(f"{odir}/stats.txt")}

    def check_outputs(self, outs):
        if self.oracle["stats"] not in outs["stats"]:
            return "stats output differs from the oracle"
        return ""

    def check_layers(self, metrics):
        return metrics["cypress.decompressed_events"] == self.oracle["events"]


class AnalyzeQuery(AnalyzeCg):
    """The fixed query mix, one `cyptrace query` process per query:
    summary, hist, matrix, colls and the seeded callsites spec."""

    name = "analyze-cg-query"
    read = "query"

    def setup_once(self, i):
        produced = super().setup_once(i)
        self.inputs["callsites"] = self.draw(self.trace)
        return (produced, self.inputs["callsites"])

    def specs(self):
        return QUERY_KINDS + [self.inputs["callsites"]]

    def commands(self):
        return [(s, [CYPTRACE, "query", self.trace, s]) for s in self.specs()]

    def oracle_argv(self, odir):
        return super().oracle_argv(odir) + ["--spec", self.inputs["callsites"]]

    def load_oracle(self, odir, o):
        self.oracle = {k: read_text(f"{odir}/{k}.json") for k in QUERY_KINDS}
        self.oracle[self.inputs["callsites"]] = read_text(
            f"{odir}/callsites.json")

    def check_outputs(self, outs):
        for spec, want in self.oracle.items():
            if outs[spec].rstrip("\n") != want:
                return f"query '{spec}' differs from the oracle"
        return ""

    def layer_args(self):
        odir = self.path("layers")
        os.makedirs(odir, exist_ok=True)
        return ["--spec", self.inputs["callsites"], "--out", odir]

    def check_layers(self, metrics):
        odir = self.path("layers")
        return all(read_text(f"{odir}/{k}.json") == self.oracle[k]
                   for k in QUERY_KINDS) and read_text(
            f"{odir}/callsites.json") == self.oracle[self.inputs["callsites"]]


WORKLOADS = {w.name: w for w in (TraceLu, MergeCg, AnalyzeReplay,
                                  AnalyzeStats, AnalyzeQuery)}


# ---- statistics -------------------------------------------------------


def summarize(values):
    """Median, sample count, and the highest percentile that has at least
    ten samples beyond it (None below 11 samples)."""
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": statistics.median(s) if s else None,
           "p_hi": None}
    if n >= 11:  # s[n - 11] is the highest sample with 10 beyond it
        out["p_hi"] = {"pct": 100 * (n - 10) // n, "value": s[n - 11]}
    return out


class Measurement:
    def __init__(self):
        self.setup_times, self.ops = [], []
        self.oracle_why = ""
        self.layers, self.spans, self.layers_ok = {}, {}, True


def measure(wl, reps, seconds, traced, corrupt_op):
    """Set-up `reps` times, each followed by an equal slice of the closed
    loop: ops back to back until `seconds` of ops have run in all (at
    least MIN_OPS). The host's speed drifts over tens of seconds, so
    spreading the loop across the set-ups averages more of that drift
    than one block would, at no extra cost. A failed op is counted and
    never retried. The oracle check and the traced run follow the first
    set-up."""
    res = Measurement()
    op_s = 0.0
    for i in range(reps):
        res.setup_times.append(wl.setup(i))
        if i == 0:
            res.oracle_why = wl.check_oracle()
            if res.oracle_why:
                log(f"{wl.name}: oracle check failed: {res.oracle_why}")
            if traced:
                res.layers, res.spans, res.layers_ok = traced_layers(wl)
                if not res.layers_ok:
                    log(f"{wl.name}: traced run failed its correctness check")
        last = i == reps - 1
        while (op_s < seconds * (i + 1) / reps
               or (last and len(res.ops) < MIN_OPS)):
            t0 = time.perf_counter()
            res.ops.append(wl.op(corrupt=(len(res.ops) + 1 == corrupt_op)))
            op_s += time.perf_counter() - t0
            if not res.ops[-1].ok:
                log(f"{wl.name}: op {len(res.ops)} failed: "
                    f"{res.ops[-1].why}")
    return res


def loop_report(ops):
    good = [o for o in ops if o.ok] or ops
    rep = {
        "op_s": summarize([o.wall_s for o in good]),
        "op_rss_mb": summarize([o.rss_mb for o in good]),
        "failures": [o.why for o in ops if not o.ok],
    }
    return rep


def end_to_end_metrics(ops, setup_times):
    good = [o for o in ops if o.ok] or ops
    return {
        "op_s": statistics.median(o.wall_s for o in good),
        "op_rss_mb": statistics.median(o.rss_mb for o in good),
        "trace_bytes": statistics.median(o.trace_bytes for o in good),
        "setup_s": statistics.median(setup_times),
        "ops_ok_frac": sum(o.ok for o in ops) / len(ops),
    }


def traced_layers(wl):
    """Each traced stage in a fresh process; returns (metrics, spans, ok)."""
    stages, spans = {}, {}
    for name, argv in wl.layer_stages():
        p = wl.r.spawn(argv)
        if p.code != 0:
            log(f"{wl.name}: traced stage {name} exited {p.code}: "
                f"{p.stderr.strip()[-2000:]}")
            return {}, {}, False
        out = json.loads(p.stdout)
        stages[name] = out["metrics"]
        stages[name]["process_wall_s"] = p.wall_s
        stages[name]["process_rss_mb"] = p.rss_mb
        spans[name] = out["spans"]
    metrics = wl.derive(stages)
    # Measured in the op's own traced process: its wall time outside the
    # spans (start-up, reading input, teardown).
    last = stages[name]
    metrics["other_s"] = last["process_wall_s"] - last["spans_s"]
    return metrics, spans, wl.check_layers(metrics)


# ---- main -------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (test_run.py): tiny inputs, and a deliberately
    # corrupted output on the given op (1-based) that must count as failed.
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-op", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        spec = load_spec()
        nproc = os.cpu_count() or 1
        threads = min(4, nproc)
        t_build = time.perf_counter()
        build(nproc)
        build_s = time.perf_counter() - t_build
        host = host_record(threads)

        work = os.path.join(ROOT, ".bench_work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        runner = Runner(work)
        wl = WORKLOADS[args.workload](runner, SCALES[args.scale], threads,
                                      args.seed)
        res = measure(wl, SETUP_REPS if args.trace == 0 else 1,
                      args.seconds, args.trace == 1, args.corrupt_op)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    ops, layers = res.ops, res.layers
    attempted = len(ops) + 1 + (args.trace == 1)
    failed = (sum(not o.ok for o in ops) + bool(res.oracle_why)
              + (not res.layers_ok))
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host,
        "inputs": wl.inputs, "build_s": build_s,
        "setup_s": {"samples": res.setup_times,
                    **summarize(res.setup_times)},
        "oracle": res.oracle_why or "ok",
        "loop": loop_report(ops),
        "op_samples": [{"wall_s": o.wall_s, "cpu_s": o.cpu_s,
                        "rss_mb": o.rss_mb, "ok": o.ok} for o in ops],
    }
    if args.trace == 0:
        metrics = end_to_end_metrics(ops, res.setup_times)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        if layers:
            # The traced op: its spans, and other_s for each process it
            # starts. One traced sample against the loop's median, so it
            # also carries the host's drift between the two.
            traced_op = (layers["op_equiv_s"]
                         + wl.procs_per_op * layers["other_s"])
            report["traced_op_s"] = traced_op
            report["tracing_overhead_s"] = traced_op - statistics.median(
                o.wall_s for o in ops)
        report["layers"] = layers
        report["spans"] = res.spans
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # Layers this workload does not exercise read 0, as an untouched
        # counter or span total does.
        metrics = {name: layers.get(name, 0.0) for name in units}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{wl.name}-trace{args.trace}"
                           f"-seed{args.seed}.json"), "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    report.pop("spans", None)
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
