#!/usr/bin/env python3
"""Spec-to-RESULT benchmark for dpgen.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check      # a wrong reference must fail

Per run, the benchmark
  1. builds the dpgen libraries and perfbench/workloads.cpp with CMake into
     .bench_build/ (a no-op once built);
  2. sets up the solver SETUPS times: spec text -> parse -> tiling model ->
     generated program -> host compile with the documented compile line;
  3. times each in-process layer call over repeated calls;
  4. runs the solver untraced, as a child process, for --seconds seconds
     after WARMUP discarded solves, checking every RESULT/MAX line against
     the workload's serial reference loop, whose runs alternate with the
     solves (it is the correctness oracle and the speed baseline);
  5. runs one traced solve (--report= and --msgtrace=) for the per-layer
     numbers.

It prints a table of every metric with its unit and, as the last line, a
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The benchmark's own
spans (name, start, end, parent) around each layer call, each solve and
each serial run are written, with the host context and every metric, to
.bench_build/runs/<workload>-seed<N>-trace<T>/spans.json at exit.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

SETUPS = 2          # setups per run; setup_s is their median
WARMUP = 3          # solves discarded after the compile
SERIAL_BLOCKS = 5   # the timed window alternates solves and serial runs
SERIAL_SHARE = 0.3  # share of each block given to back-to-back serial runs
LAYER_BUDGET_S = 0.2  # repeated-call budget per in-process layer
SETUP_SLACK = 0.05  # the layer calls must account for setup_s within this
SOLVE_TIMEOUT_S = 30.0
COMPILE_FLAGS = ["-std=c++20", "-O2", "-fopenmp", "-DDPGEN_RUNTIME_USE_OPENMP"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")


def load_benchmark():
    """Workload and metric names as BENCHMARK.json declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        die(f"cannot read BENCHMARK.json: {e}")
    return {key: [x["name"] for x in spec[key]]
            for key in ("workloads", "end_to_end", "per_layer")}


class Spans:
    """The benchmark's own spans, kept in memory and written at exit."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, **attrs):
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent}
        span.update(attrs)
        self.spans.append(span)
        return span["id"]

    def open(self, name, parent=None):
        return self.add(name, time.monotonic(), None, parent)

    def close(self, sid):
        self.spans[sid]["end"] = time.monotonic()
        return self.spans[sid]["end"] - self.spans[sid]["start"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds into .bench_build/cmake; returns build info."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die(f"build failed: {' '.join(cmd)}")
    info = {"lib": []}
    with open(os.path.join(CMAKE_DIR, "build-info.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            if key == "lib":
                info["lib"].append(value)
            elif key:
                info[key] = value
    return info


def tool(info, *args):
    out = subprocess.run([info["tool"], *map(str, args)], capture_output=True,
                         text=True)
    if out.returncode:
        die(f"workload tool {' '.join(map(str, args))} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def read_cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0  # total, steal


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def solve(binary, args, stderr_file):
    """Runs one solve; returns (start, wall_s, maxrss_kb, exit_code,
    stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE,
                            stderr=stderr_file, text=True)
    timer = threading.Timer(SOLVE_TIMEOUT_S, proc.kill)
    timer.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    timer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss, proc.returncode, out


def result_lines(out):
    return [l for l in out.splitlines() if l.startswith(("RESULT ", "MAX "))]


def stats_line(out):
    for line in out.splitlines():
        if line.startswith("STATS "):
            return {k: float(v) for k, v in
                    (f.split("=", 1) for f in line.split()[1:])}
    return {}


def lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def tail(walls):
    """The highest percentile with at least ten solves beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # nearest rank, ceil(pct/100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="compare against a reference one ulp off; every "
                         "solve must then fail")
    ap.add_argument("--self-check", action="store_true",
                    help="run a short corrupted-reference run and check "
                         "that fail_ratio is 1")
    a = ap.parse_args()
    if a.self_check:
        return self_check()
    if not a.workload:
        ap.error("--workload is required")

    bench = load_benchmark()
    if a.workload not in bench["workloads"]:
        die(f"unknown workload {a.workload!r}; choose from {bench['workloads']}")
    # Compilers and CMake keep their temporary files inside the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    info = build()

    run_dir = os.path.join(BUILD, "runs",
                           f"{a.workload}-seed{a.seed}-trace{a.trace}")
    os.makedirs(run_dir, exist_ok=True)
    spans = Spans()
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds}
    try:
        record.update(run(a, info, run_dir, spans, bench))
    finally:
        record["spans"] = spans.spans
        with open(os.path.join(run_dir, "spans.json"), "w") as f:
            json.dump(record, f, indent=1)
    return 0


class SerialServer:
    """The workload's serial reference loop, kept in a process of its own
    for the whole run; each call runs the loop once."""

    def __init__(self, info, a, spans):
        self.spans = spans
        self.proc = subprocess.Popen(
            [info["tool"], "serial", a.workload, str(a.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def __call__(self, parent):
        """Runs the loop once; returns (expected lines, seconds)."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            die("the serial reference loop exited")
        r = json.loads(line)
        span = r["span"]
        self.spans.add("serial", span["start"], span["end"], parent)
        return r["expected"], span["end"] - span["start"]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, a, info, run_dir, spans):
        self.a, self.info, self.run_dir, self.spans = a, info, run_dir, spans
        self.binary = os.path.join(run_dir, "solver")
        self.m = {}      # metric name -> (value, unit)
        self.notes = {}  # metric name -> text printed beside it
        self.attempted = self.failed = 0
        self.expected = None

    def metric(self, name, value, unit, note=None):
        self.m[name] = (value, unit)
        if note:
            self.notes[name] = note

    def setup(self, root):
        """spec text -> runnable solver, SETUPS times; False if the compile
        failed."""
        src = os.path.join(self.run_dir, "solver.gen.cpp")
        setup_s, compile_s = [], []
        for _ in range(SETUPS):
            sid = self.spans.open("setup", root)
            gen = tool(self.info, "setup", self.a.workload, self.a.seed, src)
            for s in gen["spans"]:
                self.spans.add(s["name"], s["start"], s["end"], sid)
            cid = self.spans.open("compile", sid)
            cc = subprocess.run(
                [self.info["cxx"], *COMPILE_FLAGS, "-I" + self.info["src"],
                 src, *self.info["lib"], "-lpthread", "-o", self.binary],
                capture_output=True, text=True)
            compile_s.append(self.spans.close(cid))
            setup_s.append(self.spans.close(sid))
            if cc.returncode:
                sys.stderr.write(cc.stderr[-4000:])
                return False
        self.solver_args = gen["solver_args"]
        self.metric("setup_s", statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} setups")
        self.metric("codegen.compile_s", statistics.median(compile_s), "s")
        self.metric("codegen.lines", gen["lines"], "count")
        return True

    def layers(self, root):
        """Times the in-process layer calls over repeated calls."""
        lay = tool(self.info, "layers", self.a.workload, self.a.seed,
                   LAYER_BUDGET_S)
        span = lay["spans"][0]
        self.spans.add("layers", span["start"], span["end"], root)
        self.metric("spec.parse_s", lay["parse_s"], "s")
        self.metric("tiling.model_s", lay["model_s"], "s")
        self.metric("codegen.generate_s", lay["generate_s"], "s")
        self.metric("tiling.tiles", lay["tiles"], "count")
        self.metric("tiling.cells", lay["cells"], "count")
        parts = (lay["parse_s"] + lay["model_s"] + lay["generate_s"] +
                 self.m["codegen.compile_s"][0])
        share = parts / self.m["setup_s"][0]
        self.metric("setup.accounted_share", share, "ratio",
                    "(parse + model + generate + compile) / setup_s")
        if abs(share - 1.0) > SETUP_SLACK:
            print(f"perfbench: the layer calls account for {share:.1%} of "
                  "setup_s", file=sys.stderr)

    def solve(self, parent, name, extra=()):
        """One checked solve; returns (ok, wall_s, maxrss_kb, stdout)."""
        start, wall, maxrss, code, out = solve(
            self.binary, self.solver_args + list(extra), self.err)
        ok = code == 0 and result_lines(out) == self.expected
        self.spans.add(name, start, start + wall, parent, ok=ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"perfbench: {name} failed (exit {code}): "
                             f"{result_lines(out)} != {self.expected}\n")
        return ok, wall, maxrss, out

    def solves(self, root, serial):
        """WARMUP discarded solves, then --seconds of untraced solves in
        SERIAL_BLOCKS blocks, each followed by back-to-back serial runs,
        then one traced solve."""
        self.expected, _ = serial(root)  # untimed first run: the oracle
        if self.a.corrupt_reference:
            # Self-check: a reference one ulp off must fail every solve.
            head, _, value = self.expected[0].rpartition(" = ")
            wrong = math.nextafter(float(value), math.inf)
            self.expected[0] = f"{head} = {wrong:.17g}"
        sid = self.spans.open("solves", root)
        for _ in range(WARMUP):
            self.solve(sid, "warmup_solve")
        walls, rss, stats, serial_s = [], [], [], []
        part = self.a.seconds / SERIAL_BLOCKS
        for _ in range(SERIAL_BLOCKS):
            begin = time.monotonic()
            while time.monotonic() - begin < part * (1 - SERIAL_SHARE):
                ok, wall, maxrss, out = self.solve(sid, "solve")
                if ok:
                    walls.append(wall)
                    rss.append(maxrss)
                    stats.append(stats_line(out))
            begin = time.monotonic()
            serial_s.append(serial(sid)[1])
            while (time.monotonic() - begin + serial_s[-1] <=
                   part * SERIAL_SHARE):
                serial_s.append(serial(sid)[1])
        self.spans.close(sid)

        report = os.path.join(self.run_dir, "report.json")
        msgtrace = os.path.join(self.run_dir, "msgtrace.json")
        traced_ok, traced_s, _, _ = self.solve(
            root, "traced_solve",
            [f"--report={report}", f"--msgtrace={msgtrace}"])
        if not walls:
            return

        p50 = statistics.median(walls)
        self.metric("solve_s_p50", p50, "s", f"median of {len(walls)} solves")
        value, pct = tail(walls)
        self.metric("solve_s_tail", value, "s", f"p{pct} of {len(walls)} solves")
        self.metric("solve.count", len(walls), "count")
        self.metric("solve.tail_pct", pct, "pct")
        self.metric("peak_rss_mb", statistics.median(rss) / 1024.0, "MB")
        self.metric("baseline.serial_s", statistics.median(serial_s), "s",
                    f"median of {len(serial_s)} runs")
        # The serial loop holds one core, and on a shared host its time is
        # bimodal (contended or not) with a share of slow runs that changes
        # from run to run, so its median jumps between the modes.  The lower
        # quartile tracks the uncontended speed and makes the speedup
        # conservative.
        base = lower_quartile(serial_s)
        self.metric("speedup_vs_serial", base / p50, "x",
                    f"{base:.4f} s serial p25 / {p50:.4f} s")
        med = lambda k: statistics.median(s.get(k, 0.0) for s in stats)
        self.metric("runtime.peak_edges", med("peak_edges"), "count")
        self.metric("runtime.init_scan_s", med("init_scan_s"), "s")
        self.metric("minimpi.remote_edges", med("remote_edges"), "count")
        self.metric("minimpi.bytes", med("bytes"), "bytes")
        if traced_ok:
            self.m.update(traced_metrics(report, msgtrace, p50, traced_s,
                                         self.notes))


def run(a, info, run_dir, spans, bench):
    host = {"nproc": len(os.sched_getaffinity(0)),
            "cxx": info["cxx"],
            "cxx_version": subprocess.run(
                [info["cxx"], "--version"], capture_output=True,
                text=True).stdout.splitlines()[0],
            "compile_flags": " ".join(COMPILE_FLAGS),
            "loadavg_start": loadavg()}
    cpu0 = read_cpu_times()
    root = spans.open("run")
    r = Run(a, info, run_dir, spans)
    compile_ok = r.setup(root)
    if compile_ok:
        r.layers(root)
        with open(os.path.join(run_dir, "solver.stderr"), "w") as r.err, \
                SerialServer(info, a, spans) as serial:
            r.solves(root, serial)
    else:
        r.attempted = r.failed = 1  # a failed compile fails every solve
    cpu1 = read_cpu_times()
    spans.close(root)

    host["loadavg_end"] = loadavg()
    r.metric("bench.fail_ratio", r.failed / r.attempted, "ratio",
             f"{r.failed} of {r.attempted} solves failed")
    r.metric("host.loadavg", host["loadavg_end"], "load")
    r.metric("host.steal_frac",
             (cpu1[1] - cpu0[1]) / max(1, cpu1[0] - cpu0[0]), "ratio")
    r.metric("host.nproc", host["nproc"], "count")

    m = r.m
    print_table(a, host, m, r.notes, bench)
    correct = r.failed == 0
    wanted = bench["end_to_end" if a.trace == 0 else "per_layer"]
    missing = [k for k in wanted if k not in m]
    if missing:
        print(f"perfbench: no valid value for {', '.join(missing)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": r.attempted, "failed": r.failed,
        "metrics": {k: {"value": m[k][0], "unit": m[k][1]}
                    for k in wanted if k in m}}))
    return {"host": host, "correct": correct, "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def traced_metrics(report_path, msgtrace_path, p50, traced_s, notes):
    """Per-layer numbers from the traced solve's documents.  Returns none of
    them when the tracer dropped spans or message records, since the
    report would then be biased."""
    with open(report_path) as f:
        rep = json.load(f)
    with open(msgtrace_path) as f:
        msg = json.load(f)
    m = {"obs.traced_solve_s": (traced_s, "s"),
         "obs.overhead_ratio": (traced_s / p50, "ratio"),
         "obs.report_bytes": (os.path.getsize(report_path), "bytes"),
         "obs.msgtrace_bytes": (os.path.getsize(msgtrace_path), "bytes"),
         "obs.spans_dropped": (rep["spans_dropped"], "count"),
         "obs.records_dropped": (msg["records_dropped"], "count")}
    if rep["spans_dropped"] or msg["records_dropped"]:
        print("perfbench: the traced solve dropped spans or message records; "
              "its per-layer numbers are invalid and not reported",
              file=sys.stderr)
        return m

    phase = lambda p: sum(r["phases_seconds"].get(p, 0.0)
                          for r in rep["load_balance"]["ranks"])
    for p in ("compute", "pack", "unpack", "poll", "idle", "barrier", "other"):
        m[f"runtime.{p}_s"] = (phase(p), "s")
    busy = phase("compute") + phase("pack") + phase("unpack")
    m["runtime.pack_unpack_share"] = (
        (phase("pack") + phase("unpack")) / busy if busy else 0.0, "ratio")
    notes["runtime.pack_unpack_share"] = f"of {busy:.4f} s compute+pack+unpack"
    m["runtime.makespan_s"] = (rep["makespan_seconds"], "s")
    m["runtime.outside_makespan_s"] = (p50 - rep["makespan_seconds"], "s")
    lb = rep["load_balance"]
    m["runtime.imbalance_predicted"] = (lb["predicted_imbalance"], "ratio")
    m["runtime.imbalance_measured"] = (lb["measured_imbalance"], "ratio")
    cp = rep["critical_path"]["attribution_seconds"]
    for p in ("compute", "unpack", "pack", "send", "poll", "idle", "other"):
        m[f"runtime.cp_{p}_s"] = (cp.get(p, 0.0), "s")

    m["minimpi.send_s"] = (phase("send"), "s")
    m["minimpi.blocked_send_s"] = (phase("blocked_send"), "s")
    n = msg["messages"]
    q = msg["queueing_ns"]
    for bucket in ("queue", "sender_blocked", "unpack_wait"):
        m[f"minimpi.{bucket}_s_mean"] = (q[bucket] * 1e-9 / n if n else 0.0,
                                         "s")
    notes["minimpi.queue_s_mean"] = f"over {n} messages"
    return m


def print_table(a, host, m, notes, bench):
    print(f"workload {a.workload}  seed {a.seed}  seconds {a.seconds:g}  "
          f"nproc {host['nproc']}")
    print(f"compiler {host['cxx_version']}  flags {host['compile_flags']}")
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section}")
        for k in bench[section]:
            if k in m:
                v, unit = m[k]
                note = f"  ({notes[k]})" if k in notes else ""
                print(f"  {k:34s} {v:>16.6g} {unit}{note}")
            else:
                print(f"  {k:34s} {'invalid':>16s}")


def self_check():
    """A reference one ulp off must drive fail_ratio to 1."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", "msa3-r4t1",
         "--seed", "1", "--seconds", "1", "--trace", "1",
         "--corrupt-reference"], capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    ratio = result["metrics"]["bench.fail_ratio"]["value"]
    ok = (not result["correct"] and ratio == 1.0 and
          result["failed"] == result["attempted"])
    print(f"self-check: corrupted reference -> fail_ratio {ratio} "
          f"({result['failed']}/{result['attempted']}): "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
