#!/usr/bin/env python3
"""End-to-end benchmark of the pinpoint CLI on generated Table-1 subjects.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --compare FILE [FILE ...]
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
pinpoint library, the CLI and the in-process helper (perfbench/pinbench.cpp)
from source into $CARGO_TARGET_DIR (default .bench_build); later calls only
re-check the build. Subjects, caches and outputs live under .bench_work and
are removed at exit.

Each run generates its workload's subjects from --seed (the seed reaches the
generator and nothing else; without --seed it is workload::configFor's own,
as in the exhibits under bench/), sets up, then runs the built `pinpoint` CLI
as a child process, one run at a time, cycling through the subjects, for
--seconds (closed loop, one client; at least two runs). Every run's sorted
report list must equal its subject's reference, taken in set-up from an
uncached --jobs=1 run whose reports the planted-bug oracle
(workload::evaluate) has accepted; any mismatch or non-zero exit fails the
benchmark (exit 1). Each run's wall time goes to stderr.

--trace 0 prints the end-to-end metrics (per subject the median over its
CLI runs, averaged over the workload's subjects):
  wall_s       spawn-to-exit wall time of one CLI run
  cpu_s        the child's user + system CPU time
  peak_rss_mb  the child's ru_maxrss
  setup_s      subject generation and write, the reference run and, for
               firefox_warm_edit, the cold cache populate (median of three
               set-ups)
  ok_frac      runs that exited 0 and passed the oracle / runs attempted
--trace 1 prints the per-layer metrics of BENCHMARK.json instead, from
`pinbench trace` runs that drive the CLI's library calls in-process with a
span around each layer entry point (medians over the traced runs), plus
trace.unaccounted_s (traced wall minus the top-level spans) and
trace.overhead_s (traced wall minus the wall of the untraced CLI run just
before it, on the same subject).

Claims made with this benchmark must also hold on the held-out seed
HELD_OUT_SEED below, which was not used while tuning it. --self-test runs
every workload once at a tiny scale in both modes and checks that the
oracles reject corrupted references.

Every result line is preceded by a `perfbench-run` line that records the
workload, seed and environment stamp (SMT backend, CPUs, build type, commit
and source hash). --out appends that record with the metrics to FILE;
--compare prints the medians of such files side by side and refuses files
whose SMT backend, CPU count or build type differ.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 20261016

# name -> (Table-1 subject, scale, subjects, CLI flags, summary cache and
# per-run edit). A CLI run takes 1-2 s on a 4-core machine: the host's
# speed drifts by tens of percent over seconds to minutes, so a run needs
# many samples over a long window more than it needs a large subject. Runs
# cycle through
# the subjects. On mysql the SMT and exhaustive costs of one subject vary
# by 20-40% with the seed (about one infeasible plant in ten needs the
# backend), so those workloads average over several subjects. The shares
# below are of the untraced wall time, from --trace 1 at seed 601 with Z3.
WORKLOADS = {
    # Z3 discharge of uaf (global.uaf_s, ~140 backend calls) ~85%;
    # jobs=1 bypasses pool and scheduler.
    "mysql_serial": ("mysql", 0.02, 3, ["--checker=uaf,df,null-deref,leak",
                                        "--jobs=1"], False),
    # Zero backend calls: parse + SSA + pre-pass ~37%, pooled per-SCC
    # pipeline ~35%, teardown ~23%.
    "firefox_parallel": ("firefox", 0.02, 1, ["--checker=null-deref,leak",
                                              "--jobs=4"], False),
    # Summary-cache replay (~5.8K hits, 1 miss) plus local relevance
    # refresh after a one-function edit; --stats adds an intern-table walk
    # of ~0.015 s (~1.5%).
    "firefox_warm_edit": ("firefox", 0.02, 1, ["--checker=null-deref,leak",
                                               "--jobs=4"], True),
    # The exhaustive oracle mode: closure search and linear filter ~65%
    # with zero backend calls, teardown ~27%.
    "mysql_exhaustive": ("mysql", 0.005, 16, ["--checker=null-deref",
                                             "--demand=off", "--jobs=1"],
                         False),
}

SETUP_REPS = 3
MIN_RUNS = 2
RUN_DEADLINE_S = 165  # after the build; the contract allows 180

REPORT_RE = re.compile(r"^[\w-]+: source \S+ -> sink \S+")
BUG_CHECKERS = {"uaf": "use-after-free", "df": "double-free"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


#===--- Build ---------------------------------------------------------------===


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (first time) and builds; returns the build directory."""
    bd = build_dir()
    cache = os.path.join(bd, "CMakeCache.txt")
    configured = False
    if os.path.exists(cache):
        with open(cache) as f:
            # Not configured for another checkout, nor left half-configured.
            configured = (
                "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in f.read() and
                any(os.path.exists(os.path.join(bd, b))
                    for b in ("build.ninja", "Makefile")))
    if not configured:
        shutil.rmtree(bd, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", bd, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bd, "-j", str(min(4, ncpus()))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bd


def ncpus():
    return len(os.sched_getaffinity(0))


def stamp(bd):
    backend = subprocess.run([os.path.join(bd, "pinbench"), "smt-backend"],
                             check=True, capture_output=True, text=True)
    build_type = None
    with open(os.path.join(bd, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return {"smt_backend": backend.stdout.strip(), "nproc": ncpus(),
            "build_type": build_type, "commit": commit,
            "source_sha256": h.hexdigest()[:16]}


#===--- Child processes -----------------------------------------------------===


class Runner:
    """Spawns the built programs; every child ends before the deadline."""

    def __init__(self, bd, deadline):
        self.cli = os.path.join(bd, "pinpoint", "pinpoint")
        self.helper = os.path.join(bd, "pinbench")
        self.deadline = deadline

    def timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def timed(self, args, out_path):
        """Runs one child; returns (exit code, wall s, cpu s, peak RSS MB)."""
        timeout = self.timeout()
        with open(out_path, "w") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, p.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode < 0:
            raise BenchError("child killed (signal %d): %s"
                             % (-p.returncode, " ".join(args)))
        return (p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)

    def pinpoint(self, flags, out_path):
        return self.timed([self.cli] + flags, out_path)

    def helper_out(self, args):
        r = subprocess.run([self.helper] + args, capture_output=True,
                           text=True, timeout=self.timeout())
        if r.returncode != 0:
            raise BenchError("pinbench %s failed: %s" % (args[0], r.stderr))
        return r.stdout


#===--- Oracle --------------------------------------------------------------===


def report_list(path):
    """The sorted report blocks (header line plus its via lines)."""
    blocks = []
    with open(path) as f:
        for line in f.read().splitlines():
            if REPORT_RE.match(line):
                blocks.append([line])
            elif line.startswith("    via ") and blocks:
                blocks[-1].append(line)
    return sorted("\n".join(b) for b in blocks)


def check_plants(runner, bugs, out_path, checkers):
    """Every feasible plant reported, no infeasible one (env-guarded plants
    are expected false positives). Returns a list of problems."""
    verdict = json.loads(runner.helper_out(["eval", bugs, out_path]))
    problems = []
    for flag, name in BUG_CHECKERS.items():
        if flag not in checkers:
            continue
        v = verdict[name]
        if v["feasible_found"] != v["feasible"]:
            problems.append("%s: %d of %d feasible plants reported"
                            % (name, v["feasible_found"], v["feasible"]))
        if v["infeasible_reported"]:
            problems.append("%s: %d infeasible plants reported"
                            % (name, v["infeasible_reported"]))
    return problems


def stats_fields(path):
    """key=value fields of the --stats lines, keyed "[line] key"."""
    fields = {}
    with open(path) as f:
        for line in f:
            m = re.match(r"^\[([\w-]+)\] (.*)$", line)
            if m:
                for key, val in re.findall(r"([\w.-]+)=(\S+)", m.group(2)):
                    fields["%s %s" % (m.group(1), key)] = val
    return fields


#===--- Workload ------------------------------------------------------------===


class Subject:
    """One generated subject: its files and its reference report list."""

    def __init__(self, work, index):
        self.src = os.path.join(work, "subject%d.mc" % index)
        self.bugs = os.path.join(work, "subject%d.bugs" % index)
        self.reference = None
        self.lines = None
        self.candidates = None


class Workload:
    """One workload's subjects, references and per-run edits in a work dir."""

    def __init__(self, name, seed, runner, work, scale_factor=1.0):
        subject, scale, count, flags, cached = WORKLOADS[name]
        self.name = name
        self.subject = subject
        self.scale = scale * scale_factor
        self.flags = flags
        self.checkers = flags[0].split("=", 1)[1].split(",")
        self.cached = cached
        self.seed = "default" if seed is None else str(seed)
        self.runner = runner
        self.work = work
        self.subjects = [Subject(work, i) for i in range(count)]
        self.cache = os.path.join(work, "cache")
        self.out = os.path.join(work, "run.out")
        self.runs = 0

    def setup(self):
        """One set-up; returns its wall seconds. The first fixes the
        references, later ones must reproduce them."""
        t0 = time.perf_counter()
        shutil.rmtree(self.cache, ignore_errors=True)
        for i, sub in enumerate(self.subjects):
            self.setup_subject(sub, i)
        if self.cached:
            sub = self.subjects[0]
            code, _, _, _ = self.runner.pinpoint(self.cli_flags(sub),
                                                 self.out)
            if code != 0 or report_list(self.out) != sub.reference:
                raise BenchError("cold cache populate failed")
        return time.perf_counter() - t0

    def setup_subject(self, sub, index):
        self.runner.helper_out(["gen", self.subject, repr(self.scale),
                                self.seed, str(index), sub.src, sub.bugs])
        ref_out = os.path.join(self.work, "reference.out")
        ref_flags = [f for f in self.flags
                     if not f.startswith("--jobs=") and f != "--demand=off"]
        code, _, _, _ = self.runner.pinpoint(
            ref_flags + ["--jobs=1", sub.src], ref_out)
        if code != 0:
            raise BenchError("reference run exited %d" % code)
        problems = check_plants(self.runner, sub.bugs, ref_out,
                                self.checkers)
        if problems:
            raise BenchError("reference fails the plant oracle: %s"
                             % "; ".join(problems))
        reference = report_list(ref_out)
        if sub.reference is not None and reference != sub.reference:
            raise BenchError("set-up is not deterministic")
        sub.reference = reference
        with open(sub.src) as f:
            sub.lines = f.read().split("\n")

    def edit_candidates(self, sub):
        """Indices of lines a pad statement can follow, one per kept
        function whose edit invalidates only its own cache entry."""
        out = [int(line.split()[1]) - 1 for line in self.runner.helper_out(
            ["isolated", ",".join(self.checkers), sub.src]).splitlines()]
        if not out:
            raise BenchError("no editable kept function")
        return out

    def cli_flags(self, sub):
        extra = ["--cache-dir=" + self.cache, "--stats"] if self.cached else []
        return self.flags + extra + [sub.src]

    def start_run(self, sub):
        """Counts a run; on a cached workload, first applies a fresh
        one-function edit chosen from the seed and run index: a pad
        statement appended to an existing line, so that no report line or
        column moves."""
        self.runs += 1
        if not self.cached:
            return
        if sub.candidates is None:
            sub.candidates = self.edit_candidates(sub)
        rng = random.Random("%s/%s/%d" % (self.name, self.seed, self.runs))
        idx = rng.choice(sub.candidates)
        sub.lines[idx] += " int bench_pad_%d = %d;" % (
            self.runs, rng.randrange(1, 1 << 30))
        with open(sub.src, "w") as f:
            f.write("\n".join(sub.lines))

    def check_run(self, code, out_path, sub):
        """Problems with one measured run (empty when it is correct)."""
        if code != 0:
            return ["exit code %d" % code]
        problems = []
        if report_list(out_path) != sub.reference:
            problems.append("reports differ from the reference")
        if self.cached:
            s = stats_fields(out_path)
            want = {"demand refresh-mode": "local", "demand dirty-fns": "1",
                    "cache misses": "1"}
            for key, val in want.items():
                if s.get(key) != val:
                    problems.append("%s=%s, expected %s"
                                    % (key, s.get(key), val))
        return problems

    def cli_run(self, sub):
        """One measured CLI run; returns (problems, wall, cpu, rss)."""
        self.start_run(sub)
        code, wall, cpu, rss = self.runner.pinpoint(self.cli_flags(sub),
                                                    self.out)
        return self.check_run(code, self.out, sub), wall, cpu, rss

    def traced_run(self, sub):
        """One in-process traced run; returns (problems, wall, trace)."""
        self.start_run(sub)
        reports = os.path.join(self.work, "traced.out")
        args = [self.runner.helper, "trace"] + [
            f for f in self.cli_flags(sub) if f != "--stats"] + [
            "--reports=" + reports]
        code, wall, _, _ = self.runner.timed(args, self.out)
        if code != 0:
            return ["traced run exited %d" % code], wall, None
        with open(self.out) as f:
            trace = json.loads(f.read().strip().splitlines()[-1])
        problems = []
        if report_list(reports) != sub.reference:
            problems.append("traced reports differ from the reference")
        m = trace["metrics"]
        if self.cached and (m["demand.dirty_fns"] != 1 or
                            m["cache.misses"] != 1):
            problems.append("traced warm run: dirty-fns=%g misses=%g"
                            % (m["demand.dirty_fns"], m["cache.misses"]))
        return problems, wall, trace


#===--- Metrics -------------------------------------------------------------===


def tail_percentile(values):
    """(p, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (100 - p) / 100.0 >= 10:
            best = (p, statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    return best


def timing_summary(name, values):
    tail = tail_percentile(values)
    return "%s median=%.4f %s n=%d" % (
        name, statistics.median(values),
        "p%g=%.4f" % tail if tail else "tail=n/a", len(values))


def measure(wl, seconds, trace):
    """Runs the closed loop; returns (attempted, failed, samples, traces)."""
    samples, traces, failed = [], [], 0
    start = time.monotonic()
    # Runs cycle through the subjects, every subject at least once. Each
    # traced run follows an untraced one on the same subject, which gives
    # trace.overhead_s its base.
    min_runs = max(MIN_RUNS, len(wl.subjects))
    while True:
        sub = wl.subjects[len(samples) % len(wl.subjects)]
        problems, wall, cpu, rss = wl.cli_run(sub)
        samples.append((wall, cpu, rss))
        if trace:
            tp, twall, t = wl.traced_run(sub)
            problems += tp
            if t:
                traces.append((wall, twall, t))
        log("run %d: wall %.3f s cpu %.3f s rss %.1f MB%s" % (
            len(samples), wall, cpu, rss,
            "; FAILED: " + "; ".join(problems) if problems else ""))
        if problems:
            failed += 1
        if len(samples) >= min_runs and time.monotonic() - start >= seconds:
            return len(samples), failed, samples, traces


def subject_mean(samples, subjects, field):
    """The mean over the subjects of each one's median of `field`; run i
    was on subject i % subjects."""
    return statistics.fmean(
        statistics.median(s[field] for s in samples[i::subjects])
        for i in range(subjects))


def end_to_end(samples, subjects, setups, attempted, failed):
    for name, vals in (("wall_s", [s[0] for s in samples]),
                       ("setup_s", setups)):
        log(timing_summary(name, vals))
    return {
        "wall_s": subject_mean(samples, subjects, 0),
        "cpu_s": subject_mean(samples, subjects, 1),
        "peak_rss_mb": subject_mean(samples, subjects, 2),
        "setup_s": statistics.median(setups),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traces, jobs, cached):
    """Medians of each traced quantity over the traced runs."""
    rows = []
    for untraced_wall, twall, t in traces:
        m = dict(t["metrics"])
        top = {s["name"]: s["end"] - s["start"] for s in t["spans"]
               if s["parent"] == "run"}
        # The probe's intern-table walk is not a cost of a plain CLI run,
        # but on the cached workload the CLI pays the same walk for --stats.
        wall = twall if cached else twall - top.pop("probe")
        m["pipeline.util"] = (m["pipeline.busy_s"] /
                              (m["pipeline.build_s"] * jobs)
                              if m["pipeline.build_s"] > 0 else 0.0)
        lookups = m["cache.hits"] + m["cache.misses"]
        m["cache.hit_ratio"] = m["cache.hits"] / lookups if lookups else 0.0
        m["smt.linear_refute_ratio"] = (m["smt.linear_unsat"] /
                                        m["smt.queries"]
                                        if m["smt.queries"] else 0.0)
        m["trace.unaccounted_s"] = wall - sum(top.values())
        m["trace.overhead_s"] = wall - untraced_wall
        rows.append(m)
    log("spans of the last traced run: %s" % json.dumps(traces[-1][2]["spans"]))
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(correct, attempted, failed, values, wanted):
    """The final JSON line, holding exactly the metrics of `wanted`."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}


def run_workload(name, seed, seconds, trace, runner, work,
                 scale_factor=1.0, setup_reps=SETUP_REPS):
    """Set-up and measurement of one workload; returns the result line."""
    wl = Workload(name, seed, runner, work, scale_factor)
    setups = [wl.setup() for _ in range(1 if trace else setup_reps)]
    attempted, failed, samples, traces = measure(wl, seconds, trace)
    spec = load_spec()
    if trace:
        if not traces:
            raise BenchError("no traced run completed")
        jobs = int(next(f for f in wl.flags
                        if f.startswith("--jobs=")).split("=")[1])
        values, wanted = per_layer(traces, jobs, wl.cached), spec["per_layer"]
    else:
        values = end_to_end(samples, len(wl.subjects), setups, attempted,
                            failed)
        wanted = spec["end_to_end"]
    return result_line(failed == 0, attempted, failed, values, wanted)


#===--- Comparison ----------------------------------------------------------===

STAMP_KEYS = ("smt_backend", "nproc", "build_type")


def compare(paths):
    """Prints per-workload metric medians of result files side by side."""
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append([json.loads(line) for line in f if line.strip()])
    stamps = {tuple(r["stamp"][k] for k in STAMP_KEYS)
              for records in sets for r in records}
    if len(stamps) != 1:
        log("refusing to compare: environment stamps differ: %s"
            % sorted(stamps))
        return 2
    keys = sorted({(r["workload"], r["trace"], m)
                   for records in sets for r in records
                   for m in r["result"]["metrics"]})
    print("workload trace metric " + " ".join(os.path.basename(p)
                                               for p in paths))
    for wl, tr, m in keys:
        cols = []
        for records in sets:
            vals = [r["result"]["metrics"][m]["value"] for r in records
                    if r["workload"] == wl and r["trace"] == tr and
                    m in r["result"]["metrics"]]
            cols.append("%.4f(n=%d)" % (statistics.median(vals), len(vals))
                        if vals else "-")
        print("%s %d %s %s" % (wl, tr, m, " ".join(cols)))
    return 0


#===--- Self-test -----------------------------------------------------------===

SMOKE_SCALE = 0.05
SMOKE_SEED = 1


def self_test(runner, work):
    """Each workload once at a tiny scale in both modes, every metric of
    BENCHMARK.json present, and the oracles reject corrupted references."""
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            r = run_workload(name, SMOKE_SEED, 0, trace, runner, work,
                             SMOKE_SCALE, setup_reps=1)
            if (list(r["metrics"]) != [m["name"] for m in wanted] or
                    not all(isinstance(v["value"], (int, float)) and v["unit"]
                            for v in r["metrics"].values())):
                problems.append("%s trace=%d: metrics differ from "
                                "BENCHMARK.json" % (name, trace))
            if not r["correct"]:
                problems.append("%s trace=%d: incorrect" % (name, trace))
            log("self-test %s trace=%d: %s" % (name, trace, r["metrics"]))

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = Workload("mysql_serial", SMOKE_SEED, runner, work, SMOKE_SCALE)
    wl.setup()
    sub = wl.subjects[-1]  # The last reference run set up is left on disk.
    ref_out = os.path.join(work, "reference.out")
    with open(ref_out) as f:
        lines = f.read().splitlines()
    # Drop every report on one feasible use-after-free plant: the oracle
    # matches a report to a plant by its exact source line.
    with open(sub.bugs) as f:
        feasible = {int(p[2]) for p in map(str.split, f)
                    if p[:2] == ["feasible", "use-after-free"]}

    def uaf_source(line):
        m = re.match(r"use-after-free: source [^:]+:(\d+):", line)
        return int(m.group(1)) if m else None

    dropped = next((uaf_source(l) for l in lines
                    if uaf_source(l) in feasible), None)
    if dropped is None:
        raise BenchError("self-test subject reports no feasible "
                         "use-after-free plant")
    corrupt_out = os.path.join(work, "corrupt.out")
    with open(corrupt_out, "w") as f:
        f.write("\n".join(l for l in lines if uaf_source(l) != dropped)
                + "\n")
    if not check_plants(runner, sub.bugs, corrupt_out, wl.checkers):
        problems.append("plant oracle accepted a dropped feasible report")
    sub.reference = sorted(sub.reference + ["null-deref: source f:1:1 -> "
                                            "sink f:2:1"])
    if not wl.cli_run(sub)[0]:
        problems.append("report oracle accepted a corrupted reference")

    for p in problems:
        log("self-test FAILED: " + p)
    print("self-test %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


#===--- Main ----------------------------------------------------------------===


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="generator seed (default: configFor's own)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run record to this file")
    ap.add_argument("--compare", nargs="+", metavar="FILE")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    try:
        bd = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    limit = 900 if args.self_test else RUN_DEADLINE_S
    runner = Runner(bd, time.monotonic() + limit)
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (
        args.workload or "self-test", os.getpid()))
    try:
        os.makedirs(work)
        env = stamp(bd)
        if args.self_test:
            return self_test(runner, work)
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, runner, work)
        record = {"workload": args.workload, "seed": args.seed,
                  "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
                  "trace": args.trace, "stamp": env}
        print("perfbench-run " + json.dumps(record))
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(dict(record, result=result)) + "\n")
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
