"""The permfunc benchmark: one closed-loop client, one request at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fast_routes --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole passes over the workload's seeded request list
for about ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
runs one traced pass and one untraced pass and prints the per-layer
metrics.  Every answer is checked; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The package is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spans
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# A shared host swings the interpreter's speed by 1.5-2x within a minute,
# far more than any bound.  So a fixed piece of work that uses nothing from
# permfunc is timed before, between and after the requests and around every
# set-up, and each measured time is scaled by its reference time over the
# mean of the two calibrations around it: times are reported at the speed at which the calibration takes
# its reference time.  In-process workloads calibrate with a loop of Python
# arithmetic in the same process; cold_cli with a child interpreter that
# imports a few standard modules and computes, because the parent's loop
# does not track the cost of starting and importing a process.  The facts
# line keeps the raw times.
REFERENCE_LOOP_S = 0.0005
REFERENCE_CHILD_S = 0.07
CHILD_CALIBRATION = (
    "import argparse, dataclasses, fractions, functools, itertools, json, re\n"
    "s = fractions.Fraction(0)\n"
    "for i in range(1, 200): s += fractions.Fraction(i, i + 1) * fractions.Fraction(3, 7)\n"
    "x = sum(v * j for j in range(50) for v in range(300))\n"
)
PROBE_SECONDS = 2.0  # set-up probes continue while their set-up times sum below this
MAX_PROBES = 14
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("cli.import_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("perm.x_set_calls", "count"),
    ("perm.x_set_elements", "count"),
    ("perm.x_set_ms", "ms"),
    ("perm.permutations_built", "count"),
    ("groups.contains_calls", "count"),
    ("groups.contains_ms", "ms"),
    ("groups.enumerate_calls", "count"),
    ("groups.elements_enumerated", "count"),
    ("groups.enumerate_ms", "ms"),
    ("characters.eval_calls", "count"),
    ("characters.eval_ms", "ms"),
    ("characters.mn_value_misses", "count"),
    ("gaussian.mul_calls", "count"),
    ("gaussian.add_calls", "count"),
    ("gaussian.pow_calls", "count"),
    ("matrices.build_ms", "ms"),
    ("matrices.integer_grid_ms", "ms"),
    ("kernels.gmf_sum_calls", "count"),
    ("kernels.gmf_sum_perms", "count"),
    ("kernels.gmf_sum_ms", "ms"),
    ("kernels.det_calls", "count"),
    ("kernels.det_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.terms", "count"),
    ("engine.useful_ratio", "ratio"),
    ("trace.rps_ratio", "ratio"),
)
USEFUL_BASE = (
    "visited terms: 2^r mixtures for closed, formula and block routes, |G| for naive, "
    "sum_k C(n,k)^2 minor pairs for cauchy-binet; dense requests left out"
)


def calibration_s() -> float:
    """Wall time of the fixed calibration loop (Fractions, a dict, int arithmetic).

    The loop runs twice and the faster run counts: the first one after a
    request (or a child process) meets cold caches.
    """
    times = []
    for _ in range(2):
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 60):
            total += Fraction(i, i + 1) * Fraction(3, 7)
            table[i, i % 7] = total
        acc, row = 0, tuple(range(40))
        for j in range(60):
            for v in row:
                acc += v * j
        times.append(time.perf_counter() - start)
    return min(times)


def child_calibration_s() -> float:
    """Wall time of a child interpreter running CHILD_CALIBRATION."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CALIBRATION], check=True, cwd=ROOT)
    return time.perf_counter() - start


def calibrator(workload: str):
    """(calibration function, its reference seconds) for the workload."""
    if workload == "cold_cli":
        return child_calibration_s, REFERENCE_CHILD_S
    return calibration_s, REFERENCE_LOOP_S


def speed_around(fn, workload: str):
    """Run fn between two calibrations; returns (its result, the speed factor).

    The speed factor scales the times fn measured to reference speed.
    """
    calibrate, reference = calibrator(workload)
    before = calibrate()
    result = fn()
    return result, reference * 2 / (before + calibrate())


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source under src/)."""


# -- set-up ------------------------------------------------------------------------


class Workload:
    """The set-up state of one workload: imported package, requests, bindings."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.cold = name == "cold_cli"
        self.out = os.path.join(spans.out_dir(ROOT), f"{name}-{seed}-{os.getpid()}")
        start = time.perf_counter()
        self.pf = import_package()
        self.import_ms = (time.perf_counter() - start) * 1e3
        self.requests = W.GENERATORS[name](seed)
        self.bound = None
        if self.cold:
            os.makedirs(self.out, exist_ok=True)
            W.write_spec_files(self.requests, self.out)
            self.env = dict(os.environ, PYTHONPATH=SRC)
            warm = cli_call(W.argv(W.reference_det("closed")), self.env, self.out)
            if warm[1] != 0:
                raise SetupError("the warm-up CLI call failed")
        else:
            self.bound = [W.bind(req, self.pf) for req in self.requests]
            self._warm_caches()
        self.setup_s = time.perf_counter() - start

    def _warm_caches(self):
        """Fill the group, closure and character-weight caches the timed passes reuse."""
        engine, matrices, pf = self.pf.engine, self.pf.matrices, self.pf
        seen = set()
        for req, bound in zip(self.requests, self.bound):
            naive = req.route.endswith(":naive")
            key = (W.group_text(req.group, req.n), req.character, naive)
            if key in seen:
                continue
            seen.add(key)
            if naive:
                engine.gmf_naive(matrices.Matrix.identity(req.n), bound.group, bound.character)
            elif req.group[0] in ("gens", "cyclic"):
                bound.group.contains(pf.Permutation.identity(req.n))

    def bindings(self) -> list:
        """Library bindings of the requests; cold_cli binds them only for its checks."""
        if self.bound is None:
            self.bound = [W.bind(req, self.pf) for req in self.requests]
        return self.bound

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pf = importlib.import_module("permfunc")
    importlib.import_module("permfunc.cli")
    if not os.path.abspath(pf.__file__).startswith(SRC + os.sep):
        raise SetupError(f"permfunc was imported from {pf.__file__}, not from {SRC}")
    return pf


def probe_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, speed factor) of the workload, each in a fresh interpreter.

    At least two; more while they add up to under PROBE_SECONDS, so a
    cheap set-up gets enough samples for a steady median.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    samples: list[tuple[float, float]] = []
    while len(samples) < 2 or (
        sum(s for s, _ in samples) < PROBE_SECONDS and len(samples) < MAX_PROBES
    ):
        done, speed = speed_around(
            lambda: subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120),
            workload,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append((json.loads(done.stdout.strip().splitlines()[-1])["setup_s"], speed))
    return samples


# -- running requests -----------------------------------------------------------------


def cli_call(args, env, out_dir, launcher=None):
    """Run one CLI process; returns (stdout, exit code, wall s, cpu s, peak RSS MB)."""
    cmd = [sys.executable] + (launcher or ["-m", "permfunc.cli"]) + args
    with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Pass:
    """One pass over the request list: outcomes, and times at reference speed."""

    def __init__(self):
        self.outcomes, self.latencies, self.speeds = [], [], []
        self.cpu = self.raw_wall = self.raw_cpu = self.peak_rss_mb = 0.0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def add(self, outcome, wall: float, cpu: float, speed: float) -> None:
        self.outcomes.append(outcome)
        self.latencies.append(wall * speed)
        self.cpu += cpu * speed
        self.speeds.append(speed)
        self.raw_wall += wall
        self.raw_cpu += cpu


def call_in_process(w: Workload, k: int, tracer):
    """One library call; returns (outcome, wall s, cpu s, 0)."""
    call = w.bound[k].call
    cpu, start = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            result = call()
        else:
            tracer.request = k
            result = tracer.request_span(call)
        outcome = (result.value.re, result.value.im)
    except Exception as exc:  # a failed request is counted, and the run goes on
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start, time.process_time() - cpu, 0.0


def call_cli(w: Workload, k: int, tracer):
    """One CLI process; returns (outcome, wall s, cpu s, peak RSS MB)."""
    launcher = None
    if tracer is not None:
        span_file = os.path.join(w.out, f"spans-{k}.bin")
        launcher = [os.path.join(HERE, "traced_cli.py"), span_file]
    out, code, wall, cpu, rss = cli_call(W.argv(w.requests[k]), w.env, w.out, launcher)
    if tracer is not None and os.path.exists(span_file):
        tracer.merge_file(span_file, k)
        os.remove(span_file)
    return parse_cli_output(out, code), wall, cpu, rss


def run_pass(w: Workload, tracer=None) -> Pass:
    """One pass; a calibration between each two requests serves both."""
    p = Pass()
    call = call_cli if w.cold else call_in_process
    calibrate, reference = calibrator(w.name)
    before = calibrate()
    for k in range(len(w.requests)):
        outcome, wall, cpu, rss = call(w, k, tracer)
        after = calibrate()
        p.add(outcome, wall, cpu, reference * 2 / (before + after))
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        before = after
    if not w.cold:
        p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return p


def parse_cli_output(out: bytes, code: int):
    if code != 0:
        return f"exit code {code}"
    try:
        value = json.loads(out)["value"]
        return (Fraction(value["re"]), Fraction(value["im"]))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output {out[:200]!r}: {exc}"


def expected_values(w: Workload) -> list:
    """Independent values, or a second route's value where no oracle applies (untimed)."""
    values = []
    for req, bound in zip(w.requests, w.bindings()):
        value = W.oracle_value(req)
        if value is None:
            result = bound.cross().value
            value = (result.re, result.im)
        values.append(value)
    return values


def count_failures(w: Workload, passes: list[Pass]) -> tuple[int, int]:
    expected = expected_values(w)
    attempted = failed = 0
    for p in passes:
        for req, outcome, want in zip(w.requests, p.outcomes, expected):
            attempted += 1
            if outcome != tuple(Fraction(x) for x in want):
                failed += 1
                if failed <= 10:
                    print(f"mismatch: {req.label}: got {outcome}, expected {want}", file=sys.stderr)
    return attempted, failed


# -- metrics ---------------------------------------------------------------------------


def tail_rank(n: int) -> float:
    """The highest percentile of a pass of n requests with ten samples beyond it."""
    return (n - TAIL_BEYOND) / n


def end_to_end(passes: list[Pass], setup_samples: list[tuple[float, float]]) -> dict:
    """Metrics over all the run's requests, pooled across its whole passes.

    Pooling (rather than a median over passes) keeps the tail at one fixed
    percentile whatever the number of passes, and follows a slow drift in
    machine speed more smoothly.
    """
    latencies = sorted(x for p in passes for x in p.latencies)
    count = len(latencies)
    tail = round(tail_rank(len(passes[0].latencies)) * (count - 1))
    return {
        "requests_per_s": count / sum(p.wall for p in passes),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail] * 1e3,
        "cpu_ms_per_request": sum(p.cpu for p in passes) / count * 1e3,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(s * speed for s, speed in setup_samples),
    }


def per_layer(w: Workload, tracer, untraced: Pass, traced: Pass, misses: int) -> dict:
    calls, inclusive, self_ms = spans.layer_totals(tracer)
    counts = tracer.counts
    useful = visited = 0
    for req, bound in zip(w.requests, w.bindings()):
        base = W.trace_base(req, bound, w.pf)
        if base:
            useful += base[0]
            visited += base[1]
    import_ms = child_import_ms(tracer) or [w.import_ms]
    return {
        "cli.import_ms": statistics.median(import_ms),
        "cli.parse_ms": inclusive["cli.parse"],
        "cli.main_ms": inclusive["cli.main"],
        "perm.x_set_calls": calls["perm.x_set"],
        "perm.x_set_elements": counts["perm.x_set_elements"],
        "perm.x_set_ms": inclusive["perm.x_set"],
        "perm.permutations_built": counts["perm.permutations_built"],
        "groups.contains_calls": calls["groups.contains"],
        "groups.contains_ms": inclusive["groups.contains"],
        "groups.enumerate_calls": calls["groups.enumerate"],
        "groups.elements_enumerated": counts["groups.elements_enumerated"],
        "groups.enumerate_ms": inclusive["groups.enumerate"],
        "characters.eval_calls": calls["characters.eval"],
        "characters.eval_ms": inclusive["characters.eval"],
        "characters.mn_value_misses": misses + counts["characters.mn_value_misses"],
        "gaussian.mul_calls": counts["gaussian.mul_calls"],
        "gaussian.add_calls": counts["gaussian.add_calls"],
        "gaussian.pow_calls": counts["gaussian.pow_calls"],
        "matrices.build_ms": inclusive["matrices.build"],
        "matrices.integer_grid_ms": inclusive["matrices.integer_grid"],
        "kernels.gmf_sum_calls": calls["kernels.gmf_sum"],
        "kernels.gmf_sum_perms": counts["kernels.gmf_sum_perms"],
        "kernels.gmf_sum_ms": inclusive["kernels.gmf_sum"],
        "kernels.det_calls": calls["kernels.det"],
        "kernels.det_ms": inclusive["kernels.det"],
        "engine.self_ms": self_ms["engine"],
        "engine.terms": counts["engine.terms"],
        "engine.useful_ratio": useful / visited if visited else 0.0,
        "trace.rps_ratio": untraced.wall / traced.wall,
    }


def child_import_ms(tracer) -> list[float]:
    """The import span of each traced CLI process."""
    gid = tracer.group_id("cli.import")
    cols = tracer.cols
    return [
        (cols["end"][i] - cols["start"][i]) * 1e3
        for i, g in enumerate(cols["group"])
        if g == gid
    ]


def layer_split(tracer, rid: int) -> dict:
    """Inclusive ms per layer for one request (cold_cli: one CLI process)."""
    _, inclusive, self_ms = spans.layer_totals(tracer, rid)
    return {
        "cli.import": inclusive["cli.import"],
        "cli.parse": inclusive["cli.parse"],
        "cli.main": inclusive["cli.main"],
        "groups": inclusive["groups.enumerate"] + inclusive["groups.contains"],
        "characters": inclusive["characters.eval"],
        "kernels": inclusive["kernels.gmf_sum"] + inclusive["kernels.det"],
        "matrices": inclusive["matrices.build"] + inclusive["matrices.integer_grid"],
        "perm.x_set": inclusive["perm.x_set"],
        "engine.self": self_ms["engine"],
    }


def mn_value_misses(pf) -> int:
    info = getattr(getattr(pf.characters, "mn_value", None), "cache_info", None)
    return info().misses if info else 0


# -- main ------------------------------------------------------------------------------


def machine(pf) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": getattr(pf, "BACKEND", "python"),
    }


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so the calibration
    loop always meets the same CPU as the work it calibrates."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(args) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (run facts, result line)."""
    cpu = pin_to_one_cpu()
    setup_samples = probe_setups(args.workload, args.seed)
    w, speed = speed_around(lambda: Workload(args.workload, args.seed), args.workload)
    setup_samples.append((w.setup_s, speed))
    try:
        info = {"workload": w.name, "seed": w.seed, "trace": args.trace, **machine(w.pf),
                "cpu": cpu, "reference_calibration_s": calibrator(args.workload)[1],
                "raw_setup_samples_s": [s for s, _ in setup_samples],
                "requests_per_pass": len(w.requests)}
        if args.trace:
            # The traced pass goes first, so it meets the caches a first
            # timed pass meets (mn_value misses included).
            tracer = spans.Tracer()
            if not w.cold:
                tracer.install()
            misses_before = mn_value_misses(w.pf)
            try:
                traced = run_pass(w, tracer)
            finally:
                tracer.uninstall()
            misses = 0 if w.cold else mn_value_misses(w.pf) - misses_before
            untraced = run_pass(w)
            passes = [traced, untraced]
            metrics = per_layer(w, tracer, untraced, traced, misses)
            units = dict(PER_LAYER)
            info["useful_ratio_base"] = USEFUL_BASE
            s9 = [k for k, req in enumerate(w.requests) if req.label == "bench9 det naive"]
            if s9:
                info["split_ms"] = {"request": "bench9 det naive", **layer_split(tracer, s9[0])}
            trace_file = os.path.join(spans.out_dir(ROOT), f"trace-{w.name}-{w.seed}.bin")
            tracer.dump(trace_file)
            info["trace_file"] = os.path.relpath(trace_file, ROOT)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                passes.append(run_pass(w))
                now = time.perf_counter()
                if now - start + (now - pass_start) > args.seconds:
                    break
            metrics = end_to_end(passes, setup_samples)
            units = dict(END_TO_END)
            info["tail_percentile"] = round(100 * tail_rank(len(w.requests)), 2)
            info["latency_samples"] = len(passes) * len(w.requests)
            info["passes"] = len(passes)
            info["raw_pass_wall_s"] = [round(p.raw_wall, 3) for p in passes]
            count = sum(len(p.latencies) for p in passes)
            info["raw_requests_per_s"] = count / sum(p.raw_wall for p in passes)
            info["raw_cpu_ms_per_request"] = sum(p.raw_cpu for p in passes) / count * 1e3
            info["speed_factor_median"] = statistics.median(s for p in passes for s in p.speeds)
        attempted, failed = count_failures(w, passes)
        info["failed_ratio"] = failed / attempted
        return info, {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        w.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "permfunc", "__init__.py")):
            raise SetupError(f"no permfunc package under {SRC}")
        if args.setup_probe:
            w = Workload(args.workload, args.seed)
            w.close()
            print(json.dumps({"setup_s": w.setup_s}))
            return 0
        info, result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
