"""bircharts benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: the workload runs whole
rounds (see workloads.py) until about S seconds have passed, one op at a
time from one closed-loop client, and ``setup_s`` is the median of fresh
interpreters importing the package and building the CLI parser, probed
between the ops of the first round.  Times are scaled to a reference
machine speed (speed.py); the unscaled figures are printed too.
``--trace 1`` runs the first round twice, untraced and then
with a span around every public function of every module (spans.py), and
prints the per-layer metrics, each module's share of op time and the
tracing overhead.  Every output is checked after the timed region
against the outcome known by construction; a wrong output makes the run
exit 1 with ``"correct": false``.  An op that returns no answer (an
error) counts as failed and stays in the latency samples.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Traces and a run record go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import spans  # noqa: E402
from speed import REFERENCE_S, calibrate, scale  # noqa: E402
from workloads import PLANS, WHY, check_cli, generate_round  # noqa: E402

SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 60
SETUP_CODE = ("import time; t = time.perf_counter(); import bircharts.cli as c; "
              "c.build_parser(); t = time.perf_counter() - t; "
              "import speed; print(t, speed.calibrate())")
MEMBERSHIP = {"u": "decide_O_U", "dense": "decide_O_U",
              "g-mod-u": "decide_O_GmodU", "g": "decide_O_G"}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_library() -> SimpleNamespace:
    """Import bircharts from this checkout's src/ and nowhere else."""
    if not (SRC / "bircharts" / "__init__.py").is_file():
        raise SetupError(f"no bircharts package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bircharts")
    if Path(pkg.__file__).resolve().parent != (SRC / "bircharts").resolve():
        raise SetupError(f"bircharts imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"bircharts.{m}")
                                       for m in spans.MODULES})


def child_env(*extra) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (SRC, *extra))))


def run_record(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bircharts").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": WHY[args.workload],
            "plan": PLANS[args.workload], "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def setup_probe() -> tuple:
    """Import-and-parser time of one fresh interpreter: (wall s, scaled s)."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, env=child_env(HERE), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SetupError(f"import failed: {done.stderr.strip()}")
    wall, calibration = (float(x) for x in done.stdout.split())
    return wall, wall * REFERENCE_S / calibration


class Runner:
    """Runs one op of a workload; library functions are looked up at call
    time, so installed trace wrappers are the ones called."""

    def __init__(self, lib, workload: str):
        self.lib = lib
        self.workload = workload
        self.tracer = None
        self.universes = {}
        self.numeric = {}
        for kind, n, _ in PLANS[workload]:
            if kind in ("u", "dense"):
                self.universes[(kind, n)] = lib.membership.u_variables(n)
            elif kind in ("g-mod-u", "g"):
                self.universes[(kind, n)] = lib.membership.g_variables(n)
            elif kind == "numeric":
                datum = lib.root_data.cartan("A", n - 1)
                for eps in (0, 1):
                    interior = lib.root_data.weight_sets(datum, eps)[2]
                    specs = [lib.sl_realization.minor_spec(w, datum)
                             for w in sorted(interior, key=str)]
                    self.numeric[(n, eps)] = (
                        lib.root_data.distinguished_word(datum, eps), specs)

    def run(self, op):
        if self.workload == "cli-oneshot":
            return self._run_cli(op)
        if op.kind == "numeric":
            sl = self.lib.sl_realization
            eps, params = op.payload
            word, specs = self.numeric[(op.n, eps)]
            u = sl.chart_U(word, params, op.n)
            au = sl.twist(u)
            return u, au, [sl.gen_minor(s, au) for s in specs]
        phi = self.lib.exprparse.parse_expression(op.payload, self.universes[(op.kind, op.n)])
        decide = getattr(self.lib.membership, MEMBERSHIP[op.kind])
        return decide(phi, op.n).member

    def _run_cli(self, op):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bircharts.cli"]
        else:
            trace_file = OUT / f"child-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file)]
        done = subprocess.run([*cmd, *op.payload], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if self.tracer is not None:
            with open(trace_file) as fh:
                self.tracer.merge(json.load(fh), self.tracer.op_id)
            trace_file.unlink()
        return done.returncode, done.stdout, done.stderr

    def check(self, op, result) -> tuple:
        """(status, message) with status 'ok', 'failed' or 'wrong'."""
        if self.workload == "cli-oneshot":
            return check_cli(op, result)
        if op.kind == "numeric":
            return self._check_numeric(op, *result)
        if result != op.expect:
            return "wrong", f"verdict member={result}, expected {op.expect}"
        return "ok", ""


    def _check_numeric(self, op, u, au, minors) -> tuple:
        eps, params = op.payload
        u, au = ([[e.const_value for e in row] for row in m.entries] for m in (u, au))
        if u != oracle.upper_chart(self.numeric[(op.n, eps)][0], params, op.n):
            return "wrong", "chart_U differs from the product of the generators"
        try:
            if au != oracle.twist(u):
                return "wrong", "twist differs from the independent computation"
            if oracle.twist(au) != u:
                return "wrong", "twist is not an involution here"
        except ValueError as exc:
            return "wrong", f"positive parameters left the big cell: {exc}"
        if any(m.is_zero for m in minors):
            return "wrong", "an interior minor vanished at positive parameters"
        return "ok", ""


def run_ops(runner, ops, tracer=None, between=None) -> list:
    """Time each op on its own, between two calibrations; returns
    (op, wall_s, scaled_s, result, error).  ``between(k)`` runs untimed
    before the k-th op."""
    samples = []
    for k, op in enumerate(ops):
        if between is not None:
            between(k)
        if tracer is not None:
            tracer.op_id = k
        before = calibrate()
        t0 = perf_counter()
        try:
            result, error = runner.run(op), None
        except Exception as exc:  # an op that errors is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        samples.append((op, wall, scale(wall, before, calibrate()), result, error))
    return samples


def timed_pass(runner, workload: str, seed: int, seconds: float):
    """Whole rounds until about ``seconds`` have passed (at least one round).

    Set-up probes run between the ops of the first round, outside the op
    timings, so that set-up is sampled over the same stretch of time as
    the ops.  Returns (samples, rounds, set-up probes).
    """
    setup_probe()  # warms the bytecode cache
    setup, probe_s = [], [0.0]
    samples, rounds, target = [], 0, 1

    def probe(k):
        if rounds == 0 and k % step == 0:
            t = perf_counter()
            setup.append(setup_probe())
            probe_s[0] += perf_counter() - t

    while rounds < target:
        ops = generate_round(workload, seed, rounds)
        step = max(1, len(ops) // SETUP_SAMPLES)
        t0 = perf_counter()
        samples += run_ops(runner, ops, between=probe)
        rounds += 1
        if rounds == 1:
            target = max(1, round(seconds / (perf_counter() - t0 - probe_s[0])))
    return samples, rounds, setup


def grade(runner, samples) -> dict:
    """Check every output; summarise counts, latencies and failures."""
    statuses, messages, by_kind = [], {}, {}
    for op, _, scaled, result, error in samples:
        status, msg = ("failed", error) if error else runner.check(op, result)
        statuses.append(status)
        if status != "ok":
            key = f"{status}: {op.kind} {op.n} {op.label}: {msg}"
            messages[key] = messages.get(key, 0) + 1
        by_kind.setdefault(f"{op.kind} {op.n}", []).append(scaled)
    return {
        "attempted": len(samples),
        "ok": statuses.count("ok"),
        "failed": statuses.count("failed"),
        "wrong": statuses.count("wrong"),
        "messages": messages,
        "by_kind": by_kind,
        "wall_s": [s[1] for s in samples],
        "scaled_s": [s[2] for s in samples],
    }


def end_to_end(g: dict, latencies: list) -> dict:
    """Throughput over op time and latency percentiles, failures included."""
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "ops_per_s": g["ok"] / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ok_ratio": g["ok"] / g["attempted"],
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "ok_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def report_grade(g: dict) -> None:
    bad = g["failed"] + g["wrong"]
    print(f"ops: attempted={g['attempted']} ok={g['ok']} failed={g['failed']} "
          f"wrong={g['wrong']}")
    print(f"error_ratio = {bad / g['attempted']:.6f} ratio "
          f"({bad} failed or wrong of {g['attempted']} attempted)")
    for msg, count in sorted(g["messages"].items()):
        print(f"  {msg} (x{count})")
    print("scaled latency by op kind: count, median ms, max ms")
    for kind, lat in g["by_kind"].items():
        print(f"  {kind:<16}{len(lat):>5}{statistics.median(lat) * 1e3:>10.1f}"
              f"{max(lat) * 1e3:>10.1f}")


def untraced_run(lib, args) -> tuple:
    runner = Runner(lib, args.workload)
    samples, rounds, setup = timed_pass(runner, args.workload, args.seed, args.seconds)
    g = grade(runner, samples)
    e2e = end_to_end(g, g["scaled_s"])
    wall = end_to_end(g, g["wall_s"])
    print(f"rounds={rounds} samples_beyond_p90={e2e.pop('beyond_p90')}")
    print("unscaled wall-clock figures: " + ", ".join(
        f"{k}={wall[k]:.6g}" for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"))
        + f", setup_s={statistics.median(w for w, _ in setup):.6g}")
    report_grade(g)
    e2e["peak_rss_mb"] = peak_rss_mb(args.workload)
    e2e["setup_s"] = statistics.median(s for _, s in setup)
    return g, e2e


def traced_run(lib, args) -> tuple:
    runner = Runner(lib, args.workload)
    ops = generate_round(args.workload, args.seed, 0)
    plain = grade(runner, run_ops(runner, ops))
    plain_e2e = end_to_end(plain, plain["scaled_s"])

    tracer = spans.Tracer()
    tracer.install(lib.pkg)
    runner.tracer = tracer
    try:
        samples = run_ops(runner, ops, tracer)
    finally:
        tracer.uninstall()
        runner.tracer = None
    traced = grade(runner, samples)
    traced_e2e = end_to_end(traced, traced["scaled_s"])

    overhead = sum(traced["scaled_s"]) / sum(plain["scaled_s"])
    print(f"tracing overhead: traced op time / untraced op time = {overhead:.3f}")
    print(f"{'metric':<16}{'untraced':>14}{'traced':>14}")
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "ok_ratio"):
        print(f"{name:<16}{plain_e2e[name]:>14.4f}{traced_e2e[name]:>14.4f}")
    report_grade(traced)

    tracer.write(OUT / f"trace-{args.workload}.json")
    op_time = sum(traced["wall_s"])
    layer = spans.per_layer_metrics(tracer, op_time, overhead)
    print_shares(tracer, op_time)
    merged = {k: plain[k] + traced[k] for k in ("attempted", "ok", "failed", "wrong")}
    merged["by_kind"] = traced["by_kind"]
    return merged, layer


def print_shares(tracer, op_time: float) -> None:
    """Module self-time shares and the functions with the most inclusive time."""
    selfs = spans.self_by_name(tracer)
    shares = spans.module_shares(selfs, op_time)
    print(f"module share of op time ({op_time:.3f} s of traced ops):")
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<16}{share:>8.1%}")
    if tracer.import_s:
        print(f"  {'(cli import)':<16}{spans.ratio(sum(tracer.import_s), op_time):>8.1%}")
    print(f"  {'(outside spans)':<16}{1 - sum(shares.values()):>8.1%}")
    print("inclusive share of op time, top functions:")
    incl = spans.inclusive_by_name(tracer)
    for name, total in sorted(incl.items(), key=lambda kv: -kv[1])[:14]:
        print(f"  {name:<40}{spans.ratio(total, op_time):>8.1%}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_library()
        record = run_record(args)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"bircharts benchmark: {json.dumps(record)}")
    OUT.mkdir(exist_ok=True)
    try:
        counts, metrics = (traced_run if args.trace else untraced_run)(lib, args)
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        names = spans.per_layer_metric_names()
    else:
        names = [(k, UNITS[k]) for k in UNITS]
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    correct = counts["wrong"] == 0
    result = {"correct": correct, "attempted": counts["attempted"],
              "failed": counts["failed"] + counts["wrong"], "metrics": out}
    record["by_kind_median_ms"] = {k: statistics.median(v) * 1e3
                                   for k, v in counts["by_kind"].items()}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    if not correct:
        print("error: wrong outputs, see above", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
