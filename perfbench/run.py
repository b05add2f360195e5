"""Benchmark of opineq's verdict sweep.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; opineq is imported from ``src/``.
Each pass drives the CLI entry point ``opineq.cli.main`` in this process
with the workload's arguments and the given seed, and is timed from the call
until the report is written.  Passes repeat until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced passes with passes that record spans
around every call into opineq's layers (see tracer.py), and reports the
per-layer metrics.  Both check every verdict (see README.md)
and print, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record of the
run (environment, pass times, the per-function trace table) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported, so that
# the --workers 2 check pass uses exactly two threads on two CPUs and every
# report comes from one BLAS configuration.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SWEEP_DIMS = (2, 3, 5)
SWEEP_TRIALS = 6          # keeps thm3.4's chance of showing no violation below 1e-3
N16_TRIALS = 1
SEARCH_BUDGET = 120
SEARCH_N = 2
MUST_VIOLATE = ("thm3.4", "lee-printed", "thm3.3")   # known to be violated
REFUTED = "thm3.4"        # asserted, refuted by sampling by design
SETUP_PROBES = 7

WORKLOADS = {
    "sweep": "selftest configuration, serial, 6 trials per (id, n)",
    "search": f"search --n {SEARCH_N} --budget {SEARCH_BUDGET} over every registry id",
    "sweep-n16": f"all ids at n = 16, {N16_TRIALS} trial",
}

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import opineq.cli
opineq.cli.build_parser()
t1 = time.perf_counter()
print(repr(t1 - t0), opineq.__file__)
"""


def fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_opineq():
    """Import opineq from this checkout's src/, never from elsewhere."""
    if not (SRC / "opineq" / "__init__.py").is_file():
        fail_setup(f"no opineq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import opineq
        import opineq.cli
        import opineq.io
    except ImportError as exc:
        fail_setup(f"cannot import opineq from {SRC}: {exc}")
    if Path(opineq.__file__).resolve().parent != (SRC / "opineq").resolve():
        fail_setup(f"imported opineq from {opineq.__file__}, not from {SRC}")
    return opineq


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "opineq").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def os_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except TypeError:  # numpy < 1.26 prints only
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "os_threads": os_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Workload passes
# ---------------------------------------------------------------------------

class Workload:
    """The CLI commands of one pass, and the checks on what they wrote."""

    def __init__(self, name: str, seed: int, workdir: Path, opineq):
        self.name = name
        self.opineq = opineq
        self.ids = opineq.registry_ids()
        seed_arg = ["--seed", str(seed)]
        if name == "search":
            self.outputs = [workdir / f"search-{i}.json" for i in self.ids]
            self.argvs = [
                ["search", "--ineq", i, "--n", str(SEARCH_N), "--budget", str(SEARCH_BUDGET),
                 *seed_arg, "--out", str(out)]
                for i, out in zip(self.ids, self.outputs)
            ]
            self.ops = len(self.ids) * SEARCH_BUDGET
            return
        dims, trials = (16,), N16_TRIALS
        if name == "sweep":
            dims, trials = SWEEP_DIMS, SWEEP_TRIALS
        self.outputs = [workdir / f"{name}.json"]
        self.argvs = [[
            "selftest", *seed_arg, "--trials", str(trials),
            "--n", ",".join(map(str, dims)), "--out", str(self.outputs[0]),
        ]]
        self.ops = len(self.ids) * len(dims) * trials

    def run_pass(self):
        """Time one pass; return (wall seconds, exit codes, output bytes)."""
        main = sys.modules["opineq.cli"].main   # looked up per pass so spans see it
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            codes = [main(argv) for argv in self.argvs]
            wall = time.perf_counter() - start
        return wall, codes, [p.read_bytes() for p in self.outputs]

    def check(self, codes, blobs, problems: list) -> tuple[int, list]:
        """Check one pass's verdicts; return (attempted, failed verdicts).

        Problems that make the whole pass unusable (bad exit codes, a wrong
        op count) are appended to ``problems``.
        """
        if self.name == "search":
            return self._check_search(codes, blobs, problems)
        return self._check_sweep(codes, blobs[0], problems)

    def _asserted(self, ineq_id: str) -> bool:
        return self.opineq.get_entry(ineq_id).asserted

    def _check_search(self, codes, blobs, problems):
        failed = []
        evaluations = 0
        for ineq_id, code, blob in zip(self.ids, codes, blobs):
            rec = json.loads(blob)
            evaluations += rec["evaluations"]
            if code != (0 if rec["holds"] or not self._asserted(ineq_id) else 1):
                problems.append(f"search {ineq_id}: exit code {code} disagrees with holds={rec['holds']}")
            if ineq_id in MUST_VIOLATE:
                if rec["holds"]:
                    failed.append(f"{ineq_id}: search found no violation")
            elif self._asserted(ineq_id) and not rec["holds"]:
                failed.append(
                    f"{ineq_id}: asserted entry violated, relative gap "
                    f"{rec['best_relative_gap']:.3g}, confirmed={rec['confirmed']}"
                )
        if evaluations != self.ops:
            problems.append(f"search made {evaluations} evaluations, expected {self.ops}")
        return len(self.ids), failed

    def _check_sweep(self, codes, blob, problems):
        report = json.loads(blob)
        cases = report["cases"]
        if len(cases) != self.ops:
            problems.append(f"report has {len(cases)} cases, expected {self.ops}")
        asserted_failures = sum(1 for c in cases if not c["holds"] and self._asserted(c["id"]))
        if codes != [1 if asserted_failures else 0]:
            problems.append(f"selftest exit code {codes} with {asserted_failures} asserted failures")
        failed = {}
        for i, c in enumerate(cases):
            if not c["holds"] and c["id"] != REFUTED and self._asserted(c["id"]):
                failed[i] = f"{c['id']} n={c['n']} seed={c['seed']}: asserted entry violated"
            if not c["holds"]:
                why = self._replay_mismatch(c)
                if why:
                    failed.setdefault(i, f"{c['id']} n={c['n']} seed={c['seed']}: {why}")
        out = list(failed.values())
        if self.name != "sweep-n16":
            shown = {c["id"] for c in cases if not c["holds"]}
            out += [f"{i}: no violation in the sweep" for i in MUST_VIOLATE if i not in shown]
        return len(cases), out

    def _replay_mismatch(self, case: dict):
        """Re-check a failing row from its replay payload; None if the gap matches bit for bit."""
        op = self.opineq
        try:
            replay = case["replay"]
            inst = op.io.obj_to_instance(replay["instance"])
            phi = None if replay["map"] is None else op.io.obj_to_map(replay["map"])
            prm = case["params"]
            params = op.CaseParams(nu=prm["nu"], p=prm["p"], alpha=prm["alpha"])
            verdict = op.check_case(op.InequalityCase(case["id"], inst, phi, params))
        except (KeyError, TypeError, op.OpineqError) as exc:
            return f"replay failed: {type(exc).__name__}: {exc}"
        if float(verdict.gap).hex() != float(case["gap"]).hex():
            return f"replay gap {verdict.gap!r} != reported {case['gap']!r}"
        return None

    def parallel_report(self) -> bytes:
        """The report of the same selftest run with --workers 2 (untimed)."""
        main = sys.modules["opineq.cli"].main
        with contextlib.redirect_stdout(io.StringIO()):
            main(self.argvs[0] + ["--workers", "2"])
        return self.outputs[0].read_bytes()


def differing_rows(a: bytes, b: bytes) -> int:
    ca, cb = json.loads(a)["cases"], json.loads(b)["cases"]
    if len(ca) != len(cb):
        return max(len(ca), len(cb))
    return sum(1 for x, y in zip(ca, cb) if x != y)


def run_passes(work: Workload, seconds: float, problems: list, tracer=None):
    """Run passes until `seconds` is spent; never start one expected to overrun,
    but always run at least one.

    With a tracer, passes alternate untraced and traced, so that drift in the
    machine's speed hits both alike, and at least one of each runs.  Returns
    (untraced walls, traced walls, exit codes, outputs, trace tables).
    """
    walls = {False: [], True: []}
    tables = []
    first = None
    traced = False
    start = time.perf_counter()
    while True:
        if traced:
            tracer.spans.clear()
            with tracer:
                wall, codes, blobs = work.run_pass()
            tables.append(tracer.table())
        else:
            wall, codes, blobs = work.run_pass()
        walls[traced].append(wall)
        if first is None:
            first = (codes, blobs)
        elif (codes, blobs) != first:
            kind = "a traced" if traced else "an untraced"
            problems.append(f"{kind} pass wrote other reports than the first pass with the same seed")
        if tracer is not None:
            traced = not traced
        longest = max(walls[False] + walls[True])
        done = tracer is None or walls[True]
        if done and time.perf_counter() - start + longest > seconds:
            return walls[False], walls[True], first[0], first[1], tables


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_times(n: int) -> list[float]:
    """Import opineq and build the registry and CLI parser in fresh processes."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=probe_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        value, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != (SRC / "opineq").resolve():
            fail_setup(f"setup probe imported opineq from {path.strip()}")
        times.append(float(value))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def layer_metrics(table: dict, ops: int) -> dict:
    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "errors": {}})

    def layer_self(layer):
        return sum(r["self_s"] for name, r in table.items() if name.startswith(layer + "."))

    m = {}
    for name in ("linalg.eigh", "linalg.require_hermitian", "means.geometric_mean",
                 "maps.apply_map", "sampler.haar_unitary", "sampler.verify_instance",
                 "constants.bound_constant"):
        m[f"{name}.calls_per_op"] = (row(name)["calls"] / ops, "calls/op")
    for name in ("linalg.eigh", "linalg.require_hermitian", "linalg.matrix_power",
                 "maps.apply_map", "maps.random_map", "sampler.haar_unitary",
                 "verifier.check_case", "io.dumps_canonical"):
        m[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for layer in ("linalg", "means", "sampler", "constants", "suite", "cli"):
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    check = row("verifier.check_case")
    raised = sum(check["errors"].values())
    m["verifier.check_case.rejected"] = (check["errors"].get("HypothesisNotMet", 0), "count")
    m["verifier.accept_ratio"] = ((check["calls"] - raised) / check["calls"], "ratio")
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: (statistics.median(p[k][0] for p in per_pass), unit) for k, (_, unit) in per_pass[0].items()}


def write_spans(path: Path, spans: list) -> None:
    """One CSV row per span; times in ns from the first span's start."""
    t0 = spans[0][1] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index,parent,name,start_ns,end_ns,error\n")
        for i, (name, start, end, parent, error) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start - t0},{end - t0},{error or ''}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    opineq = import_opineq()
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    problems: list[str] = []
    record = {"workload": args.workload, "about": WORKLOADS[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env}
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Workload(args.workload, args.seed, Path(tmp), opineq)
        tracer = Tracer() if args.trace else None
        walls, traced_walls, codes, blobs, tables = run_passes(work, args.seconds, problems, tracer)
        rss = peak_rss_mb()
        attempted, failed = work.check(codes, blobs, problems)
        if args.workload == "sweep":
            diff = differing_rows(blobs[0], work.parallel_report())
            if diff:
                failed.append(f"{diff} rows of the --workers 2 report differ from the serial one")
        record.update(ops_per_pass=work.ops, walls_s=walls, failed_verdicts=failed)

        if tracer is None:
            setup = setup_times(SETUP_PROBES)
            record["setup_s"] = setup
            wall = statistics.median(walls)
            metrics = {
                "wall_s": (wall, "s"),
                "ops_per_s": (work.ops / wall, "ops/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            record.update(traced_walls_s=traced_walls, bindings=tracer.bindings,
                          trace_table=tables[-1])
            write_spans(OUT / f"{args.workload}.spans.csv.gz", tracer.spans)
            metrics = median_metrics([layer_metrics(t, work.ops) for t in tables])
            replay_rows = 0 if args.workload == "search" else sum(
                1 for c in json.loads(blobs[0])["cases"] if "replay" in c)
            metrics.update({
                "io.report_bytes": (sum(len(b) for b in blobs), "bytes"),
                "io.replay_rows": (replay_rows, "count"),
                "failed_frac": (len(failed) / attempted, "ratio"),
                "trace.overhead_frac": (statistics.median(traced_walls) / statistics.median(walls) - 1, "ratio"),
            })

    record.update(problems=problems, metrics={k: v for k, (v, _) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in failed:
        print(f"failed verdict: {line}")
    for line in problems:
        print(f"problem: {line}")
    print(f"ops per pass: {work.ops}; passes: {len(walls)}; record: {OUT / (stem + '.json')}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
