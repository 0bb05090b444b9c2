"""Benchmark of knotalex: four closed-loop workloads, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload one-relator --seed 1 --seconds 30 --trace 0

Workloads: one-relator, wirtinger, certify, cli (see bench/README.md for
what each one stresses and why).  One client runs the workload's pass of
seeded operations in a closed loop, one operation at a time, until the next
pass would end after ``--seconds``.  Every operation is checked against a
reference that does not come from the code path under test.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
loop with spans around the calls into each module, replays the reference
Fox-calculus path, and reports per-module metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details (input summary, tail percentile, failures by type).

The package is imported from the checkout's ``src/``; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NULL, Tracer, span_cost

#: numpy's OpenBLAS starts a worker thread at import, and that thread spins for
#: about 0.1 s.  In a fresh CLI process it keeps a second core busy for most of
#: the process's life, and on a shared host the time of a CLI call would then
#: follow the load of the other tenants more than the program.  Every process
#: of the benchmark, this one and each child, therefore runs BLAS on one thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh processes timed for setup_s, spread over the run; the median is reported.
SETUP_PROBES = 15
#: Candidate tail percentiles; the highest with ten samples beyond it is used.
#: They are far apart so that run-to-run changes in the sample count rarely
#: change which one is used.
PERCENTILES = (50, 90, 99, 99.9)
#: An untraced run times at least this many operations, so the tail is p90 or higher.
MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 120
ALEXANDER_KINDS = ("family", "torus", "torsion", "wirtinger")
CLI_SUBCOMMANDS = ("alexander", "family", "certify", "classify", "table")
CERTIFY_FAILURES = ("ResidualTooLarge", "CertificationFailed")
#: Per-pass counts of a traced run; every pass of a run must give the same ones.
COUNT_KEYS = (
    "words.syllables",
    "words.text_bytes",
    "foxcalc.word_syllables",
    "foxcalc.laurent_terms",
    "alexander.minor_size",
    "alexander.coeff_bits",
    "rootcert.panels",
    *("rootcert.fail." + kind for kind in (*CERTIFY_FAILURES, "other")),
)


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import knotalex
    except ImportError as exc:
        sys.exit(f"bench: cannot import knotalex from {SRC}: {exc}")
    if Path(knotalex.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: knotalex was imported from {knotalex.__file__}, not from {SRC}")
    return knotalex


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        input=stdin.encode(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        env=_child_env(),
        cwd=ROOT,
    )


def _run_cli(args: tuple[str, ...], stdin: str) -> tuple[int, bytes, int]:
    """One ``python -m knotalex.cli`` process: exit code, stdout and its own peak RSS in KiB.

    The process is reaped with ``os.wait4`` so that its peak RSS is its own,
    not the largest of every child this process has waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "knotalex.cli", *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_child_env(),
        cwd=ROOT,
    )
    with contextlib.suppress(BrokenPipeError):
        proc.stdin.write(stdin.encode())
    proc.stdin.close()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    chunks = []
    while select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    else:
        proc.kill()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
    return proc.returncode, b"".join(chunks), usage.ru_maxrss


# --- operations -----------------------------------------------------------


def run_op(kx, op, tracer, state: dict):
    """The production path of one operation; returns its result or raises."""
    if op.kind == "certify":
        params = kx.FamilyParams(*op.params)
        with tracer.span("rootcert.certify"):
            certificate = kx.certify_family_root(params)
        state["certificate"] = certificate
        with tracer.span("rootcert.residual"):
            residual = kx.residual_at_certified_root(params, certificate)
        return certificate, residual
    if op.kind == "cli":
        with tracer.span("cli.process." + op.params[0]):
            return _run_cli(op.params, op.text)
    with tracer.span("words.parse"):
        presentation = kx.parse_presentation(op.text)
    state["presentation"] = presentation
    with tracer.span("alexander.polynomial"):
        return kx.alexander_polynomial(presentation)


def replay(kx, op, outcome, state: dict, tracer, counts: dict) -> None:
    """Traced runs only: reference-path replays, references and counts of one op."""
    if op.kind in ALEXANDER_KINDS:
        presentation = state.get("presentation")
        if presentation is None:
            return
        counts["words.syllables"] += sum(len(rel) for rel in presentation.relators)
        counts["words.text_bytes"] += len(op.text.encode())
        with tracer.span("replay"):
            with tracer.span("foxcalc.weights"):
                weights = kx.compute_weights(presentation)
            for relator in presentation.relators:
                for gen in presentation.generators:
                    with tracer.span("foxcalc.derivative"):
                        element = kx.fox_derivative(relator, gen)
                    with tracer.span("foxcalc.abelianize"):
                        poly = kx.abelianize(element, weights)
                    counts["foxcalc.word_syllables"] += sum(len(w) for w, _ in element.terms())
                    counts["foxcalc.laurent_terms"] += len(poly.items())
                    del element
            with tracer.span("alexander.matrix"):
                kx.alexander_matrix(presentation)
            if op.kind != "torsion":
                with tracer.span("alexander.closed_form"):
                    _reference(kx, op)
        size = len(presentation.generators) - 1
        counts["alexander.minor_size"] = max(counts["alexander.minor_size"], size)
        if outcome[0] == "ok":
            bits = max(abs(c).bit_length() for _, c in outcome[1].items())
            counts["alexander.coeff_bits"] = max(counts["alexander.coeff_bits"], bits)
    elif op.kind == "certify":
        with tracer.span("replay"):
            with tracer.span("alexander.closed_form"):
                delta = kx.closed_form_alexander(*op.params)
            certificate = state.get("certificate")
            if certificate is not None:
                with tracer.span("laurent.eval_unit_circle"):
                    kx.eval_unit_circle(delta, certificate.theta_star)
        if isinstance(getattr(certificate, "monotone_witness", None), kx.MonotonicityWitness):
            counts["rootcert.panels"] += certificate.monotone_witness.panels
        if outcome[0] == "raised":
            kind = outcome[1] if outcome[1] in CERTIFY_FAILURES else "other"
            counts["rootcert.fail." + kind] += 1


# --- references and checks -------------------------------------------------


def _reference(kx, op):
    """The expected result of an op, from a route other than the one it runs."""
    if op.kind == "family":
        return kx.closed_form_alexander(*op.params)
    if op.kind in ("torus", "wirtinger"):
        return kx.torus_knot_alexander(*op.params)
    if op.kind == "cli":
        from knotalex.cli import main

        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(op.text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(op.params))
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = stdin
        return code, out.getvalue().encode()
    return None


def _circle_function(n: int, m: int, theta: float) -> float:
    """g(theta) = 2 cos(theta/2) cos(M theta) + cos(nu theta), M = n + 3m, nu = n - 3/2."""
    return 2.0 * math.cos(0.5 * theta) * math.cos((n + 3 * m) * theta) + math.cos((n - 1.5) * theta)


def check(kx, op, outcome, reference) -> str:
    """'ok', 'failed' (an error where a result was due) or 'wrong' (a wrong result)."""
    if op.kind == "torsion":
        if outcome[0] == "raised":
            return "ok" if outcome[2] else "failed"
        return "wrong"
    if outcome[0] == "raised":
        return "failed"
    value = outcome[1]
    if op.kind == "certify":
        certificate, residual = value
        lo, star, hi = certificate.theta_lo, certificate.theta_star, certificate.theta_hi
        valid = (
            0.0 < lo < star < hi < 2.0 * math.pi / 3.0
            and _circle_function(*op.params, lo) > 0.0 > _circle_function(*op.params, hi)
            and 0.0 <= residual < kx.rootcert.DEFAULT_RESIDUAL_BOUND
        )
        return "ok" if valid else "wrong"
    if op.kind == "cli":
        value = value[:2]  # exit code and stdout; the peak RSS is not checked
    return "ok" if value == reference else "wrong"


# --- the closed loop --------------------------------------------------------


def closed_loop(kx, ops, seconds: float, tracer, traced: bool, probes: "SetupProbes"):
    """Run whole passes while the next one would end less than half a pass after ``seconds``.

    Untraced runs also go on until MIN_SAMPLES operations are timed.  The set-up
    probes due run between passes, where they delay no timed operation and
    leave no cold cache behind for one in the middle of a pass.
    """
    latencies, outcomes, pass_counts, pass_seconds = [], [], [], []
    start = time.perf_counter()
    while True:
        probes.run_due(time.perf_counter() - start)
        pass_start = time.perf_counter()
        counts = {key: 0 for key in COUNT_KEYS}
        for index, op in enumerate(ops):
            state: dict = {}
            if traced:
                tracer.op = (len(pass_counts), index)
            began = time.perf_counter()
            with tracer.span("op"):
                try:
                    outcome = ("ok", run_op(kx, op, tracer, state))
                except Exception as exc:  # every error is an outcome to check
                    outcome = ("raised", type(exc).__name__, isinstance(exc, kx.errors.KnotAlexError))
            latencies.append(time.perf_counter() - began)
            outcomes.append(outcome)
            if traced:
                replay(kx, op, outcome, state, tracer, counts)
        pass_counts.append(counts)
        now = time.perf_counter()
        pass_seconds.append(now - pass_start)
        enough = traced or len(latencies) >= MIN_SAMPLES
        if enough and (now - start) + pass_seconds[-1] / 2 > seconds:
            return latencies, outcomes, pass_counts, pass_seconds


def _warm_up(kx, ops) -> None:
    """Run the smallest op of each kind once, untimed, so lazy set-up is done."""
    smallest = {}
    for op in ops:
        size = op.syllables + sum(p for p in op.params if isinstance(p, int))
        if op.kind not in smallest or size < smallest[op.kind][0]:
            smallest[op.kind] = (size, op)
    for _, op in smallest.values():
        with contextlib.suppress(Exception):
            run_op(kx, op, NULL, {})


def _nearest_rank(ordered: list[float], percentile: float) -> float:
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


class SetupProbes:
    """Fresh processes timed from spawn until the package is imported and the pass is built.

    The SETUP_PROBES probes are due at even steps over the loop's ``seconds``,
    so that a slow moment of the host moves few of them.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--setup-only"]
        self.seconds = seconds
        self.samples: list[float] = []
        self.digests: set[str] = set()

    def run_due(self, elapsed: float) -> None:
        """Run the probes due ``elapsed`` seconds into the loop."""
        while (len(self.samples) < SETUP_PROBES
               and elapsed >= len(self.samples) * self.seconds / SETUP_PROBES):
            spawned = time.monotonic()
            done = _run_child(self.argv)
            if done.returncode != 0:
                sys.exit(f"bench: setup probe failed: {done.stderr.decode(errors='replace')}")
            report = json.loads(done.stdout.decode().splitlines()[-1])
            self.samples.append(report["ready"] - spawned)
            self.digests.add(report["digest"])


def _child_median(code: str, wall: bool) -> float:
    """Median over a few fresh interpreters of their wall time, or of what they print."""
    values = []
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        done = _run_child([sys.executable, "-c", code])
        values.append(time.perf_counter() - began if wall else float(done.stdout))
    return statistics.median(values)


def _e2e_metrics(latencies, pass_seconds, outcomes, failures, setup, workload):
    """End-to-end metrics; throughput is that of the median pass, robust to one slow pass.

    The peak RSS is that of this process, or on ``cli`` the largest of the CLI
    processes' own.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    tail = max((p for p in PERCENTILES if count * (100 - p) / 100 >= 10), default=50)
    if workload == "cli":
        peak_kb = max(outcome[1][2] for outcome in outcomes if outcome[0] == "ok")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (count / len(pass_seconds) / statistics.median(pass_seconds), "1/s"),
        "latency_p50_ms": (_nearest_rank(ordered, 50) * 1e3, "ms"),
        "latency_tail_ms": (_nearest_rank(ordered, tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_ratio": (1.0 - failures / count, "ratio"),
    }
    detail = {"latency_tail": {"percentile": tail, "samples": count,
                               "beyond": count - math.ceil(tail / 100 * count)}}
    return metrics, detail


def _layer_metrics(tracer, counts: dict, passes: int, workload: str) -> dict:
    own = tracer.self_times()
    calls: dict[str, int] = {}
    for record in tracer.spans:
        calls[record[0]] = calls.get(record[0], 0) + 1

    def per_pass(name: str) -> float:
        return own.get(name, 0.0) / passes

    def per_call(name: str) -> float:
        return own.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    metrics = {
        "words.parse_s": (per_pass("words.parse"), "s"),
        "words.syllables": (counts["words.syllables"], "count"),
        "words.text_bytes": (counts["words.text_bytes"], "bytes"),
        "family.presentation_s": (own.get("family.presentation", 0.0), "s"),
        "foxcalc.weights_s": (per_pass("foxcalc.weights"), "s"),
        "foxcalc.derivative_s": (per_pass("foxcalc.derivative"), "s"),
        "foxcalc.abelianize_s": (per_pass("foxcalc.abelianize"), "s"),
        "foxcalc.word_syllables": (counts["foxcalc.word_syllables"], "count"),
        "foxcalc.laurent_terms": (counts["foxcalc.laurent_terms"], "count"),
        "alexander.matrix_s": (per_pass("alexander.matrix"), "s"),
        "alexander.polynomial_s": (per_pass("alexander.polynomial"), "s"),
        "alexander.minor_det_s": (per_pass("alexander.polynomial") - per_pass("alexander.matrix"), "s"),
        "alexander.minor_size": (counts["alexander.minor_size"], "count"),
        "alexander.coeff_bits": (counts["alexander.coeff_bits"], "bits"),
        "alexander.closed_form_s": (per_pass("alexander.closed_form"), "s"),
        "laurent.eval_unit_circle_s": (per_pass("laurent.eval_unit_circle"), "s"),
        "rootcert.certify_s": (per_pass("rootcert.certify"), "s"),
        "rootcert.residual_s": (per_pass("rootcert.residual"), "s"),
        "rootcert.panels": (counts["rootcert.panels"], "count"),
    }
    for kind in (*CERTIFY_FAILURES, "other"):
        metrics["rootcert.fail." + kind] = (counts["rootcert.fail." + kind], "count")
    start_s = import_s = work_s = 0.0
    if workload == "cli":
        start_s = _child_median("pass", wall=True)
        import_s = _child_median(
            "import time; t = time.perf_counter(); import knotalex.cli; "
            "print(time.perf_counter() - t)", wall=False)
        processes = [name for name in calls if name.startswith("cli.process.")]
        total = sum(own[name] for name in processes) / sum(calls[name] for name in processes)
        work_s = total - start_s - import_s
    metrics["cli.start_s"] = (start_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    for sub in CLI_SUBCOMMANDS:
        metrics["cli.process_s." + sub] = (per_call("cli.process." + sub), "s")
    metrics["cli.work_s"] = (work_s, "s")
    # Overhead on the timed operations: spans opened inside an "op" span
    # (that one included) over the time of the "op" spans.
    roots, op_time, in_ops = [], 0.0, 0
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        roots.append(index if parent is None else roots[parent])
        if tracer.spans[roots[index]][0] == "op":
            in_ops += 1
            op_time += end - start if name == "op" else 0.0
    metrics["trace.overhead_ratio"] = (in_ops * span_cost() / op_time, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    kx = _import_package()
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    if args.setup_only:
        ops = inputs.build(args.workload, args.seed, NULL)
        print(json.dumps({"ready": time.monotonic(), "digest": inputs.digest(ops)}))
        return 0

    probes = SetupProbes(args.workload, args.seed, args.seconds)
    traced = bool(args.trace)
    tracer = Tracer() if traced else NULL
    ops = inputs.build(args.workload, args.seed, tracer)
    digest = inputs.digest(ops)
    _warm_up(kx, ops)

    latencies, outcomes, pass_counts, pass_seconds = closed_loop(
        kx, ops, args.seconds, tracer, traced, probes)
    probes.run_due(math.inf)
    passes, setup = len(pass_counts), probes.samples

    references = [_reference(kx, op) for op in ops]
    verdicts = [check(kx, ops[i % len(ops)], outcome, references[i % len(ops)])
                for i, outcome in enumerate(outcomes)]
    failures: dict[str, int] = {}
    for verdict, outcome in zip(verdicts, outcomes):
        if verdict != "ok":
            name = "wrong result" if verdict == "wrong" else outcome[1]
            failures[name] = failures.get(name, 0) + 1
    failed = sum(failures.values())
    repeatable = probes.digests == {digest} and all(c == pass_counts[0] for c in pass_counts)
    correct = "wrong result" not in failures and repeatable

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest,
        "inputs": inputs.summary(ops),
        "passes": passes,
        "pass_s": pass_seconds,
        "fail_ratio": failed / len(outcomes),
        "failures": failures,
        "repeatable": repeatable,
        "setup_samples_s": setup,
    }
    if traced:
        metrics = _layer_metrics(tracer, pass_counts[0], passes, args.workload)
    else:
        metrics, extra = _e2e_metrics(latencies, pass_seconds, outcomes, failed, setup, args.workload)
        detail.update(extra)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if not repeatable:
        print("bench: the same seed gave different inputs or counts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
