"""The awcalc benchmark: seeded CLI workloads, checked outputs, timings.

    python3 perfbench/run.py --workload {identities,build,chain} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; awcalc is imported from
``src/`` there, never from an installed copy. Each op is one
``python -m awcalc ...`` call in a fresh process, so the program's
module-level caches start empty on every op as they do for a CLI user. Ops
run one after another from this single process: a closed loop with one
client. New ops start until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every op
twice, untraced and then through ``traced_child.py``, and prints the
per-layer metrics with the tracing overhead. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
lines before it give the sample counts, which percentile the tail metric
is, the digest of the outputs and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Op, generate

HERE = Path(__file__).resolve().parent
# set-up is repeated and its median reported; a single spawn is too noisy
SETUP_REPEATS = 9
# a hung op is killed after this long and counted as failed
OP_TIMEOUT_S = 60.0
# the output digest covers this many leading ops, which any run completes
DIGEST_OPS = 6
# a tail percentile is reported only with this many samples beyond it
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "op_cpu_s.p50": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span names read per traced op by _layer_values: call counts, self time
# and inclusive time
_SPAN_CALLS = ("qpoly.to_laurent", "qpoly.from_laurent",
               "qpoly.LaurentSym.mul", "qpoly.PolyX.mul", "qpoly.resultant",
               "qoperators.apply_Dq", "qoperators.apply_Sq",
               "askey_wilson.solve_operator_equation",
               "proof_engine.derived_family", "proof_engine.chain_coeffs")
_SPAN_SELF = ("qpoly.to_laurent", "qpoly.from_laurent",
              "qpoly.LaurentSym.mul", "qpoly.PolyX.mul", "qpoly.resultant",
              "qoperators.apply_Dq", "qoperators.apply_Sq",
              "askey_wilson.solve_operator_equation",
              "askey_wilson.three_term_data", "cli.main")
_SPAN_INCLUSIVE = ("qoperators.verify_identity",
                   "qoperators.verify_k_fold_rule",
                   "askey_wilson.build_family", "askey_wilson.family_to_dict",
                   "proof_engine.extract_rn_fg",
                   "proof_engine.verify_final_matches_aw",
                   "proof_engine.check_nonvanishing",
                   "proof_engine.check_no_common_zeros") + tuple(
    f"{tracing.CHAIN_EQUATION}.{tag}" for tag in (
        "eq1a", "eq1b", "eq3", "eq4", "eq3b", "eq3a", "eq6", "eq7",
        "eq_final"))
PER_LAYER = {"trace.overhead_ratio": "ratio"}
PER_LAYER.update({f"{name}.calls": "count" for name in _SPAN_CALLS})
PER_LAYER.update({f"{name}.self_s": "s" for name in _SPAN_SELF})
PER_LAYER.update({f"{name}.s": "s" for name in _SPAN_INCLUSIVE})
PER_LAYER.update({
    "qoperators.apply_Dq.distinct_ratio": "ratio",
    "qoperators.apply_Sq.distinct_ratio": "ratio",
    "proof_engine.derived_family.misses": "count",
    "proof_engine.derived_family.polys_built": "count",
    "proof_engine.chain_coeffs.hit_ratio": "ratio",
    "scalars.max_coeff_bits": "bits",
    "cli.process_overhead_s": "s",
})


@dataclass
class Sample:
    """One finished child process."""

    op: Op
    returncode: int | None    # None: killed at the timeout
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(cmd: list[str], env: dict, timeout: float) -> tuple:
    """Spawn, collect both streams, reap with wait4 for the child's own
    rusage. Returns (returncode, stdout, stderr, wall_s, cpu_s, maxrss_kb);
    a child past ``timeout`` is killed and reported with returncode None."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (SIGTERM included, see main): leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code < 0:
        code = None
    return (code, out, err[0], wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def awcalc_cmd(op: Op) -> list[str]:
    return [sys.executable, "-m", "awcalc", *op.argv]


def run_op(cmd: list[str], op: Op, env: dict) -> Sample:
    code, out, err, wall, cpu, rss = run_child(cmd, env, OP_TIMEOUT_S)
    sample = Sample(op, code, out, err, wall, cpu, rss)
    if code is None:
        sample.problems = [f"killed after {OP_TIMEOUT_S:.0f} s"]
    else:
        sample.problems = checks.check_output(op, code, out)
    return sample


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most 90, with TAIL_MIN_BEYOND
    samples beyond it; 0 (the minimum) when there are too few samples."""
    if n <= TAIL_MIN_BEYOND:
        return 0
    # rank (n - 1 - TAIL_MIN_BEYOND) leaves exactly TAIL_MIN_BEYOND above it
    return min(90, (100 * (n - 1 - TAIL_MIN_BEYOND)) // (n - 1))


def checkout_env(root: Path) -> dict:
    """The environment of every child: awcalc comes from the checkout."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def set_up(workload: str, seed: int, env: dict) -> tuple[list[Op], list[float]]:
    """Generate the inputs and warm the interpreter and the bytecode cache
    with one CLI start; repeated, so that the median is reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = generate(workload, seed)
        code, out, err, *_ = run_child(
            [sys.executable, "-m", "awcalc", "--help"], env, OP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if code != 0 or not out.startswith(b"usage: awcalc"):
            raise SystemExit(f"awcalc does not start: exit {code}: "
                             f"{err.decode(errors='replace').strip()}")
    return ops, times


def outputs_digest(samples: list[Sample]) -> tuple[str, int]:
    """sha256 over the argv and output bytes of the leading ops."""
    h = hashlib.sha256()
    head = samples[:DIGEST_OPS]
    for s in head:
        h.update(json.dumps(s.op.argv).encode() + b"\n")
        h.update(hashlib.sha256(s.stdout).digest())
    return h.hexdigest(), len(head)


def end_to_end(samples: list[Sample], setup_times: list[float]) -> tuple:
    good = [s for s in samples if s.ok]
    walls = [s.wall_s for s in good]
    tail = tail_percentile(len(walls))
    work = sum(checks.work_done(s.op, s.stdout) for s in good)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": statistics.median(walls),
        "op_s.p90": percentile(walls, tail),
        "op_cpu_s.p50": statistics.median(s.cpu_s for s in good),
        "records_per_s": work / sum(s.wall_s for s in samples),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_s.p50": f"median of {len(walls)} ops",
        "op_s.p90": f"p{tail} of {len(walls)} ops" + (
            "" if tail == 90 else
            f", the highest with {TAIL_MIN_BEYOND} beyond it" if tail else
            f", the minimum: no percentile has {TAIL_MIN_BEYOND} beyond it"),
        "op_cpu_s.p50": f"median of {len(good)} ops",
        "records_per_s": f"{work} records over {len(samples)} ops",
        "peak_rss_mb": f"max of {len(samples)} ops",
    }
    return metrics, notes


def _layer_values(sample: Sample, trace_path: Path) -> dict:
    counters, names, *arrays = tracing.load(trace_path)
    totals = tracing.layer_totals(names, *arrays)
    row = {}
    for name in _SPAN_CALLS:
        row[f"{name}.calls"] = totals[name]["calls"]
    for name in _SPAN_SELF:
        row[f"{name}.self_s"] = totals[name]["self_s"]
    for name in _SPAN_INCLUSIVE:
        row[f"{name}.s"] = totals[name]["s"]
    for op in ("apply_Dq", "apply_Sq"):
        calls = totals[f"qoperators.{op}"]["calls"]
        distinct = counters[f"qoperators.{op}.distinct"]
        row[f"qoperators.{op}.distinct_ratio"] = distinct / calls if calls else 0.0
    for key in ("misses", "polys_built"):
        row[f"proof_engine.derived_family.{key}"] = \
            counters[f"proof_engine.derived_family.{key}"]
    hits = counters["proof_engine.chain_coeffs.hits"]
    looked_up = hits + counters["proof_engine.chain_coeffs.misses"]
    row["proof_engine.chain_coeffs.hit_ratio"] = hits / looked_up if looked_up else 0.0
    row["scalars.max_coeff_bits"] = checks.max_coeff_bits(sample.stdout)
    row["cli.process_overhead_s"] = sample.wall_s - totals["cli.main"]["s"]
    return row


def measure(ops: list[Op], seconds: float, env: dict, trace: bool,
            workdir: Path) -> tuple[list[Sample], list[Sample], list[dict]]:
    """The timed closed loop. Returns the untraced samples, the traced
    samples and, per traced op, its per-layer values."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start >= seconds:
            break
        plain.append(run_op(awcalc_cmd(op), op, env))
        if not trace:
            continue
        trace_path = workdir / f"op{i}.trace"
        cmd = [sys.executable, str(HERE / "traced_child.py"), str(trace_path),
               *op.argv]
        sample = run_op(cmd, op, env)
        if sample.ok and sample.stdout != plain[-1].stdout:
            sample.problems.append("traced output differs from untraced")
        traced.append(sample)
        if sample.ok and plain[-1].ok:
            layers.append(_layer_values(sample, trace_path))
        trace_path.unlink(missing_ok=True)
    else:
        raise SystemExit(f"the op list ran out before {seconds} s")
    return plain, traced, layers


def per_layer(plain: list[Sample], traced: list[Sample],
              layers: list[dict]) -> tuple[dict, dict]:
    metrics = {name: statistics.median(row[name] for row in layers)
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    # the same pairs that gave ``layers``: both runs of the op passed
    pairs = [(p.wall_s, t.wall_s) for p, t in zip(plain, traced)
             if p.ok and t.ok]
    metrics["trace.overhead_ratio"] = \
        sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1
    notes = {name: f"median of {len(layers)} traced ops" for name in metrics}
    notes["trace.overhead_ratio"] = f"{len(pairs)} untraced/traced pairs"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that children are killed and reaped
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "awcalc" / "__init__.py").is_file():
        print(f"error: no awcalc sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    env = checkout_env(root)
    ops, setup_times = set_up(args.workload, args.seed, env)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        plain, traced, layers = measure(ops, args.seconds, env,
                                        bool(args.trace), Path(tmp))
    samples = plain + traced
    failures = [s for s in samples if not s.ok]
    for s in failures:
        print(f"FAILED {' '.join(s.op.argv)}: {'; '.join(s.problems)}; "
              f"stderr: {s.stderr.decode(errors='replace').strip()[-300:]}")
    if len(failures) == len(samples) or (args.trace and not layers):
        print("error: no op succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = per_layer(plain, traced, layers)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(plain, setup_times)
        units = END_TO_END
    digest, digest_ops = outputs_digest(plain)
    for name in units:
        print(f"{args.workload:10s} {name:48s} {metrics[name]:14.6g} "
              f"{units[name]:6s} {notes[name]}")
    print(f"{args.workload:10s} {'fail_ratio':48s} "
          f"{len(failures) / len(samples):14.6g} {'ratio':6s} "
          f"{len(failures)} of {len(samples)} ops")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": len(plain), "processes": len(samples),
        "outputs_sha256": digest, "outputs_sha256_ops": digest_ops,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
