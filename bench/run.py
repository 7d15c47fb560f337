"""Layered benchmark of the qbip CLI: end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py                  # all workloads, end-to-end metrics

Stdlib only.  Run it from anywhere; it uses the ``src/`` next to this
directory and writes its scratch files and results under ``.bench_out/``.

How a run measures (``--trace 0``)
----------------------------------
Six children that only import ``qbip.cli`` (the first, a warm-up, is
discarded) measure set-up.  Then the workload runs in fresh child processes (child.py),
one at a time, single-threaded, tracing off, for about ``--seconds`` (at least
one child; no child starts that would likely end past it).  Every child's
output is checked.  Each metric is the median over the run.

Times are reported at a reference speed.  The shared host this was written
on runs the same code up to 1.8x slower from one second to the next, and
the run's raw times wander with it.  So each child times a fixed ~1 ms
stdlib probe (child.probe_work) on entry and every 40 ms of ``cli.main``
(SIGALRM), and subtracts the probe's time from its own.  Its times are
scaled by the mean of PROBE_REF_S / probe time over its samples, which took
the spread of one child's wall time from 6-14% to 1-2% here.  Set-up time is
scaled the same way by five probe samples taken right after the import.  The probe runs inside the program's
process, so a change that alters the program's cache footprint can move the
probe a little too.  Raw medians are printed and stored with the samples.

End-to-end metrics (``--trace 0``; all lower is better):
  setup_s      s    launch of a child until ``qbip.cli`` is imported and ready
                    for argv; import-time work shows here
  wall_s       s    wall time of ``qbip.cli.main(argv)`` in the child
  cpu_s        s    user+sys CPU of the child and any workers it reaped, from
                    its own getrusage (probe excluded); shows whether a
                    parallel change cut wall time by spending more CPU
  peak_rss_mb  MiB  peak resident memory of the child (RUSAGE_SELF), not scaled
The failed fraction, (checks or rows failed or missing from the verified
output) / (checks or rows expected), is printed too.  In the result line it is
``failed`` / ``attempted``: it is normally 0, which a bounded metric cannot
be.  A run that checks nothing counts as failed.

Workloads (``--seed`` only changes the random trees; the others are fixed):
  enum-12        ``qbip verify --enumerate-upto 12``: the 73 nonsingular trees
                 with 2p <= 12, oracle on for p <= 5, 949 checks, about 6-9 s.
                 About half the time is RatFun canonicalisation (poly_gcd,
                 _prem) inside the mat_mul calls of check_inverse_E and
                 check_inverse_qB; most of the rest is det_bareiss and the n^2
                 minors of adjugate_int.  Where Z[q] inverse checks and a
                 per-tree cache should show.
  random-100     ``qbip verify --random 100,3 --seed <seed>`` at the five
                 default points, 75 checks, about 5-6 s.  About 70% is Fraction
                 arithmetic in verify.evaluate_identities_at, ~7% the O(n^2)
                 Tree revalidation in random_nonsingular and bdq_recursive.  It
                 barely touches RatFun or det_bareiss, so enum-side work should
                 show no change here and the point-evaluation rewrite should.
  conjecture-16  ``qbip conjecture --upto 16``: 954 trees up to p = 8, about
                 4-7 s.  det_bareiss and divexact run on dense integer
                 lambda-polynomials (charpoly_exact, twice per tree), poly_gcd in
                 Sturm and square-free code; enumeration to p = 8
                 (canonical_code) is ~10%.  A kernel change tuned for enum-12
                 that costs this use shows here.
Not adopted from the roadmap: each later check runs every workload 22 times,
and ``--enumerate-upto 14`` takes 41 s, 16 takes minutes, ``--random 400,1``
at 5 points about 75 s; ``conjecture --upto 12`` takes 0.4 s, too short to be
steady.

Output checks: enum-12 must print ``TREES 73 CHECKS 949 FAIL 0`` and its
``(tree, p, check, pass, skipped)`` projection must match the digest recorded
from the seed implementation; conjecture-16's ``(tree, p, charpoly,
diagonalizable, all_eigen_nonneg, real_root_count)`` rows likewise; random-100
must give FAIL 0 with exactly 25 x trials checks for any seed.

Traced run (``--trace 1``)
--------------------------
After the untraced children, the workload runs once in this process with
bench/tracer.py wrapping the public functions of every layer (module): the
span of each call minus its traced children is its self time.  A SpeedProbe
runs alongside; its own time is left out of every layer and all times are
scaled to the reference speed, like the end-to-end ones.  The traced
output must equal the untraced one, and every layer function the workload
must exercise has to record calls (the benchmark's self-test).  Per-layer
metrics, and the end-to-end metric each should move:
  polyalg.{poly_mul,poly_add,divexact,poly_gcd,ratfun_new,ratfun_mul,
  ratfun_add}.{calls,self_s}, polyalg.poly_gcd.trivial_frac (share of gcds
  that returned 1: wasted work)
      -> enum-12 wall_s/cpu_s (RatFun); conjecture-16 (divexact, mul);
         no change on random-100
  exactla.{det_bareiss,mat_mul,matvec,inverse_gauss,adjugate_int,rank_int,
  charpoly_exact,count_real_roots,conjecture_evidence}.{calls,self_s},
  exactla.det_bareiss.max_n (largest matrix order)
      -> enum-12 and conjecture-16 wall_s; no change on random-100
         (conjecture_evidence's self time is its square-free part and
         annihilation test, which would otherwise land in cli.main)
  treecore.{tree_new,matched_new,distances,alternating_reach,diff,attach_p2,
  detach_p2,canonical_code,enumerate_nonsingular,
  random_nonsingular}.{calls,self_s}
      -> random-100 wall_s (revalidation, BFS); conjecture-16 (enumeration)
  qmatrices.{build_qB,build_E,build_qL,build_full_qD,build_full_eD,
  qsigned_degree_vector,qtau,bdq_det,bdq_recursive,inverse_E_formula,
  inverse_qB_formula,eval_matrix}.{calls,self_s}
      -> enum-12 wall_s and peak_rss_mb (calls per tree are the per-tree
         cache target); bdq_recursive -> random-100
  verify.check_*.cum_s (13 checks), verify.evaluate_identities_at.{calls,
  cum_s}, verify.run_suite.{calls,p50_s,tail_s,tail_pct} (tail: the highest
  percentile with at least 10 samples beyond it; calls is the sample count)
      -> enum-12 (checks) and random-100 (evaluation)
  cli.main.self_s (argv, JSON encoding, printing) -> conjecture-16
  trace.wall_s, trace.overhead_s (traced minus untraced wall_s)
Units: ``calls`` and ``max_n`` are counts, ``*_s`` seconds, ``trivial_frac`` a
ratio, ``tail_pct`` a percent.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat each metric with its
unit and the provenance (Python, nproc, CPU model, git commit, seed, runs),
which is also written with the samples to ``.bench_out/``.  ``--smoke`` runs
enum-6, random-10 (1 trial) and conjecture-8 through the same code instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import SpeedProbe  # noqa: E402
from tracer import TARGETS, LayerTracer  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))
# About the time of child.probe_work() on an unloaded core of the machine the
# benchmark was written on (Intel Xeon, Python 3.11); see "reference speed".
PROBE_REF_S = 0.001
SETUP_RUNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s, children included


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in TARGETS:
        if name.startswith("verify.check_"):
            out.append((f"{name}.cum_s", "s"))
        elif name == "verify.evaluate_identities_at":
            out += [(f"{name}.calls", "count"), (f"{name}.cum_s", "s")]
        elif name == "verify.run_suite":
            out += [(f"{name}.calls", "count"), (f"{name}.p50_s", "s"),
                    (f"{name}.tail_s", "s"), (f"{name}.tail_pct", "%")]
        elif name == "cli.main":
            out.append((f"{name}.self_s", "s"))
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name == "polyalg.poly_gcd":
                out.append((f"{name}.trivial_frac", "ratio"))
            elif name == "exactla.det_bareiss":
                out.append((f"{name}.max_n", "count"))
    return out + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]


# ---------------------------------------------------------------------------
# untraced children
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Launch child.py with argv; return its report plus setup_s and stdout."""
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {' '.join(argv)}") from None
    lines = out.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child failed (exit {proc.returncode}): {err.strip()}") from None
    if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"child imported qbip from {report['module']}")
    report["setup_s"] = report["ready"] - launched
    report["stdout"] = "\n".join(lines[:-1])
    return report


def speed_factor(probe_samples) -> float:
    """Mean of PROBE_REF_S / probe time: scales a time to the reference speed."""
    return statistics.mean(PROBE_REF_S / t for t in probe_samples)


def measure(workload, seed: int, seconds: float, out_dir: Path, deadline: float):
    """Set-up runs, then untraced children for about `seconds` (at least one).

    Returns (metrics at reference speed, raw metrics, samples, outcomes,
    the last child's --out text).
    """
    run_child([], deadline)  # warm-up: byte-compiles on a fresh checkout
    setup_runs = [run_child([], deadline) for _ in range(SETUP_RUNS)]
    out_path = out_dir / f"{workload.name}.out"
    argv = workload.argv(seed, str(out_path))
    children, outcomes, durations = [], [], []
    start = time.monotonic()
    while not children or (time.monotonic() - start
                           + statistics.mean(durations) <= seconds):
        began = time.monotonic()
        out_path.unlink(missing_ok=True)
        child = run_child(argv, deadline)
        out_text = out_path.read_text() if out_path.exists() else None
        outcomes.append(workload.check(child["rc"], child["stdout"], out_text))
        children.append(child)
        durations.append(time.monotonic() - began)
    setups = [r["setup_s"] for r in setup_runs + children]
    setup_speeds = [speed_factor(r["setup_probe_s"]) for r in setup_runs + children]
    speeds = [speed_factor(c["probe_s"]) for c in children]
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "cpu_s": statistics.median(c["cpu_s"] for c in children),
        "peak_rss_mb": statistics.median(c["maxrss_kb"] for c in children) / 1024,
    }
    metrics = {
        "setup_s": statistics.median(t * f for t, f in zip(setups, setup_speeds)),
        "wall_s": statistics.median(c["wall_s"] * f for c, f in zip(children, speeds)),
        "cpu_s": statistics.median(c["cpu_s"] * f for c, f in zip(children, speeds)),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    samples = {
        "setup_s": setups,
        **{k: [c[k] for c in children]
           for k in ("wall_s", "cpu_s", "maxrss_kb")},
        "setup_speed": setup_speeds,
        "speed": speeds,
    }
    return metrics, raw, samples, outcomes, out_text


# ---------------------------------------------------------------------------
# traced run, in this process
# ---------------------------------------------------------------------------


def traced_run(workload, seed: int, out_dir: Path):
    """Run the workload once under the tracer and a SpeedProbe.

    Returns (tracer, speed factor, wall of cli.main less the probe's time, rc,
    stdout, --out text).
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qbip import cli
    except ImportError as exc:
        raise BenchError(f"cannot import qbip from {ROOT / 'src'}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported qbip from {cli.__file__}")
    out_path = out_dir / f"{workload.name}.traced.out"
    out_path.unlink(missing_ok=True)
    tracer = LayerTracer()
    stdout = io.StringIO()
    with tracer, contextlib.redirect_stdout(stdout), SpeedProbe(tracer.exclude) as probe:
        start = time.perf_counter()
        rc = cli.main(workload.argv(seed, str(out_path)))
        wall = time.perf_counter() - start - sum(probe.samples[1:])  # raw
    out_text = out_path.read_text() if out_path.exists() else None
    return tracer, speed_factor(probe.samples), wall, rc, stdout.getvalue(), out_text


def tail(durations):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(durations)
    if n <= 10:
        return 0.0, 0.0
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def layer_values(tracer: LayerTracer, speed: float, untraced_wall: float) -> dict:
    """Every per-layer metric; times scaled to the reference speed by `speed`."""
    suite = [d * speed for d in tracer.span_durations("verify.run_suite")]
    tail_s, tail_pct = tail(suite)
    traced_wall = tracer.stats["cli.main"].cum_s * speed  # probe time left out
    values = {
        "verify.run_suite.p50_s": statistics.median(suite) if suite else 0.0,
        "verify.run_suite.tail_s": tail_s,
        "verify.run_suite.tail_pct": tail_pct,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name, _ in layer_metrics():
        if name in values:
            continue
        base, _, field = name.rpartition(".")
        stat = tracer.stats[base]
        if field == "trivial_frac":
            values[name] = stat.extra / stat.calls if stat.calls else 0.0
        elif field == "max_n":
            values[name] = stat.extra
        elif field == "calls":
            values[name] = stat.calls
        else:  # self_s, cum_s
            values[name] = getattr(stat, field) * speed
    return {name: values[name] for name, _ in layer_metrics()}


def write_spans(tracer: LayerTracer, path: Path) -> None:
    """Coarse spans as columns: name index, start and duration in us, parent."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[index[n], round((s - t0) * 1e6), round(d * 1e6), parent]
            for n, s, d, parent in tracer.spans]
    path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def _git_commit() -> str:
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
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, runs: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "runs": runs,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Measure one workload; return (result dict, human-readable lines)."""
    deadline = time.monotonic() + DEADLINE_S
    e2e, raw, samples, outcomes, untraced_out = measure(
        workload, seed, seconds, out_dir, deadline)
    problems = sorted({o.detail for o in outcomes if o.detail != "ok"})
    lines = [f"workload {workload.name}: qbip {' '.join(workload.argv(seed, 'OUT'))}"]
    if trace:
        tracer, speed, wall, rc, stdout, out_text = traced_run(workload, seed, out_dir)
        outcome = workload.check(rc, stdout, out_text)
        outcomes.append(outcome)
        if outcome.detail != "ok":
            problems.append(f"traced run: {outcome.detail}")
        if workload.project(out_text) != workload.project(untraced_out):
            problems.append("traced output differs from untraced output")
        idle = [n for n in workload.must_call if tracer.stats[n].calls == 0]
        if idle:
            problems.append(f"no calls recorded for {', '.join(idle)}")
        metrics = layer_values(tracer, speed, e2e["wall_s"])
        units = dict(layer_metrics())
        write_spans(tracer, out_dir / f"{workload.name}.spans.json")
        lines.append(f"  tracing overhead {metrics['trace.overhead_s']:.4f} s: traced "
                     f"{metrics['trace.wall_s']:.4f} s, untraced {e2e['wall_s']:.4f} s "
                     f"(raw {wall:.4f} s and {raw['wall_s']:.4f} s)")
    else:
        metrics = e2e
        units = dict(END_TO_END)
        lines += [f"  {name:<44} {value:>14.6g} {units[name]} raw" for name, value in raw.items()]
    attempted = sum(o.expected for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if attempted == 0:  # a run that checks nothing counts as failed
        attempted = failed = 1
    prov = provenance(seed, len(samples["wall_s"]))
    lines.append(f"  provenance {json.dumps(prov, sort_keys=True)}")
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    lines.append(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    lines.append("  output " + ("; ".join(problems) or "ok"))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=workload.name, trace=trace, provenance=prov,
                  raw=raw, samples=samples, problems=problems)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of the same workloads, a few seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qbip" / "cli.py").is_file():
        print(f"error: no qbip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = SMOKE if args.smoke else WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(table[name], args.seed, args.seconds,
                                         bool(args.trace), out_dir)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
