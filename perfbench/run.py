"""hermlab benchmark: CLI start-up, a report ladder in n, and metric descent.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the benchmark measures the hermlab under
``src/`` of that checkout and fails if it would import any other copy.
Workloads (closed loop, one client, think time 0; see README.md for why each
exists):

    cli-small      one op = ``python -m hermlab.cli analyze <doc> --format json``
                   as a subprocess, round-robin over six n <= 3 documents
    report-ladder  one op = one pass of ``hermlab.cli.main(["analyze", ...])``
                   over the rungs n6, n10, n10d, n15, nilp9
    descent        one op = one pass of ``main(["optimize", ...])``: rung desc6
                   (sokc-4) and rung desc3 (a batch of so3c starts)

A run does whole passes until ``--seconds`` have elapsed.  Every op's output
is checked; an op with any failed check counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy is imported, here and in children
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
sys.path.insert(0, str(SRC))

import generators as g  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli-small", "report-ladder", "descent")
SETUP_SAMPLES = 9  # at least this many set-up samples per run
IMPORTTIME_SAMPLES = 3

# Output checks: reference values at 1e-9 relative with a 1e-12 absolute floor;
# a descent must end on the critical value to 1e-8 relative with |Q_F| <= 1e-6.
REF_RTOL, REF_ATOL = 1e-9, 1e-12
CRIT_RTOL, QF_MAX = 1e-8, 1e-6
FLAGS = ("kahler", "balanced", "gauduchon", "pluriclosed", "lck_shape", "stp", "nilpotent_J")


class SetupError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


# ---------------------------------------------------------------------------
# output checks


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def parse_report(text):
    """Parse a report with a JSON parser that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def observed_values(report):
    """The values of an analyze report that are pinned to reference values."""
    t, r, c = report["torsion"], report["residuals"], report["classification"]
    return {
        "values": {"norm_T2": t["norm_T2"], "norm_eta2": t["norm_eta2"],
                   "norm_Q_F": r["norm_Q_F"], "norm_Q_G": r["norm_Q_G"]},
        "flags": {k: c[k]["flag"] for k in FLAGS},
        "witness": c["nilpotent_J"]["witness"],
    }


def check_analyze(code, text, expect):
    """None when the op's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        got = observed_values(parse_report(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    for key, ref in expect["values"].items():
        val = got["values"][key]
        if not isinstance(val, (int, float)) or abs(val - ref) > max(REF_RTOL * abs(ref), REF_ATOL):
            return f"{key} = {val!r}, reference {ref!r}"
    if got["flags"] != expect["flags"]:
        return f"flags {got['flags']} != reference {expect['flags']}"
    if got["witness"] != expect["witness"]:
        return f"nilpotent_J witness {got['witness']} != reference {expect['witness']}"
    return None


def check_descent(code, text, critical):
    """(None or failure reason, accepted steps) for one optimize op."""
    if code not in (0, 3):
        return f"exit code {code}, expected 0 or 3", 0
    try:
        report = parse_report(text)
        opt, res = report["optimization"], report["residuals"]
        F, qf, reason, steps = res["F_value"], res["norm_Q_F"], opt["reason"], opt["iterations"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}", 0
    if code == 3 and reason != "stagnated":
        return f"exit 3 with reason {reason!r}", steps
    if abs(F - critical) > CRIT_RTOL * critical:
        return f"F_value {F!r} is not the critical value {critical}", steps
    if not qf <= QF_MAX:
        return f"norm_Q_F {qf!r} above {QF_MAX}", steps
    return None, steps


# ---------------------------------------------------------------------------
# environment


def hermlab_location(path):
    """Fail unless ``path`` (a ``hermlab.__file__``) lies in this checkout's src."""
    if Path(path).resolve().parent != (SRC / "hermlab").resolve():
        raise SetupError(f"hermlab imported from {path}, not from {SRC}")
    return path


def environment(hermlab_file):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "commit": commit,
        "threads": THREAD_ENV,
        "hermlab": hermlab_file,
    }


# ---------------------------------------------------------------------------
# probes in fresh interpreters


def setup_samples(workload, seed, count):
    out = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "setup", workload, str(seed)],
            env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])
        hermlab_location(ready["hermlab"])
        out.append(ready["ready"] - t0)
    return out


def import_breakdown(stderr):
    """Seconds spent importing numpy, scipy and hermlab's own modules.

    numpy and scipy are the cumulative times of their outermost entries in the
    ``-X importtime`` tree; hermlab is the sum of its modules' self times.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        head, cum_us, name = line.split("|")
        self_us = head.split(":")[1]
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))

    def family(name):
        return name.split(".")[0] if name.split(".")[0] in ("numpy", "scipy") else None

    out = {"numpy": 0, "scipy": 0, "hermlab": 0}
    # rows come children first: a row's parent is the next row one level up
    for i, (depth, name, self_us, cum_us) in enumerate(rows):
        if name.split(".")[0] == "hermlab":
            out["hermlab"] += self_us
        fam = family(name)
        if fam is None:
            continue
        nested, d = False, depth
        for depth2, name2, _, _ in rows[i + 1:]:
            if depth2 < d:
                d = depth2
                if family(name2):
                    nested = True
                    break
        if not nested:
            out[fam] += cum_us
    return {k: v / 1e6 for k, v in out.items()}


def import_samples():
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hermlab.cli"],
                              env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(import_breakdown(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# inputs


def prepare_inputs(workload, seed, docs, workdir):
    """Write the documents, validate each structure, attach reference values.

    Returns {rung: (path, expect)}; ``expect`` is None for descent rungs.
    """
    from hermlab import cli, lie_hermitian

    reference = {}
    if workload != "descent":
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)
    out = {}
    for rung, doc in docs.items():
        report = lie_hermitian.validate(cli.parse_input(doc).sc)
        if not report.ok:
            raise SetupError(f"generated structure {rung} fails validation: {report.checks}")
        expect = None
        if workload != "descent":
            expect = reference.get(g.doc_digest(doc))
            if expect is None:
                raise SetupError(f"no reference values for {rung} (variant {g.variant_of(seed)})")
        path = workdir / f"{rung}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        out[rung] = (path, expect)
    return out


# ---------------------------------------------------------------------------
# ops


class Runner:
    """Runs the ops of one workload and records their times and checks."""

    def __init__(self, workload, seed, trace, inputs, workdir):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = None
        self.child_rss_kb = 0
        self.steps = {}  # pass -> accepted descent steps, traced passes only
        self.spans = []
        self.starts = []  # provenance of every descent start
        self.rungs = [r for r, _ in g.RUNGS[workload]]

    def _subprocess(self, argv, traced, op):
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "probe.py"), "traced-cli", str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "hermlab.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if traced:
            self._add_spans(json.loads(spans_path.read_text()), op)
        return proc.returncode, out_path.read_text(encoding="utf-8"), seconds

    def _add_spans(self, spans, op):
        """Append one recorder's spans, renumbered so ids are unique in the run.

        Every recorder numbers its spans 0..k-1, so offsetting them by the
        spans already held keeps ids and parent links apart across passes.
        """
        base = len(self.spans)
        for sid, name, t0, t1, parent, _ in spans:
            self.spans.append((sid + base, name, t0, t1,
                               None if parent is None else parent + base, op))

    def _in_process(self, argv, op):
        from hermlab import cli

        out_path = self.workdir / "report.json"
        argv = [*argv, "--output", str(out_path)]
        if self.recorder is not None:
            self.recorder.op = op
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a benchmark crash
            code = f"exception {type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        if out_path.exists():
            out_path.unlink()
        return code, text, seconds

    def one_pass(self, index, traced):
        """Run one pass; returns a list of ops, each {rung: seconds}, error."""
        if self.workload == "cli-small":
            ops = []
            for rung in self.rungs:
                path, expect = self.inputs[rung]
                code, text, s = self._subprocess(
                    ["analyze", str(path), "--format", "json"], traced, index)
                ops.append(({rung: s}, check_analyze(code, text, expect)))
            return ops
        times, errors = {}, []
        if self.workload == "report-ladder":
            for rung in self.rungs:
                path, expect = self.inputs[rung]
                code, text, s = self._in_process(
                    ["analyze", str(path), "--format", "json"], index)
                times[rung] = s
                err = check_analyze(code, text, expect)
                if err:
                    errors.append(f"{rung}: {err}")
        else:
            # a traced pass repeats the starts of the untraced pass before it,
            # so the tracing overhead compares the same descents
            starts = g.descent_starts(self.seed, index // 2 if self.trace else index)
            for rung in self.rungs:
                path, _ = self.inputs[rung]
                times[rung] = 0.0
                for start in starts[rung]:
                    S0 = g.chart_start(g.DESCENT_N[rung], start)
                    self.starts.append({"pass": index, "rung": rung, "seed": start,
                                        "S0": [[[z.real, z.imag] for z in row] for row in S0]})
                    code, text, s = self._in_process(
                        ["optimize", str(path), "--objective", "torsion_functional",
                         "--perturb", str(g.PERTURB), "--seed", str(start),
                         "--max-iter", str(g.MAX_ITER),
                         "--format", "json"], index)
                    times[rung] += s
                    err, steps = check_descent(code, text, g.CRITICAL_F[rung])
                    if traced:
                        self.steps[index] = self.steps.get(index, 0) + steps
                    if err:
                        errors.append(f"{rung} start {start}: {err}")
        return [(times, "; ".join(errors) or None)]

    def run(self, seconds, after_pass):
        """Whole passes until ``seconds`` elapse; in a traced run odd passes are traced.

        ``after_pass`` is called between passes, outside the timed ops.
        """
        records = []  # (pass, traced, op seconds, {rung: seconds}, error)
        t_start = perf_counter()
        index = 0
        min_passes = 2 if self.trace else 1  # a traced run needs one traced pass
        while index < min_passes or perf_counter() - t_start < seconds:
            traced = bool(self.trace and index % 2)
            if traced and self.workload != "cli-small":
                self.recorder = tracing.SpanRecorder()
                self.recorder.install()
            try:
                ops = self.one_pass(index, traced)
            finally:
                if self.recorder is not None:
                    self.recorder.uninstall()
                    self._add_spans(self.recorder.spans, index)
                    self.recorder = None
            for times, err in ops:
                records.append((index, traced, sum(times.values()), times, err))
            after_pass()
            index += 1
        return records


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile, count): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is given.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def rung_medians(records):
    """{rung: median over passes of the rung's seconds within a pass}."""
    per_pass = {}
    for index, _, _, times, _ in records:
        for rung, s in times.items():
            per_pass.setdefault(rung, {}).setdefault(index, 0.0)
            per_pass[rung][index] += s
    return {rung: statistics.median(passes.values()) for rung, passes in per_pass.items()}


def end_to_end(runner, records, setup):
    """The gated metrics of BENCHMARK.json and the readable report lines."""
    ops = [r[2] for r in records]
    failed = sum(1 for r in records if r[4])
    rss_kb = runner.child_rss_kb if runner.workload == "cli-small" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    t, pct, n = tail(ops)
    lines = [f"  {k:<14} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines[0] += f"  (median of {len(setup)} fresh interpreters)"
    lines += [
        f"  {'op_tail_s':<14} {t:.6g} s  (p{pct:.1f} of {n} ops"
        + (", the maximum: fewer than 11 ops)" if n < 11 else ")"),
        f"  {'failed_frac':<14} {failed}/{len(ops)} = {failed / len(ops):.4g}",
    ]
    for rung, s in rung_medians(records).items():
        lines.append(f"  rung_s.{rung:<16} {s:.6g} s")
    return metrics, lines


def per_layer(runner, records, imports):
    traced = sorted({r[0] for r in records if r[1]})
    untraced_ops = [r[2] for r in records if not r[1]]
    traced_ops = [r[2] for r in records if r[1]]
    metrics = {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.hermlab_s": (imports["hermlab"], "s"),
    }
    layer, counts = tracing.layer_metrics(runner.spans, traced)
    metrics.update(layer)
    steps = sum(runner.steps.values())
    evals = counts["optimizer.linesearch_evals"]
    metrics["optimizer.iterations"] = (
        statistics.median_low(runner.steps.get(i, 0) for i in traced), "count")
    metrics["optimizer.linesearch_accept_ratio"] = (steps / evals if evals else 0.0, "ratio")
    # each traced op against the same op of the untraced pass just before it,
    # so slow drifts of the machine cancel out of the difference
    by_pass = {}
    for index, _, seconds, _, _ in records:
        by_pass.setdefault(index, []).append(seconds)
    diffs = [t - u for p in traced for u, t in zip(by_pass[p - 1], by_pass[p])]
    overhead = statistics.median(diffs)
    metrics["trace.overhead_s"] = (overhead, "s")
    reports = counts["cli.build_report"]
    lines = [f"  traced passes {len(traced)} (per-layer values are per pass, medians)",
             f"  {'span':<45} {'self_s':>10} {'calls':>8}"]
    for module, fns in tracing.TARGETS.items():
        names = [f"{module}.{fn}" for fn in fns]
        for name in names:
            lines.append(f"  {name:<45} {metrics[name + '.self_s'][0]:>10.4g} "
                         f"{metrics[name + '.calls'][0]:>8}")
        lines.append(f"  {'layer ' + module:<45} "
                     f"{sum(metrics[n + '.self_s'][0] for n in names):>10.4g} "
                     f"{sum(metrics[n + '.calls'][0] for n in names):>8}")
    lines += [
        f"  torsion_engine.analyze_per_report = {counts['torsion_engine.analyze']}/{reports} reports",
        f"  lie_hermitian.validate_per_report = {counts['lie_hermitian.validate']}/{reports} reports",
        f"  optimizer.linesearch_accept_ratio = {steps} accepted steps/{evals} line-search evals",
        f"  trace.overhead_s = {overhead:.4g} s (median over {len(diffs)} traced ops of traced"
        f" minus untraced; op p50 {statistics.median(traced_ops):.4g} s traced,"
        f" {statistics.median(untraced_ops):.4g} s untraced)",
        "  import.numpy_s / scipy_s / hermlab_s = "
        f"{imports['numpy']:.4g} / {imports['scipy']:.4g} / {imports['hermlab']:.4g} s",
    ]
    return metrics, lines


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import hermlab.cli
    except ImportError as exc:
        raise SetupError(f"cannot import hermlab from {SRC}: {exc}") from exc
    hermlab_file = hermlab_location(hermlab.__file__)
    if args.trace:
        tracing.resolve_targets()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        docs = g.documents(args.workload, args.seed)
        inputs = prepare_inputs(args.workload, args.seed, docs, workdir)
        runner = Runner(args.workload, args.seed, args.trace, inputs, workdir)
        # set-up is sampled between passes, so the samples span the whole run
        setup = []

        def sample_setup():
            if not args.trace:
                setup.extend(setup_samples(args.workload, args.seed, 1))

        records = runner.run(args.seconds, sample_setup)
        if args.trace:
            imports = import_samples()
        else:
            setup.extend(setup_samples(args.workload, args.seed,
                                       max(0, SETUP_SAMPLES - len(setup))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(hermlab_file)
    manifest = {
        "workload": args.workload, "seed": args.seed, "variant": g.variant_of(args.seed),
        "environment": env,
        "rungs": {rung: {"why": why, "sha256": g.doc_digest(docs[rung])}
                  for rung, why in g.RUNGS[args.workload]},
        "descent_starts": runner.starts,
        "setup_samples": setup,
        "ops": [{"pass": i, "traced": t, "seconds": s, "rungs": times, "error": err}
                for i, t, s, times, err in records],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"inputs-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    if args.trace:
        metrics, lines = per_layer(runner, records, imports)
        with open(WORK / f"spans-{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": runner.spans}, fh)
    else:
        metrics, lines = end_to_end(runner, records, setup)
    failed = [r for r in records if r[4]]
    print(f"workload {args.workload}  seed {args.seed} (variant {g.variant_of(args.seed)})  "
          f"trace {args.trace}  ops {len(records)}  passes {records[-1][0] + 1}")
    for rung, why in g.RUNGS[args.workload]:
        print(f"  rung {rung}: {why}")
    print("\n".join(lines))
    for r in failed[:5]:
        print(f"  FAILED pass {r[0]}: {r[4]}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, tracing.MissingTarget) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
