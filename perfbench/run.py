#!/usr/bin/env python3
"""Benchmark of lrmor's pipelines: end-to-end metrics, or per-layer ones.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fd-heat --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (wall time of one pass, model
set-up time, peak resident memory).  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, the
stage times of the untraced ones, and the tracing overhead; the spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.

Pass isolation: the parent imports lrmor from ``src/`` and runs one pass of
the workload at a tiny size as a warm-up.  Every timed pass runs in a fresh
``fork()`` of that parent, so each pass starts from the same interpreter and
heap state and inherits nothing from earlier passes.  The pass process
generates the model several times (``setup_s``), runs the timed pass, then
the correctness checks.  Passes run one at a time (closed loop) until the
next one would end past ``--seconds``.  BLAS is pinned to one thread.  The
last line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the correctness checks, ``metrics`` holds the metrics with
their units.
"""

import os

# one BLAS thread: numpy reads these when it loads, and fork() below needs
# a process without threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
ISOLATION = ("fork-per-pass after a tiny warm-up pass in the parent; "
             "set-up, pass and checks in the pass's process; closed loop, "
             "one pass at a time; 1 BLAS thread")

# untraced stage metrics; each belongs to one workload and reads 0 elsewhere
STAGES = {"lyap_s": "s", "care_s": "s", "bt_s": "s", "irka_s": "s",
          "factor_cols": "count", "train_s": "s", "rom_sweep_s": "s",
          "rom_order": "count", "sweep_s": "s"}
RATIOS = {"operators.solves_per_lu", "sgrid.lu_per_cell", "trace.coverage",
          "trace.overhead"}
MIN_COVERAGE = 0.9
SETUP_REPS = 9


def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name in STAGES:
        return STAGES[name]
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def pin_layout():
    """Re-execute this script once with a fixed hash seed and without
    address-space randomization, so that the memory layout, and with it
    the peak resident memory, repeats from run to run.  Returns how the
    process is pinned.  Both settings act on this process only."""
    no_randomize = 0x0040000  # ADDR_NO_RANDOMIZE of personality(2)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.argtypes = [ctypes.c_ulong]
        libc.personality.restype = ctypes.c_int
        persona = libc.personality(0xFFFFFFFF)  # query only
    except (OSError, AttributeError):
        return "not pinned: no personality()"
    pinned = persona != -1 and persona & no_randomize \
        and os.environ.get("PYTHONHASHSEED") == "0"
    if pinned:
        return "PYTHONHASHSEED=0, ASLR off"
    if os.environ.get("PERFBENCH_PINNED") or persona == -1 \
            or libc.personality(persona | no_randomize) == -1:
        return "not pinned"
    os.environ.update(PYTHONHASHSEED="0", PERFBENCH_PINNED="1")
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])


def load_package():
    """Import lrmor from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "lrmor" / "__init__.py").is_file():
        raise ImportError("no lrmor sources in src/lrmor next to perfbench/")
    sys.path.insert(0, str(SRC))
    import lrmor
    if Path(lrmor.__file__).resolve().parent != (SRC / "lrmor").resolve():
        raise ImportError(f"lrmor was imported from {lrmor.__file__}")
    return lrmor


# -- machine record ----------------------------------------------------------

def git_commit():
    """Commit of the checkout from .git, or None outside a git tree."""
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


def machine_record(args, layout):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "lrmor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": vendor,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "isolation": ISOLATION, "layout": layout}


# -- passes ------------------------------------------------------------------

def in_child(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result."""
    tasks = "/proc/self/task"
    if os.path.isdir(tasks) and len(os.listdir(tasks)) != 1:
        raise RuntimeError("refusing to fork a process that runs threads")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(fn()).encode())
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    finished = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        finished = True
    finally:
        if not finished:  # interrupted: do not leave the pass running
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass process failed (wait status {status})")
    return json.loads(data)


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, package, spec, trace):
        self.package = package
        self.spec = spec
        self.trace = trace

    def one_pass(self, traced):
        """Body of a pass process: set up, run, time, trace, check.

        The model is generated SETUP_REPS times first, so that set-up is
        sampled across the whole run like the passes are, and the parent
        does no model work between forks.
        """
        import tracing
        spec = self.spec
        if traced:
            tracer = tracing.Tracer()
            tracer.install(self.package)
        setup_times = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            model = spec.setup()
            setup_times.append(perf_counter() - start)
        record = {"traced": traced, "setup_times": setup_times}
        if traced:
            setup_spans = list(tracer.spans)
            del tracer.spans[:]
        stages = {}

        @contextmanager
        def stage(name):
            start = perf_counter()
            yield
            stages[name] = perf_counter() - start

        start = perf_counter()
        out = spec.run(model, stage)
        wall = perf_counter() - start
        record["wall_s"] = wall
        record["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(stages)
        record.update(spec.summary(out))
        if traced:
            spans = list(tracer.spans)
            record["layers"] = tracing.layer_metrics(spans, wall, setup_spans)
            record["unwrapped"] = tracer.unwrapped_bindings()
            record["spans"] = [[n, s - start, e - start, p, i]
                               for n, s, e, p, i in spans]
            record["setup_spans"] = [[n, s, e, p, i]
                                     for n, s, e, p, i in setup_spans]
        record["checks"] = [[name, bool(ok), detail]
                            for name, ok, detail in spec.checks(model, out)]
        return record

    def measure(self, seconds):
        """Closed loop of isolated passes until the next would end past
        ``seconds``; with tracing, untraced and traced passes alternate."""
        kinds = (False, True) if self.trace else (False,)
        passes = []
        begin = perf_counter()
        longest = 0.0
        while True:
            start = perf_counter()
            traced = kinds[len(passes) % len(kinds)]
            passes.append(in_child(lambda: self.one_pass(traced)))
            longest = max(longest, perf_counter() - start)
            if len(passes) >= len(kinds) and \
                    perf_counter() - begin + longest > seconds:
                return passes


def median(values, unit):
    """Median; for counts the lower median, which keeps integers."""
    values = list(values)
    return (statistics.median_low if unit == "count"
            else statistics.median)(values)


def median_of(passes, key, unit="s"):
    return median((p.get(key, 0) for p in passes), unit)


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(args, machine, passes):
    """Metrics of the run, failures and the human-readable lines."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    lines = [f"# machine {json.dumps(machine)}",
             f"# {args.workload}: {len(plain)} untraced and {len(traced)} "
             f"traced passes, seed {args.seed}"]
    stages = {name: metric(median_of(plain, name, unit), unit)
              for name, unit in STAGES.items()}
    if args.trace:
        layers = {name: metric(median((p["layers"][name] for p in traced),
                                      unit_of(name)), unit_of(name))
                  for name in traced[0]["layers"]}
        layers["trace.overhead"] = metric(
            median_of(traced, "wall_s") / median_of(plain, "wall_s"), "ratio")
        metrics = dict(stages, **layers)
    else:
        metrics = {"wall_s": metric(median_of(plain, "wall_s"), "s"),
                   "setup_s": metric(statistics.median(
                       t for p in plain for t in p["setup_times"]), "s"),
                   "peak_rss_mb": metric(median_of(plain, "peak_rss_mb"),
                                         "MB")}
        shown = dict(metrics, **{k: v for k, v in stages.items()
                                 if any(k in p for p in plain)})
        for name, m in shown.items():
            if name == "setup_s":
                how = (f"median of {SETUP_REPS} model generations before "
                       f"each pass")
            else:
                values = [p[name] for p in plain]
                how = (f"median of {len(values)} passes, range "
                       f"{min(values):.6g} to {max(values):.6g}")
            lines.append(f"{name:<14} {m['value']:>14.6g} {m['unit']:<6} "
                         f"{how}")
    lines.append(f"fail_frac      {len(failed) / max(len(checks), 1):>14.6g}"
                 f" ratio  {len(failed)} of {len(checks)} checks failed")
    for pass_id, p in enumerate(passes):
        for name, ok, detail in p["checks"]:
            if pass_id == 0 or not ok:
                lines.append(f"# pass {pass_id} check {name}: "
                             f"{'ok' if ok else 'FAILED'} ({detail})")
    result = {"correct": not failed and bool(checks),
              "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    return lines, result


def check_trace(traced):
    """Reasons the traced passes cannot be trusted, if any."""
    problems = []
    for p in traced:
        if p["unwrapped"]:
            problems.append("names still bound to untraced functions: "
                            + ", ".join(p["unwrapped"]))
        coverage = p["layers"]["trace.coverage"]
        if coverage < MIN_COVERAGE:
            problems.append(f"trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
    return problems


def write_trace(args, machine, passes):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans = []
    for pass_id, p in enumerate(passes):
        if p["traced"]:
            spans += [[n, s, e, par, f"setup-{pass_id}", i]
                      for n, s, e, par, i in p["setup_spans"]]
            spans += [[n, s, e, par, pass_id, i]
                      for n, s, e, par, i in p["spans"]]
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"machine": machine,
                   "fields": ["name", "start_s", "end_s", "parent",
                              "pass", "info"],
                   "spans": spans}, fh)
    return path


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="grid <= 10 models, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    layout = pin_layout()
    try:
        package = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot load lrmor: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    args = parse_args(argv, sorted(WORKLOADS))
    machine = machine_record(args, layout)
    bench = Bench(package, WORKLOADS[args.workload](args.seed, args.tiny),
                  args.trace)
    Bench(package, WORKLOADS[args.workload](args.seed, tiny=True),
          False).one_pass(traced=False)
    passes = bench.measure(args.seconds)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        path = write_trace(args, machine, passes)
        print(f"# spans written to {path.relative_to(ROOT)}")
        problems = check_trace(traced)
        if problems:
            for problem in problems:
                print(f"perfbench: {problem}", file=sys.stderr)
            return 1
    lines, result = report(args, machine, passes)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
