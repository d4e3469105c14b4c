"""nspyr benchmark: one closed-loop workload per run, one caller.

Usage, from the root of a checkout::

    python3 bench/run.py --workload large_curve --seed 1 --seconds 25 --trace 0

Set-up (imports, seeded inputs, filter warm-up) is timed as ``setup_s``;
four further set-ups run in child processes and the median of the five is
reported.  Then whole decks of operations run back to back until
``--seconds`` have passed, and at least two decks; each operation is
timed on its own and checked outside the timed region.  ``--trace 1``
instead runs a fixed number of decks, alternating untraced and traced, and
reports per-layer metrics and the tracing overhead.  ``--smoke`` shrinks the inputs and runs as few
decks as it can, to show the harness still works; it measures nothing
worth comparing.

The last line of standard output is the result object; the line before it
holds the environment and run details.  The library is imported from
``src/`` of the checkout; without it the run fails before printing one.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# Peak RSS is read after this many decks, a fixed amount of work: the
# filter cache grows with every new tension, so a later reading would grow
# with the op count a faster program reaches.
RSS_DECKS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for setup_s)")
    return ap.parse_args(argv)


def load_library():
    """Import nspyr from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nspyr" / "__init__.py").is_file():
        raise SystemExit(f"error: no nspyr sources under {src}")
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nspyr

    if Path(nspyr.__file__).resolve().parent != src / "nspyr":
        raise SystemExit(f"error: imported nspyr from {nspyr.__file__}")
    import workloads

    return workloads


def set_up(args, workdir, t_start):
    """Import, generate inputs and warm caches; returns (workload, seconds)."""
    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    wl.warm()
    return wl, time.perf_counter() - t_start


def child_setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Per-op times, failures and size counts of one phase."""

    def __init__(self):
        self.op_s = []
        self.decks = 0
        self.failed = 0
        self.sizes = {"stored": 0, "samples": 0, "file_bytes": 0}

    def run_deck(self, wl, deck):
        clock = time.perf_counter
        for op in deck:
            start = clock()
            elapsed = None
            try:
                out = wl.run(op)
                elapsed = clock() - start
                ok, sizes = wl.check(op, out)
            except Exception:  # a failing op or gate is counted; the run goes on
                if elapsed is None:
                    elapsed = clock() - start
                ok, sizes = False, {}
                if self.failed < 3:
                    traceback.print_exc(file=sys.stderr)
            self.op_s.append(elapsed)
            if not ok:
                self.failed += 1
                if self.failed <= 3:
                    print(f"gate failed: {wl.name} op {len(self.op_s)}",
                          file=sys.stderr)
            for key, value in sizes.items():
                self.sizes[key] += value
        self.decks += 1


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(wl, tally, rss, setup_samples):
    ms = sorted(1e3 * t for t in tally.op_s)
    tail, beyond = nearest_rank(ms, wl.tail_percentile)
    attempted = len(ms)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (attempted / sum(tally.op_s), "1/s"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": ((attempted - tally.failed) / attempted, "ratio"),
    }
    detail = {"ops": attempted, "tail_percentile": wl.tail_percentile,
              "tail_samples_beyond": beyond,
              "op_ms_percentiles": {p: nearest_rank(ms, p)[0]
                                    for p in (10, 25, 50, 75, 90, 95, 99)},
              "setup_samples_s": setup_samples}
    return metrics, detail


def traced(wl, decks):
    """Alternate untraced and traced decks; per-layer metrics of the latter."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced_tally = Tally(), Tally()
    for _ in range(decks):
        plain.run_deck(wl, wl.deck())
        tracer.install()
        try:
            traced_tally.run_deck(wl, wl.deck())
        finally:
            tracer.uninstall()
    agg = tracer.aggregate()
    counts = tracer.counts
    ops = len(traced_tally.op_s)

    def calls(label):
        return agg[label]["calls"] if label in agg else 0

    def self_s(*labels):
        return sum(agg[label]["self_s"] for label in labels if label in agg)

    def ratio(num, den):
        return num / den if den else 0.0

    untraced_rate = len(plain.op_s) / sum(plain.op_s)
    traced_rate = ops / sum(traced_tally.op_s)
    sizes = traced_tally.sizes
    solves = calls("decimation.solve_gamma")
    metrics = {
        "sequences.convolve.calls": (calls("sequences.convolve"), "count"),
        "sequences.convolve.self_s": (self_s("sequences.convolve"), "s"),
        "sequences.convolve.flops": (counts["sequences.convolve.flops"],
                                     "flop"),
        "sequences.convolve.bytes": (counts["sequences.convolve.bytes"], "B"),
        "sequences.add.self_s": (self_s("sequences.add"), "s"),
        "sequences.resample.self_s": (
            self_s("sequences.upsample2", "sequences.downsample2"), "s"),
        "subdivision.refine.calls": (calls("subdivision.refine"), "count"),
        "subdivision.refine.self_s": (self_s("subdivision.refine"), "s"),
        "subdivision.mask_at_level.calls": (
            calls("subdivision.mask_at_level"), "count"),
        "subdivision.mask_at_level.self_s": (
            self_s("subdivision.mask_at_level"), "s"),
        "decimation.decimate.calls": (calls("decimation.decimate"), "count"),
        "decimation.decimate.self_s": (self_s("decimation.decimate"), "s"),
        "decimation.solve_gamma.calls": (solves, "count"),
        "decimation.solve_gamma.self_s": (
            self_s("decimation.solve_gamma"), "s"),
        "decimation.solve_gamma.hit_ratio": (
            ratio(counts["decimation.solve_gamma.hits"], solves), "ratio"),
        "decimation.zeta_taps": (
            ratio(counts["decimation.zeta_taps_total"], solves), "count"),
        "pyramid.analyze.self_s": (self_s("pyramid.analyze"), "s"),
        "pyramid.analyze.calls_per_op": (
            ratio(calls("pyramid.analyze"), ops), "count"),
        "pyramid.synthesize.self_s": (self_s("pyramid.synthesize"), "s"),
        "pyramid.to_json.self_s": (self_s("pyramid.to_json"), "s"),
        "pyramid.from_json.self_s": (self_s("pyramid.from_json"), "s"),
        "pyramid.json_bytes": (ratio(counts["pyramid.json_bytes_total"],
                                     calls("pyramid.to_json")), "B"),
        "geometry.circularity_report.self_s": (
            self_s("geometry.circularity_report"), "s"),
        "geometry.anomaly_localize.self_s": (
            self_s("geometry.anomaly_localize"), "s"),
        "geometry.curve_csv.self_s": (
            self_s("geometry.read_curve_csv", "geometry.write_curve_csv"), "s"),
        "cli.decompose.self_s": (self_s("cli.decompose"), "s"),
        "cli.reconstruct.self_s": (self_s("cli.reconstruct"), "s"),
        "coeff_storage_ratio": (ratio(sizes["stored"], sizes["samples"]),
                                "ratio"),
        "file_bytes_per_sample": (ratio(sizes["file_bytes"],
                                        sizes["samples"]), "B"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
    }
    detail = {"decks_per_phase": decks, "traced_ops": ops,
              "spans": len(tracer.labels),
              "computed": ["sequences.convolve.flops",
                           "sequences.convolve.bytes"]}
    merged = Tally()
    merged.op_s = plain.op_s + traced_tally.op_s
    merged.failed = plain.failed + traced_tally.failed
    return metrics, detail, merged


def timed_loop(wl, seconds):
    """Whole decks until ``seconds`` pass; also peak RSS after RSS_DECKS."""
    tally = Tally()
    end = time.perf_counter() + seconds
    rss = None
    while True:
        tally.run_deck(wl, wl.deck())
        if tally.decks == RSS_DECKS:
            rss = peak_rss_mb()
        if time.perf_counter() >= end and rss is not None:
            return tally, rss


# ---------------------------------------------------------------------------
# environment


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info():
    """Vendor and thread count of the BLAS numpy and scipy loaded.

    Threads are read from the loaded OpenBLAS libraries and left as the
    user would have them.
    """
    import ctypes

    import numpy
    import scipy

    out = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[name] = {"vendor": blas.get("name"),
                         "version": blas.get("version"), "threads": None}
        except (KeyError, TypeError, AttributeError):
            out[name] = {"vendor": None, "version": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    for path in libs:
        owner = "numpy" if "numpy" in path else "scipy" if "scipy" in path else None
        if owner is None:
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[owner]["threads"] = int(fn())
                break
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def main(argv=None, t_start=None):
    args = parse_args(argv)
    t_start = _T_START if t_start is None else t_start
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        wl, setup_s = set_up(args, workdir, t_start)
        if args.setup_only:
            print(repr(setup_s))
            return None
        if args.trace:
            decks = 1 if args.smoke else wl.trace_decks
            metrics, detail, tally = traced(wl, decks)
        else:
            tally, rss = timed_loop(wl, 0.0 if args.smoke else args.seconds)
            setups = [setup_s]
            if not args.smoke:
                setups += [child_setup_seconds(args)
                           for _ in range(SETUP_REPEATS - 1)]
            metrics, detail = end_to_end(wl, tally, rss, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(tally.op_s)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, env=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
