"""One benchmark client: a single closed-loop caller of the prodcoh CLI.

Run by run.py as a fresh process per workload run.  It imports prodcoh
from the checkout's src/, writes the workload's seeded inputs, prints
"ready" on stdout, and then issues the requests one after another through
prodcoh.cli.main(argv), in process, pass after pass over the same request
list until --seconds have gone.  Before every request the caches that
prodcoh keeps for the life of a process are emptied, so that each request
pays what one `prodcoh` command in a fresh process pays, start-up aside.
The first pass is a warm-up that faults in memory; it is checked but not
measured.  The host-speed kernel is timed between requests
(hostspeed.py), and each measured request time is normalized by the index
from the kernel samples on either side of it, so that the reported times do
not follow the host's speed drift.  Every answer is checked against its reference and against the
warm-up pass byte for byte; a wrong answer, an unexpected exit code or an
exception counts as a failed request, and nothing is dropped or retried.

With --trace 1 the warm-up pass is traced and the measured passes
alternate untraced and traced.  The per-layer metrics are the mean over the
measured traced passes; the throughput of the traced passes against the
untraced ones is the tracing overhead.

The result goes to <workdir>/result.json.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_MEASURED = 3  # measured passes after the warm-up pass, at least


def import_prodcoh():
    sys.path.insert(0, str(SRC))
    import prodcoh

    if Path(prodcoh.__file__).resolve().parent != SRC / "prodcoh":
        raise ImportError("prodcoh imported from %s, not %s" % (prodcoh.__file__, SRC))


def reset_caches():
    """Empty the caches that outlive a command: the blockwise route's
    pattern profiles (cech._PATTERN_CACHE)."""
    from prodcoh import cech

    cache = getattr(cech, "_PATTERN_CACHE", None)
    if cache is not None:
        cache.clear()


def issue(cli, req, tracer=None):
    """Run one command as a fresh process would, caches empty; returns
    (seconds, exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    reset_caches()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(req.argv)
            else:
                code = tracer.call("request", cli.main, req.argv)
    except Exception as exc:  # counted as a failed request, never retried
        code = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def measure(wl, seconds, trace):
    """Run the warm-up pass and then measured passes for about `seconds`,
    at least MIN_MEASURED of them.  With trace on, the warm-up pass is
    traced and the measured passes alternate untraced and traced, in pairs."""
    from prodcoh import cli

    import tracing
    from workloads import check

    first = None
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        # Start no pass that would likely end after `seconds`, once the
        # minimum is measured.
        ends = time.perf_counter() - start + (passes[-1]["time"] if passes else 0.0)
        k = len(passes)
        if k > MIN_MEASURED and not (trace and k % 2 == 0) and ends > seconds:
            break
        tracer = tracing.Tracer() if trace and k % 2 == 0 else None
        if tracer is not None:
            tracing.install(tracer)
        latencies, outputs, speed = [], [], [hostspeed.sample()]
        try:
            for i, req in enumerate(wl.requests):
                if tracer is not None:
                    tracer.request = i
                dt, code, out, err = issue(cli, req, tracer)
                speed.append(hostspeed.sample())
                latencies.append(dt)
                outputs.append((code, out, err))
        finally:
            if tracer is not None:
                tracer.unpatch()
        for i, (req, (code, out, err)) in enumerate(zip(wl.requests, outputs)):
            reason = check(req, code, out)
            if reason is None and first is not None and first[i][:2] != (code, out):
                reason = "output differs from the warm-up pass"
            if reason is not None:
                failures.append("pass %d request %d %s: %s %s"
                                % (k, i, " ".join(req.argv), reason, err[-200:]))
        first = first or outputs
        passes.append({
            "role": "warmup" if k == 0 else "traced" if tracer else "plain",
            "latencies": latencies,
            "time": sum(latencies),
            "speed": [hostspeed.index(a, b) for a, b in zip(speed, speed[1:])],
            "tracer": tracer,
        })
    return passes, failures


def tail_percentile(n_requests):
    """Highest whole percentile with at least ten requests beyond it."""
    return int(100 - 1000 / n_requests)


def request_times(wl, passes, role, normalize=True):
    """Each request's median time over the passes of one role, every time
    normalized by its host-speed index unless normalize is False."""
    runs = [[hostspeed.normalize(t, s if normalize else 1.0, r.cpu_share)
             for t, s, r in zip(p["latencies"], p["speed"], wl.requests)]
            for p in passes if p["role"] == role]
    return [statistics.median(col) for col in zip(*runs)]


def timing_metrics(twists, times):
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        tail_percentile(len(times)) - 1]
    return {
        "twists_per_s": {"value": twists / sum(times), "unit": "1/s"},
        "req_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "req_tail_ms": {"value": tail * 1e3, "unit": "ms"},
    }


def summarize(wl, passes, trace):
    """End-to-end metrics of the untraced measured passes, or, after a
    traced run, the per-layer metrics and the tracing overhead."""
    import tracing

    plain = request_times(wl, passes, "plain")
    if trace:
        metrics = tracing.layer_metrics([p["tracer"] for p in passes if p["role"] == "traced"])
        metrics["trace.twists_per_s_ratio"] = {
            "value": sum(plain) / sum(request_times(wl, passes, "traced")), "unit": "ratio"}
        return metrics
    metrics = timing_metrics(sum(r.twists for r in wl.requests), plain)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Gate self-test: one corrupted answer per kind must be counted as failed.


def _corrupt_cell(out):
    obj = json.loads(out)
    obj["h"][-1] += 1
    return json.dumps(obj)


def _corrupt_mult(out):
    head, _, body = out.partition("{")
    obj = json.loads("{" + body)
    obj["summands"][0]["mult"] += 1
    return head + json.dumps(obj)


def _corrupt_verdict(out):
    return out.replace('"verdict": "nonsplit"', '"verdict": "split"')


def self_test(workdir):
    """Feed the checker one corrupted real answer per corruption kind and
    report each workload's fail ratio; True when every corruption counted."""
    from prodcoh import cli

    import workloads

    corruptions = {
        "complex-fp": [("flipped cell", None, _corrupt_cell)],
        "complex-q": [("flipped cell", None, _corrupt_cell)],
        "split-batch": [
            ("wrong multiplicity", "split", _corrupt_mult),
            ("wrong verdict", "nonsplit", _corrupt_verdict),
        ],
    }
    ok = True
    for name, plan in corruptions.items():
        wdir = os.path.join(workdir, name)
        os.makedirs(wdir)
        wl = workloads.build(name, 0, wdir)
        attempted = failed = 0
        for label, verdict, corrupt in plan:
            # verdict None picks a cohomology request, which has none.
            req = next(r for r in wl.requests if r.expect.get("verdict") == verdict)
            _, code, out, _ = issue(cli, req)
            clean = workloads.check(req, code, out)
            bad = workloads.check(req, code, corrupt(out))
            attempted += 2
            failed += (clean is not None) + (bad is not None)
            ok &= clean is None and bad is not None
            print("%s: %s -> %s" % (name, label, bad), file=sys.stderr)
        ratio = failed / attempted
        print(json.dumps({"workload": name, "attempted": attempted, "failed": failed,
                          "fail_ratio": ratio}))
        ok &= failed == len(plan)
    return ok


def write_trace(args, passes, result):
    """Every span and counter of the traced passes, as one JSON file."""
    names = {}
    traced = [(k, p["tracer"]) for k, p in enumerate(passes) if p["tracer"]]
    tables = [t.span_table(names) for _, t in traced]
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    with open(out / ("trace-%s-s%d.json" % (args.workload, args.seed)), "w") as fh:
        json.dump({
            "record": result["record"],
            "metrics": result["metrics"],
            "span_names": sorted(names, key=names.get),
            "span_fields": ["name", "start_s", "end_s", "parent", "request"],
            "passes": [{"pass": k, "spans": tab, "counters": dict(t.counters)}
                       for tab, (k, t) in zip(tables, traced)],
        }, fh)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    import_prodcoh()
    if args.self_test:
        return 0 if self_test(args.workdir) else 1

    import workloads

    wl = workloads.build(args.workload, args.seed, args.workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    passes, failures = measure(wl, args.seconds, args.trace)
    result = {
        "attempted": len(passes) * len(wl.requests),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": summarize(wl, passes, args.trace),
        "record": {
            "environment": environment(),
            "workload": wl.name,
            "composition": wl.composition,
            "requests_per_pass": len(wl.requests),
            "passes": [p["role"] for p in passes],
            "pass_times_s": [round(p["time"], 4) for p in passes],
            "pass_speed_index": [round(statistics.median(p["speed"]), 4) for p in passes],
            "raw": {k: round(v["value"], 4) for k, v in timing_metrics(
                sum(r.twists for r in wl.requests),
                request_times(wl, passes, "plain", normalize=False)).items()},
            "samples_per_request": sum(p["role"] == "plain" for p in passes),
            "tail_percentile": tail_percentile(len(wl.requests)),
        },
    }
    if args.trace:
        write_trace(args, passes, result)
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
