"""Benchmark of the prodcoh command line, one workload run per call.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-test

Run from the root of a checkout; prodcoh is imported from its src/.  Each
run starts one fresh client process (bench/client.py), a single closed-loop
caller that writes the workload's seeded inputs and then issues real
`prodcoh` commands through prodcoh.cli.main(argv) in process, one after
another, checking every answer.  In-process calls keep interpreter and
numpy start-up (0.1-0.3 s) from burying 15-40 ms requests; that start-up
is reported once, as setup_s: the median, over several fresh clients that
stop there, of the time from spawn until the first request can be issued.

Workloads (see workloads.py):
  complex-fp   cohomology --twist over F_65521 on Koszul point complexes of
               P1xP1 and P1xP2: assembled Cech route, dense mod-p elimination.
  split-batch  split-check on free sums over P1xP1, P1^3 and P2xP3: blockwise
               counting, strand propagation, safe region and splitter stages.
  complex-q    cohomology --twist --field q on the P1xP1 point and its ideal
               sheaf: the same assembly, with Fraction/Bareiss elimination.

Each request runs with prodcoh's process-lived caches emptied, as in a
fresh `prodcoh` process, and is timed on every measured pass.  Every time,
set-up included, is divided by a host-speed index measured next to it (see
hostspeed.py), and each request's time is its median over the passes.
With --trace 0 the last line of stdout holds the end-to-end metrics:
twists_per_s (twists per pass over the sum of the request times),
req_p50_ms and req_tail_ms (median and highest whole percentile with at
least ten of the workload's requests beyond it), peak_rss_mb (the client's
ru_maxrss) and setup_s.  The unnormalized times are in the record line.
With --trace 1 it holds the per-layer metrics of traced passes, in raw
seconds and counts, and the tracing overhead; every span is written to
bench/out/trace-<workload>-s<seed>.json.  The line before it is a record
of the environment, the seed, the commit and the workload's composition.

--self-test feeds the answer checker one corrupted real answer per
corruption kind and exits 0 only when every one is counted as failed.
"""

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("complex-fp", "complex-q", "split-batch")
SETUP_REPS = 7  # set-up-only clients per untraced run; setup_s is their median
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170
# One process, one thread: pin BLAS/OpenMP pools before numpy loads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def wait_ready(proc, deadline):
    """Block until the client prints its ready line; returns that moment."""
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError("client not ready in time")
        chunk = os.read(proc.stdout.fileno(), 64)
        if not chunk:
            raise BenchError("client exited during set-up (code %s)" % proc.wait())
        buf += chunk
    if buf != b"ready\n":
        raise BenchError("unexpected client output %r" % buf)
    return time.perf_counter()


def client(args, workdir, extra, procs):
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
                            env={**os.environ, **THREAD_ENV})
    procs.append(proc)
    return proc


def run_client(args, wdir, extra, procs, deadline):
    """Run one client to its end; returns its set-up time in seconds."""
    wdir.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = client(args, wdir, extra, procs)
    setup = wait_ready(proc, min(deadline, t0 + READY_TIMEOUT_S)) - t0
    proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError("client exited with code %d" % proc.returncode)
    return setup


def run(args, workdir, procs):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups, speeds = [], []
    for i in range(0 if args.trace else SETUP_REPS):
        # Set-up is interpreter start, imports and input generation: all of
        # its time scales with the kernel.
        before = hostspeed.sample()
        setups.append(run_client(args, workdir / str(i), ["--setup-only"], procs, deadline))
        speeds.append(hostspeed.index(before, hostspeed.sample()))
    run_client(args, workdir / "run", [], procs, deadline)
    with open(workdir / "run" / "result.json") as fh:
        result = json.load(fh)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(map(hostspeed.normalize, setups, speeds)), "unit": "s"}
    result["record"].update(seed=args.seed, git_commit=git_commit(),
                            setup_samples_s=setups, setup_speed_index=speeds,
                            failures=result["failures"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "prodcoh" / "__init__.py").is_file():
        print("error: no prodcoh sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    workdir = HERE / ".work" / ("%s-s%d-%d" % (args.workload or "self-test", args.seed,
                                               os.getpid()))
    procs = []
    try:
        if args.self_test:
            workdir.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "client.py"), "--self-test",
                   "--workdir", str(workdir)]
            return subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                                  timeout=RUN_TIMEOUT_S).returncode
        result = run(args, workdir, procs)
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    print(json.dumps({"record": result["record"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
