"""Host-speed index: how fast the host runs a fixed kernel right now.

On a shared host the processor's speed drifts: on the 2-vCPU VM this
benchmark was tuned on, compute-bound Python runs up to 1.5x slower, for
stretches from under a second to minutes, in wall time and CPU time alike.  Run-to-run
spreads of raw request times were 0.2-0.4 of their median, wider than any
regression bound the benchmark could set.

So the benchmark times this kernel just before and just after every timed
stretch (a request, a client's set-up).  The kernel is the benchmark's own
fixed code, independent of prodcoh: integer Bareiss elimination and dict
updates in plain Python, and a small mod-p elimination in numpy.  The
stretch's index is the faster of the two kernel times divided by REF_S;
its time divided by the index is its time on a host where the kernel takes
REF_S.  A change to prodcoh moves the normalized times as it moves the raw
ones, while a change in host speed moves the kernel too and cancels.  The
state can flip within a pass, so the index is taken next to each request
rather than once per run.

Work bound by memory traffic slows less than the kernel in the slow state,
so each request states the share of its time that scales with the kernel
(Request.cpu_share, fitted on runs that straddled both states); the rest
of its time is taken as unaffected.
"""

import time

import numpy as np

REF_S = 0.009  # kernel time that defines index 1.0

_P = 65521


def _sparse_matrix(nrows, ncols, per_row):
    """A fixed matrix mod _P with per_row entries in each row, drawn by an
    LCG (numpy.random would add its own memory to the client's peak RSS)."""
    a = np.zeros((nrows, ncols), dtype=np.int64)
    x = 7
    for i in range(nrows):
        for _ in range(per_row):
            x = (x * 1103515245 + 12345) % 2147483648
            a[i, x % ncols] = x % (_P - 1) + 1
    return a


_A = _sparse_matrix(160, 200, 4)


def _python_part():
    n, x, m = 16, 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 19 - 9)
        m.append(row)
    prev, r = 1, 0
    for c in range(n):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n):
            mic, mrc = m[i][c], m[r][c]
            for j in range(c + 1, n):
                m[i][j] = (mrc * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    d = {}
    for i in range(8000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    return r + len(d)


def _numpy_part():
    a = _A.copy()
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, _P) % _P
        below = a[r + 1:, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            a[r + 1 + hit] = (a[r + 1 + hit] - np.outer(below[hit], a[r])) % _P
        r += 1
    return r


def sample():
    """Seconds the kernel takes once."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


def index(before, after):
    """Host-speed index of a timed stretch, from kernel samples taken just
    before and just after it.  An interruption can only slow a sample, so
    the faster one is the better estimate of the host's speed."""
    return min(before, after) / REF_S


def normalize(seconds, speed, cpu_share=1.0):
    """seconds measured at host-speed index speed, as taken at index 1, for
    work whose share cpu_share of time scales with the kernel."""
    return seconds / (cpu_share * speed + 1.0 - cpu_share)
