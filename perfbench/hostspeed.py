"""How fast the host runs Python right now, from a fixed probe.

On a shared host the interpreter's speed swings by up to 1.9x for stretches
of seconds to minutes, while neighbours load the cores the virtual CPUs run
on; a whole 30 s run can fall inside one slow stretch.  ``probe`` times a
fixed ~0.1 ms piece of pure-Python work of the kind stonework does (tuple
terms evaluated recursively over integer bit masks, a set, a string join).
Timed right next to a job, it slows with the host as the job does, so

    job time * REFERENCE_S / probe time

is the job's time at the reference speed: the host when nothing slows it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The probe's median time on the reference host (2 shared vCPUs, Python
# 3.11) between benchmark jobs, in stretches when neighbours did not slow it.
REFERENCE_S = 110e-6


def _tree(d: int):
    if d == 0:
        return ("v", 0)
    return ("&" if d % 2 else "|", _tree(d - 1), ("~", _tree(d - 1)))


_TREE = _tree(7)


def _eval(t, env) -> int:
    op = t[0]
    if op == "v":
        return env[t[1]]
    if op == "~":
        return ~_eval(t[1], env) & 255
    a, b = _eval(t[1], env), _eval(t[2], env)
    return a & b if op == "&" else a | b


def _work() -> str:
    env = {i: (i * 37) & 255 for i in range(8)}
    acc, seen = 0, set()
    for k in range(3):
        env[k] ^= 85
        acc ^= _eval(_TREE, env)
        seen.add((acc, k))
    return "".join(str(x) for x in sorted(seen))


def probe() -> float:
    """Seconds one run of the fixed work takes now.

    An untimed run first brings the work's code and data back into the
    caches, so that the time does not depend on how much of them the job
    before it evicted.
    """
    _work()
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def median_probe(n: int = 5) -> float:
    return statistics.median(probe() for _ in range(n))
