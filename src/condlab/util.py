"""Seeding, reductions, exact float text, and optional process-level parallelism."""

import math

import numpy as np

# child_rng streams under a master seed, one per consumer of random draws, so
# that no two share a stream; fields are the nodes field_seed(seed, r)
STREAM_MSD_WALKS = 1
STREAM_DECAY_WALKS = 2
STREAM_CONTRACT_WINDOWS = 3
STREAM_SIMULATE_WALK = 9


def float_text(x):
    """x in shortest round-trip form, a trailing .0 dropped: 50, 0.25, 0.7071067811865476."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def child_rng(master_seed, *path):
    """Independent generator for a node of the seed tree.

    The path is a tuple of small ints (experiment id, realization index,
    walk index, ...).  The same (seed, path) always yields the same stream,
    no matter in which order or on which worker it is drawn.
    """
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in path)))


def field_seed(master_seed, index):
    """Integer seed of field realization index under a master seed.

    Field r of master seed s is this one node in every experiment and
    command, so runs on the same (law, d, n, seed) see the same fields.
    """
    return int(np.random.SeedSequence((int(master_seed), int(index))).generate_state(1)[0])


def field_groups(realizations, rows, cap, workers):
    """Consecutive ranges of range(realizations) for lockstep groups of fields.

    Each group holds at most cap // rows fields, and at least one, so its
    stacked rows stay within cap unless one field alone has more; there are
    at least as many groups as workers, up to one field each.
    """
    count = max(-(-realizations // max(1, cap // rows)), min(workers, realizations))
    bounds = [realizations * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def mean_and_stderr(samples, axis=0):
    """Sample mean and standard error of the mean along an axis."""
    arr = np.asarray(samples, dtype=float)
    k = arr.shape[axis]
    mean = arr.mean(axis=axis)
    if k < 2:
        return mean, np.zeros_like(mean)
    sd = arr.std(axis=axis, ddof=1)
    return mean, sd / math.sqrt(k)


def parallel_map(fn, items, workers=1):
    """Map fn over items, optionally on a process pool.

    Results come back in input order.  Each item must be picklable when
    workers > 1; with workers <= 1 this is a plain loop, which keeps
    tracebacks readable during debugging.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: concurrent.futures.process costs every CLI start 20-35 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
