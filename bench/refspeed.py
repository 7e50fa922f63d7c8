"""Host speed, measured with a fixed reference computation.

On a shared virtual machine the speed of the CPU drifts by up to 2x, over
minutes and within single runs, and the drift moves every timing of a run
by about the same factor.  Set against a 0.25 bound, it would hide or
invent regressions.  The timed pass therefore runs one chunk of reference
work before the first check and after every check, and scales each check's
time by the chunks on either side of it.

A chunk times the host, not the library: it uses no `jetcalc` code, so no
change to the library can move it.  It builds a dict of tuple-keyed small
lists and strings and sorts it: the allocation, hashing and comparison of
small objects that dominate the library's own inner loops.  When the host
slowed down, instance times grew by the chunk time's growth to the power
0.86-1.12 (mean about 1.0); for integer-only elimination the power was
1.1-1.3, so the library slows more than such work and it was not used.

A timing scaled by `scale` reads as it would on a host where one chunk takes
REF_CHUNK_S seconds: the speed of the machine the baseline was taken on.
"""

from time import perf_counter

# one chunk's wall time on the baseline machine, in seconds
REF_CHUNK_S = 0.0036
REF_ENTRIES = 3000


def _churn(n):
    table = {}
    for i in range(n):
        table[(i * 7919) % 6007, i & 15] = [i, str(i)]
    return sorted(table.items())[::50]


REF_RESULT = _churn(REF_ENTRIES)


def chunk_s():
    """Wall time of one chunk of reference work."""
    t0 = perf_counter()
    result = _churn(REF_ENTRIES)
    elapsed = perf_counter() - t0
    if result != REF_RESULT:
        raise AssertionError("reference computation gave a different result")
    return elapsed


def scale(chunks):
    """Factor that turns wall time measured beside these chunk times into
    time on the baseline machine."""
    return REF_CHUNK_S * len(chunks) / sum(chunks)
