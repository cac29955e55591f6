"""A tour of the built-in workload generators.

Each generator produces a deterministic event stream against the same
small four-segment layout.  This script aggregates every trace without
any leveling and shows where the writes land, which is exactly the wear
a memory with no leveling would accumulate.
"""

import numpy as np

from nvmwear import SimConfig, gen_workload, make_layout, replay

WRITES = 50000
BAR = 40

layout = make_layout()
baseline = SimConfig(enable_coarse=False, enable_fine=False)

for kind in ("hotspot", "stream", "queue", "deepstack"):
    trace = gen_workload(kind, WRITES, layout, seed=1)
    result = replay(trace, baseline)
    print("== %s: %d events, %d writes" % (kind, trace.n_events,
                                           trace.n_writes))
    total = result.wear.sum()
    for seg in layout.segments:
        counts = result.wear[result.space.region_slices(seg.name)[0]]
        share = counts.sum() / total
        bar = "#" * int(round(BAR * share))
        print("   %-6s %6.1f%%  %s" % (seg.name, 100 * share, bar))
    hot = np.sort(result.wear)[::-1][:5]
    mean = result.wear[result.wear > 0].mean()
    print("   hottest lines: %s  (mean over touched lines %.1f)"
          % (", ".join(str(int(c)) for c in hot), mean))
    print()

print("The hotspot and deepstack kinds concentrate writes on a handful")
print("of lines; stream and queue spread them by construction.  The")
print("concentrated kinds are the ones the levelers exist for.")
