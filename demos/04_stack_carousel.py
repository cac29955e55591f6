"""Fine-grained stack leveling: the valid window rides a carousel.

Stacks rewrite the same few cache lines next to the stack pointer, far
below page granularity, so page remapping cannot help.  The fine
leveler slides the valid stack window down one step at a time through a
shadow region, wrapping back after a full region's worth of steps.
Over whole cycles every line in the region hosts the hot window equally
often.
"""

from nvmwear import (SimConfig, SpUpdateEvent, Trace, WriteEvent,
                     achieved_endurance, make_layout, replay)

layout = make_layout()
stack = layout.segment("stack")
sp = stack.end - 4096

# constant call depth, writes clustered on the lines nearest the pointer
events = [SpUpdateEvent(sp)]
events.extend(WriteEvent(sp + 64 * (i % 8)) for i in range(800000))
trace = Trace.from_events(layout, events)

runs = {}
for label, fine in (("page remapping only", False), ("with stack steps",
                                                     True)):
    result = replay(trace, SimConfig(sample_interval_n=999,
                                     remap_threshold_t=64,
                                     enable_fine=fine))
    runs[label] = result

print("relocations: %d, wraparounds: %d, copy lines: %d (%.1f%% overhead)"
      % (runs["with stack steps"].totals["relocations"],
         runs["with stack steps"].totals["wraps"],
         runs["with stack steps"].totals["stack_copy_lines"],
         100 * runs["with stack steps"].totals["stack_copy_lines"]
         / trace.n_writes))
print()

for label, result in runs.items():
    wear = result.wear[result.space.region_slices("stack")[0]]
    ae = achieved_endurance(*(result.wear[s]
                              for s in result.space.region_slices()))
    print("%-20s stack max/mean %7.2f   AE %.3f"
          % (label, wear.max() / wear.mean(), ae))
    # wear profile over the stack region, 8 lines per bucket
    buckets = wear.reshape(-1, 8).mean(axis=1)
    peak = buckets.max()
    for row in range(4, 0, -1):
        line = "".join("#" if b >= peak * (row - 0.5) / 4 else " "
                       for b in buckets)
        print("    |%s|" % line)
    print("    +%s+ stack region, low to high addresses" % ("-" * len(buckets)))
    print()

print("The rotating window turns an 8-line hot stripe into even wear")
print("across the whole stack region for a few percent extra writes.")
