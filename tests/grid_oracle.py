"""The per-record grid check, kept as the reference for ``harness.off_grid_record``.

It walks the log's pass rates in order and returns the first record outside
[0, 1] or farther than 1e-9 from ``round(rate * G) / G``.  ``round`` raises on
a NaN or infinite product, so the reference is defined only for finite rates
whose product with G is finite; ``off_grid_record`` must return the same record
on every such log.
"""


def off_grid_record(log, group_size):
    for i, rate in enumerate(log.pass_rate):
        nearest = round(rate * group_size) / group_size
        if not 0.0 <= rate <= 1.0 or abs(rate - nearest) > 1e-9:
            return log[i]
    return None
