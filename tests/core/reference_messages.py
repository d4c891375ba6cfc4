"""Reference message delivery: the oracle ``MessageBuffer.deliver`` is
tested against.

A global ``(dest, value)`` lexsort, ``np.unique`` over the sorted keys,
then ``ufunc.at`` over the inverse index.  It is slow and obviously
canonical: every destination's values are combined one at a time in
ascending value order.  ``deliver`` must return the same bytes.
"""

from typing import Optional, Sequence, Tuple

import numpy as np


def reference_deliver(
    dest_chunks: Sequence[np.ndarray],
    value_chunks: Sequence[np.ndarray],
    combiner: Optional[str],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dests, values, counts)`` for one barrier's buffered chunks."""
    if not dest_chunks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, np.zeros(0), empty
    dests = np.concatenate(dest_chunks)
    values = np.concatenate(value_chunks)
    order = np.lexsort((values, dests))
    dests = dests[order]
    values = values[order]
    if combiner is None:
        return dests, values, np.ones(dests.size, dtype=np.int64)
    unique, inverse, counts = np.unique(
        dests, return_inverse=True, return_counts=True
    )
    if combiner == "sum":
        out = np.zeros(unique.size)
        # The property tests feed it inf + -inf and sums that overflow.
        with np.errstate(invalid="ignore", over="ignore"):
            np.add.at(out, inverse, values)
    else:  # min
        out = np.full(unique.size, np.inf)
        np.minimum.at(out, inverse, values)
    return unique, out, counts
