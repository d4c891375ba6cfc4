"""The asynchronous user-task I/O abstraction (§3.1).

With Linux AIO an application must allocate user-space buffers up front and
copy completed data into them; with many requests in flight the empty
buffers alone consume significant memory.  SAFS instead attaches a
*user task* to each request and runs the task inside the filesystem against
the page cache when the request completes — no allocation, no copy.

In this reproduction the task carries an ``on_complete`` callable plus an
opaque context.  The engine charges the task's CPU time to the worker that
consumes the completion, which is how computation/I/O overlap is modelled.
"""

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class UserTask:
    """A computation to run inside SAFS when its I/O request completes.

    ``on_complete(data, context, completion_time)`` receives a zero-copy
    view of the requested bytes straight from the page cache.
    """

    on_complete: Optional[Callable[[memoryview, Any, float], None]] = None
    context: Any = None

    def run(self, data: memoryview, completion_time: float) -> None:
        """Execute the task against ``data`` available at ``completion_time``."""
        if self.on_complete is not None:
            self.on_complete(data, self.context, completion_time)
