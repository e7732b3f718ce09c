"""Wall-clock helpers with support for 'background-thread' accounting.

The paper runs graph rebuilds on background threads so their cost is hidden
from the training wall clock.  :class:`TrainingClock` measures real elapsed
time but lets the caller *credit back* seconds that a background thread would
have absorbed, so experiments can report both accounting modes.
"""

from __future__ import annotations

import time
import warnings

__all__ = ["TrainingClock"]


class TrainingClock:
    """Monotonic training clock with credit for hidden background work.

    ``offset`` pre-ages the clock: a resumed run passes the elapsed seconds
    stored in its checkpoint so recorded wall times continue the original
    series instead of restarting at zero.

    Raw and credited time are tracked separately: :meth:`raw_elapsed` is
    the unadjusted wall clock, :attr:`credited` the total credited back,
    and :meth:`elapsed` the visible difference.  Crediting more time than
    has actually passed is an accounting bug (a rebuild cannot hide more
    wall time than exists), so the first over-credit raises a
    ``RuntimeWarning`` instead of being silently clamped away.
    """

    def __init__(self, offset=0.0):
        self._start = time.perf_counter() - float(offset)
        self._credit = 0.0
        self._overcredit_warned = False

    @property
    def credited(self):
        """Total seconds credited back so far."""
        return self._credit

    def credit(self, seconds):
        """Subtract ``seconds`` from the visible elapsed time (work the
        paper's implementation performs on a background thread)."""
        if seconds < 0:
            raise ValueError("cannot credit negative time")
        self._credit += seconds
        if not self._overcredit_warned and self._credit > self.raw_elapsed():
            self._overcredit_warned = True
            warnings.warn(
                f"TrainingClock credited {self._credit:.3f}s against only "
                f"{self.raw_elapsed():.3f}s of raw elapsed time; background "
                f"credit now exceeds the wall clock (accounting bug?)",
                RuntimeWarning, stacklevel=2)

    def raw_elapsed(self):
        """Raw elapsed seconds, with no background credit applied."""
        return time.perf_counter() - self._start

    def elapsed(self):
        """Visible elapsed seconds (never negative)."""
        return max(self.raw_elapsed() - self._credit, 0.0)
