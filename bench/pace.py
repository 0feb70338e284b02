"""Host-speed reference for the benchmark's timings.

On a shared host the speed one process gets swings by up to 1.8x, for
stretches of a fraction of a second to a minute (a fixed pure-Python loop
timed back to back on a 2-vCPU KVM guest took anywhere from 20 ms to
37 ms), so raw wall times of the same operation spread across runs by more
than any useful regression bound.  The benchmark therefore times a fixed
reference loop around and during every timed span and reports the span in
nominal seconds: its wall time scaled by the loop's nominal time per step
over its measured time per step.  The loop shares no code with periorbit,
so a change to the program moves the nominal time as it moves the wall
time, while a slow phase of the host slows the loop too and cancels.  Raw
wall times are printed beside the nominal ones.

Pure Python on purpose: it needs no import beyond the standard library, so
a fresh interpreter can time it before periorbit or numpy is loaded.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds one step of the reference loop takes on the 2-vCPU guest the
# benchmark was written on, in its faster phases.  Any constant would do;
# this one makes nominal seconds read close to wall seconds there.
NOMINAL_STEP_S = 2.5e-7
BRACKET_STEPS = 8000      # before and after every span, about 2 ms
SAMPLE_STEPS = 400        # at every tick of the timer inside a span
TICK_S = 0.02


def _rhs(t: float, x: float, v: float):
    return v, math.cos(t) - 0.25 * v - x * (1.0 + 0.1 * x * x)


def reference_seconds(steps: int = BRACKET_STEPS) -> float:
    """Wall time of `steps` explicit-Euler steps on a forced Duffing
    oscillator: the float arithmetic and small calls an ODE right-hand side
    makes, without numpy."""
    t0 = time.perf_counter()
    t, x, v, h = 0.0, 1.0, 0.0, 1e-3
    for _ in range(steps):
        dx, dv = _rhs(t, x, v)
        x += h * dx
        v += h * dv
        t += h
    return time.perf_counter() - t0


def nominal(wall: float, loop_seconds: float, loop_steps: int) -> float:
    """`wall` seconds in nominal seconds, given that the reference loop
    ran `loop_steps` steps in `loop_seconds` around and during the span."""
    return wall * NOMINAL_STEP_S * loop_steps / loop_seconds


class Clock:
    """Times spans in nominal seconds.

    Each span is bracketed by reference loops (the loop after one span is
    the one before the next), and a SIGALRM timer runs a short loop every
    TICK_S inside it, so that a span longer than a tick is scaled by the
    host's speed during it, not just at its ends.  The ticks' own time is
    taken out of the span's wall time.  Python runs the handler between
    bytecodes, so a tick that falls inside a long C call waits for it."""

    def __init__(self):
        self._armed = False
        self._ticks_s = 0.0        # loop time of the ticks in this span
        self._ticks_steps = 0
        self._handler_s = 0.0      # whole handler time in this span
        signal.signal(signal.SIGALRM, self._tick)
        self._before = reference_seconds()

    def _tick(self, signum, frame) -> None:
        if not self._armed:
            return
        t0 = time.perf_counter()
        self._ticks_s += reference_seconds(SAMPLE_STEPS)
        self._ticks_steps += SAMPLE_STEPS
        self._handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self._ticks_s = self._handler_s = 0.0
        self._ticks_steps = 0
        self._armed = True
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """End the span; returns its nominal and wall seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._armed = False
        wall = time.perf_counter() - self._t0 - self._handler_s
        after = reference_seconds()
        loop_s = self._before + self._ticks_s + after
        steps = 2 * BRACKET_STEPS + self._ticks_steps
        self._before = after
        return nominal(wall, loop_s, steps), wall

    def rebracket(self) -> None:
        """Time a fresh loop before the next span, after work between
        spans that is not timed."""
        self._before = reference_seconds()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
