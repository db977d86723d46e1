"""Compiled communication-round timeline.

The static segment of a FlexRay cluster is strictly periodic: the
64-cycle communication matrix repeats exactly.  This package compiles a
verified schedule into one immutable :class:`~repro.timeline.compiler.CompiledRound`
-- flat integer-macrotick arrays over the full matrix plus derived
idle/slack interval tables -- and provides the
:class:`~repro.timeline.vectorized.VectorizedStepper` engine that
advances the simulation one batched segment at a time over those arrays,
falling back to the per-slot event interpreter only where a feedback
scheduler's aperiodic work (retransmissions, slack stealing) might
change the outcome.
"""

from repro.timeline.compiler import (
    SEGMENT_DYNAMIC,
    SEGMENT_NIT,
    SEGMENT_STATIC,
    SEGMENT_SYMBOL,
    CompiledRound,
    StaticStep,
    compile_round,
)
from repro.timeline.vectorized import VectorizedStepper

__all__ = [
    "CompiledRound",
    "StaticStep",
    "VectorizedStepper",
    "compile_round",
    "SEGMENT_STATIC",
    "SEGMENT_DYNAMIC",
    "SEGMENT_SYMBOL",
    "SEGMENT_NIT",
]
