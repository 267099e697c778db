"""Machine-speed calibration: the unit every reported time is expressed in.

The sandbox this benchmark runs in shares its cores: the same sweep takes
anywhere between 1x and 1.8x as long depending on what the neighbours do,
in phases of seconds to minutes (README.md has the trace).  Raw seconds of
two runs of the *same* code therefore differ by more than any regression
bound the contract allows.  The slowdown is close to a common factor on all
interpreter-bound work, so every timed piece of work is preceded and followed
by a fixed loop of benchmark-owned work and reported as

    seconds at reference speed = raw seconds / factor,
    factor = mean seconds of the loops around it / REFERENCE_LOOP_S.

The loop never calls into ``repro``: no change to the program can move the
unit.  It mixes what the compiler under test does -- parsing and compiling
text in C, and building, hashing, sorting and walking a graph of small
Python objects -- because a loop of one kind alone tracked the sweeps worse.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import random
import time

#: Seconds one ``loop()`` takes when the sandbox's cores are undisturbed
#: (fastest tenth of ~3000 loops on the 2.1 GHz Xeon the first ledger was
#: recorded on).  A constant of the benchmark: changing it rescales every
#: time metric, so it needs a re-measured baseline like a new workload does.
REFERENCE_LOOP_S = 0.0200

#: Calibration that follows a piece of work lasts this share of the work's
#: time: long repetitions get many loops, short ones get one or two, and
#: either way the speed is sampled right where the work was.
SHARE = 0.2

#: Seconds of calibration before the first piece of work of a series.
OPENING_S = 0.2

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}'), *rest, **named):\n"
    f"    total = [x * {i} + y for x, y in zip(a, b) if x != {i % 7}]\n"
    f"    while total and len(total) > {i % 5}:\n"
    f"        named['k{i}'] = total.pop() if {i} in rest else -{i}\n"
    f"    return {{'f{i}': total, **named}}\n"
    for i in range(60))


class _Op:
    __slots__ = ("name", "operands", "attrs", "users")

    def __init__(self, name: str, operands: list):
        self.name = name
        self.operands = operands
        self.attrs = {"arity": len(operands)}
        self.users = 0
        for operand in operands:
            operand.users += 1


@contextlib.contextmanager
def collector_off():
    """Keep the garbage collector out of a short measurement: what a
    collection costs depends on the heap the program under test left behind,
    not on the work being measured."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def loop() -> int:
    """One fixed unit of work; the return value only keeps it from being skipped.

    Nothing here forms a reference cycle, so running with the collector off
    leaves nothing behind for it either.
    """
    with collector_off():
        code = compile(ast.parse(_SOURCE), "<calibration>", "exec")
        rng = random.Random(7)
        ops = [_Op("const", []) for _ in range(8)]
        for index in range(2500):
            left = ops[rng.randrange(len(ops))]
            right = ops[-1 - rng.randrange(min(len(ops), 16))]
            ops.append(_Op(("add", "mul", "load", "store")[index & 3], [left, right]))
        unique: dict = {}
        for op in ops:
            unique.setdefault((op.name, tuple(map(id, op.operands))), op)
            op.attrs["users"] = op.users
        ordered = sorted(ops, key=lambda op: (op.attrs["users"], op.name))
        return len(code.co_consts) + len(unique) + len(ordered)


def block(seconds: float) -> list[float]:
    """Seconds of each of the loops run for about ``seconds`` (at least one)."""
    loops: list[float] = []
    while not loops or sum(loops) < seconds:
        started = time.perf_counter()
        loop()
        loops.append(time.perf_counter() - started)
    return loops


def factor(loops: list[float]) -> float:
    """How much slower than the reference machine ``loops`` ran (1.0 = as fast)."""
    return sum(loops) / len(loops) / REFERENCE_LOOP_S


def calibrated(func):
    """``func()`` between calibration blocks.

    Returns (result, seconds at reference speed, the loops of both blocks).
    """
    loops = block(OPENING_S)
    started = time.perf_counter()
    result = func()
    raw = time.perf_counter() - started
    loops += block(raw * SHARE)
    return result, raw / factor(loops), loops
