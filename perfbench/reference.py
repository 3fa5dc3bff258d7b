"""A fixed pure-Python workload that measures how fast the host runs right now.

The host's CPU speed drifts by 15% and more over tens of seconds (the
interquartile range of 30-second windows of a fixed loop, on the 2-CPU
machine this was built on). Timing this routine around and between passes
gives a run's speed factor. ``run.py`` multiplies its times by it to report
normalized metrics next to the raw ones. The routine depends on nothing in
the repository, so a change to pairguard cannot move it.

It walks an expression tree of 32k nodes with dictionary environments,
attribute dispatch, string formatting and list building: the same kind of
interpreter work as pairguard's engine, over a working set of a few
megabytes, so that it also feels contention for the shared caches.

Usage: python3 perfbench/reference.py ROUNDS  (prints ROUNDS sample times)
"""

from __future__ import annotations

import subprocess
import sys
import time

TREE_DEPTH = 14
# Seconds one sample takes at the nominal speed; normalized times are
# expressed in seconds at that speed.
NOMINAL_S = 0.020
INTERVAL_S = 0.5  # time between samples during a pass
EDGE_ROUNDS = 3  # samples before and after a pass


class _Node:
    __slots__ = ("op", "left", "right", "name")

    def __init__(self, op, left=None, right=None, name=None):
        self.op, self.left, self.right, self.name = op, left, right, name


def _tree(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node("var", name=f"x{index % 7}")
    op = ("add", "mul", "sub", "max")[(depth + index) % 4]
    return _Node(op, _tree(depth - 1, index * 2), _tree(depth - 1, index * 2 + 1))


class _Evaluator:
    def __init__(self, env: dict):
        self.env = env
        self.log: list[str] = []

    def eval(self, node: _Node) -> int:
        return getattr(self, "_" + node.op)(node)

    def _var(self, node):
        return self.env.get(node.name, 0)

    def _add(self, node):
        return self.eval(node.left) + self.eval(node.right)

    def _sub(self, node):
        return self.eval(node.left) - self.eval(node.right)

    def _mul(self, node):
        return (self.eval(node.left) * self.eval(node.right)) % 1009

    def _max(self, node):
        left, right = self.eval(node.left), self.eval(node.right)
        if isinstance(left, int) and left > right:
            self.log.append(f"{node.op}:{left}")
            return left
        return right


_TREE = _tree(TREE_DEPTH, 1)


def reference_s() -> float:
    """Seconds one walk of the fixed tree takes now."""
    start = time.perf_counter()
    evaluator = _Evaluator({f"x{i}": (i * 31) % 17 for i in range(7)})
    total = evaluator.eval(_TREE) + len(evaluator.log)
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the result live; never true
        raise AssertionError(total)
    return elapsed


class SpeedProbe:
    """Times the reference routine before, between and after a run's passes.

    It runs on as many processes as the workload keeps busy, so that a
    ``--jobs 2`` pass is scaled by the speed of both CPUs. One sample is
    noisy (the speed can change twofold within a second), and a pass's
    samples still move more than its time does, so the normalized metrics
    use one factor per run, from the mean of all its samples.
    """

    def __init__(self, processes: int = 1):
        self.processes = processes
        self._run: list[float] = []
        self._pass: list[float] = []
        self._last = 0.0

    def _measure(self, rounds: int) -> None:
        if self.processes == 1:
            samples = [reference_s() for _ in range(rounds)]
        else:
            argv = [sys.executable, __file__, str(rounds)]
            children = [
                subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
                for _ in range(self.processes)
            ]
            samples = []
            for child in children:
                out, _ = child.communicate(timeout=60)
                if child.returncode != 0:
                    raise RuntimeError(f"reference process exited with {child.returncode}")
                samples += [float(t) for t in out.split()]
        self._pass += samples
        self._run += samples
        self._last = time.perf_counter()

    def begin(self) -> None:
        self._pass = []
        self._measure(EDGE_ROUNDS)

    def after_call(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._measure(1)

    def end(self) -> float:
        """The pass's own speed factor, recorded to show the drift."""
        self._measure(EDGE_ROUNDS)
        return _factor(self._pass)

    def factor(self) -> float:
        """The run's speed factor: nominal over mean measured reference time."""
        return _factor(self._run)


def _factor(samples: list[float]) -> float:
    return NOMINAL_S * len(samples) / sum(samples)


if __name__ == "__main__":
    print(" ".join(f"{reference_s():.9f}" for _ in range(int(sys.argv[1]))))
