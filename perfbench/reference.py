"""Reference sample: a fixed pure-Python workload that never imports nplectic.

    python3 perfbench/reference.py

The machine this benchmark runs on is shared, and its speed drifts by up
to 1.7x over minutes, for the engine and for this loop alike.  ``run.py``
launches a reference sample before the first engine sample and after each
one, and reports each engine time over the mean of the two reference times
around it, which cancels most of that drift.  The loop churns small
objects: slotted instances, tuple keys, dict accumulation, sorting and a
JSON round trip.  Of the candidates tried (this one, sparse ``Fraction``
polynomial products, and importing fifty stdlib modules) its time tracked
the engine's most closely.  It is part of the benchmark, so no change to
``src/`` can move it.  Prints ``{"wall_s": ..., "cpu_s": ...}`` as the
last line of stderr.
"""

from __future__ import annotations

import json
import sys
import time

ROUNDS = 4
TERMS = 30000


class Term:
    __slots__ = ("word", "coeff")

    def __init__(self, word, coeff):
        self.word = word
        self.coeff = coeff


def work() -> int:
    acc: dict = {}
    for _ in range(ROUNDS):
        terms = [Term((i % 7, i % 11, i % 13), (i * 7919) % 1009) for i in range(TERMS)]
        for term in terms:
            key = tuple(sorted(term.word))
            acc[key] = acc.get(key, 0) + term.coeff
        text = json.dumps(sorted((list(k), v) for k, v in acc.items()))
        acc = {tuple(k): v for k, v in json.loads(text)}
    return len(acc)


def main() -> int:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    work()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(json.dumps({"wall_s": wall, "cpu_s": cpu}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
