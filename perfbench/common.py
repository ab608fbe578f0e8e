"""Shared plumbing: source location, failures, statistics, query mixes."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WIDTH = 48


class Mismatch(AssertionError):
    """A program output disagreed with its independent check."""


class SourceMissing(RuntimeError):
    """The checkout holds no coroweave sources to benchmark."""


def use_checkout_source() -> None:
    """Import coroweave from this checkout's ``src/`` and nowhere else.

    An installed copy elsewhere must not stand in for the sources under
    test, so the imported package's location is checked as well.
    """
    pkg = SRC / "coroweave" / "__init__.py"
    if not pkg.is_file():
        raise SourceMissing(f"no coroweave sources at {pkg.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coroweave

    if Path(coroweave.__file__).resolve() != pkg.resolve():
        raise SourceMissing(
            f"coroweave imported from {coroweave.__file__}, not from {pkg}"
        )


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def present_absent_keys(keys, count: int, rng: random.Random) -> list[int]:
    """Exactly half present keys, half keys known to be absent, shuffled."""
    keyset = set(keys)
    top = keys[-1] + 8
    out = [keys[rng.randrange(len(keys))] for _ in range(count // 2)]
    while len(out) < count:
        k = rng.randrange(1, top)
        if k not in keyset:
            out.append(k)
    rng.shuffle(out)
    return out


def first_mismatch(where: str, expected: list, got: list, offset: int = 0) -> None:
    """Raise Mismatch naming ``where`` and the first differing query index.

    ``offset`` is the index of ``expected[0]`` in the whole query list.
    """
    if len(got) != len(expected):
        raise Mismatch(f"{where}: {len(got)} results for {len(expected)} queries"
                       f" from query {offset}")
    if got != expected:
        i = next(i for i, (a, b) in enumerate(zip(expected, got)) if a != b)
        raise Mismatch(f"{where}: query {offset + i}: got {got[i]!r},"
                       f" expected {expected[i]!r}")
