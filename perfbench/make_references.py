"""Regenerate ``references.json``: the finite input pools of the ``exact``
and ``mc_moment`` workloads and the exact value of every op they can run.

    python3 perfbench/make_references.py

The pools are drawn from a fixed generator, so the file only changes if the
library's answers change.  A benchmark run never writes it; every run checks
the library against it bit for bit.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from worker import ENTRY_DIMENSIONS, REFERENCES, WG_DEGREE, WG_DIMENSIONS, import_library

POOL = 24
WORDS = 6  # entry-moment words per dimension
POOL_SEED = 1409_3864


def rational_profile(rng: random.Random, n: int) -> list[Fraction]:
    """n entries p/q with p in 1..9 and q in 1..4."""
    return [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]


def entry_word(rng: random.Random, n: int) -> list[list[int]]:
    """A balanced word of degree WG_DEGREE with indices in 1..n: rows and
    columns each spread as evenly as possible over 1..n, and the conjugate
    rows and columns shuffled copies of them, so the moment is not trivially
    zero and every word of one dimension costs the same."""
    base = [i % n + 1 for i in range(WG_DEGREE)]
    rows, cols = rng.sample(base, len(base)), rng.sample(base, len(base))
    return [rows, cols, rng.sample(rows, len(rows)), rng.sample(cols, len(cols))]


def main() -> int:
    import_library()
    from ringmoments import exact_moments, haar_moments, weingarten
    from ringmoments.profiles import SingularProfile

    rng = random.Random(POOL_SEED)
    p6 = [rational_profile(rng, 6) for _ in range(POOL)]
    p40 = [rational_profile(rng, 40) for _ in range(POOL)]
    words = {n: [entry_word(rng, n) for _ in range(WORDS)] for n in ENTRY_DIMENSIONS}

    def moments(fn, k, pool):
        out = []
        for values in pool:
            out.append(str(fn(k, SingularProfile(tuple(values)))))
            print(f"{fn.__name__}({k}, n={len(values)}) #{len(out)}", file=sys.stderr)
        return out

    grid = SingularProfile.uniform_grid(Fraction(1, 2), Fraction(4), 16)
    refs = {
        "p6": [[str(v) for v in p] for p in p6],
        "p40": [[str(v) for v in p] for p in p40],
        "uu6": moments(exact_moments.trace_moment_uu, 6, p6),
        "sq5": moments(exact_moments.trace_moment_sq, 5, p6),
        "uu3": moments(exact_moments.trace_moment_uu, 3, p40),
        "sq3": moments(exact_moments.trace_moment_sq, 3, p40),
        "wg8": {
            str(n): {
                ",".join(map(str, mu)): str(value)
                for mu, value in weingarten.wg_class_table(WG_DEGREE, n).items()
            }
            for n in WG_DIMENSIONS
        },
        "em8": {
            str(n): [
                [*word, str(haar_moments.entry_moment(haar_moments.MomentSpec(n, *map(tuple, word))))]
                for word in pool
            ]
            for n, pool in words.items()
        },
        "mc": {
            "uu": str(exact_moments.trace_moment_uu(3, grid)),
            "sq": str(exact_moments.trace_moment_sq(3, grid)),
        },
    }
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCES)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
