"""The map workload's set-up: random scaffoldings saved with ``triwalks scaffolding``.

Kept apart from the rest of the benchmark so that the set-up probe loads
nothing beyond ``triwalks.cli``: every module imported here is one the CLI
already imports.
"""

import io
import random
from contextlib import redirect_stdout

# side lengths of the saved scaffoldings, both parities; fixed so that set-up
# time and peak memory (the L = 25 tables) do not vary with the seed
SCAFFOLD_SIDES = (7, 12, 18, 25)


def scaffold_files(seed, outdir):
    """(L, scaffolding seed, path) of the random scaffoldings the map workload saves."""
    rng = random.Random(f"{seed}:scaffold")
    files = []
    for L in SCAFFOLD_SIDES:
        sseed = rng.randrange(10**6)
        files.append((L, sseed, f"{outdir}/scaffolding_L{L}_seed{sseed}.json"))
    return files


def write_scaffolds(main, files):
    """Save each scaffolding through the CLI's ``main``; an error message or None."""
    for L, sseed, path in files:
        with redirect_stdout(io.StringIO()):
            code = main(["scaffolding", "--L", str(L), "--seed", str(sseed), "--out", path])
        if code != 0:
            return f"triwalks scaffolding --L {L} failed with code {code}"
    return None
