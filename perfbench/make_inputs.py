"""Make the benchmark's frozen inputs anew.

    PYTHONPATH=src python3 perfbench/make_inputs.py --seed 2025

writes ``perfbench/inputs/``: one ASCII AIGER file per circuit and
``manifest.json``, which names every pair (original vs optimised, or
original vs mutant) with its PI/PO counts and the expected verdict that
the independent oracle (:mod:`oracle`) settled for it.

The circuits come from the program's own generators and optimisation
scripts (``repro.bench.generators``, ``repro.synth``); freezing them
here means a later change to those modules cannot silently change a
workload.  Mutants are single-gate edits of the optimised circuit (one
AND fanin's polarity flipped).  The seed picks which gates are tried;
among the candidates that 2048 random patterns cannot tell apart from
the original, the one that differs on the fewest input patterns is
kept, so a disproof has to come from the deep phases.  Up to
``MUTANT_CANDIDATES`` distinct edits are tried, in a seeded order.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

DEFAULT_SEED = 2025

#: (name, generator, width, optimisation script).  The first group has
#: PO supports above the engine's one-shot bound k_P = 20, so the P
#: phase cannot settle them; the second group is settled by P.
PAIRS = [
    ("voter21", "voter", 21, "compress2"),
    ("voter23", "voter", 23, "compress2"),
    ("adder11", "adder", 11, "compress2"),
    ("max11", "max_circuit", 11, "compress2"),
    ("mult6", "multiplier", 6, "compress2"),
    ("mult7", "multiplier", 7, "resyn2"),
    ("square8", "square", 8, "compress2"),
    ("log2_12", "log2", 12, "compress2"),
    ("sqrt12", "sqrt", 12, "compress2"),
    ("voter15", "voter", 15, "resyn2"),
    ("hyp6", "hyp", 6, "compress2"),
    ("sin8", "sin_cordic", 8, "compress2"),
]

#: Pairs that also get a mutant, and whether random patterns must miss
#: it.  The wide pairs' mutants must escape random simulation so a
#: disproof goes through the deep phases; the narrow pairs' mutants are
#: settled by P's exhaustive check anyway.
MUTANTS = {
    "voter21": True,
    "voter23": True,
    "mult7": False,
    "log2_12": False,
}

#: A mutant may differ from the original on at most this many patterns.
MAX_DIFF = 4096
MUTANT_CANDIDATES = 1000
PREFILTER_WORDS = 32


def write_aag(circuit: oracle.Circuit, path: Path) -> None:
    """Write ``circuit`` as canonical ASCII AIGER (ANDs in variable order)."""
    lines = [
        f"aag {circuit.max_var} {circuit.num_pis} 0 "
        f"{circuit.num_pos} {len(circuit.ands)}"
    ]
    lines += [str(2 * (k + 1)) for k in range(circuit.num_pis)]
    lines += [str(p) for p in circuit.pos]
    lines += [f"{2 * v} {r0} {r1}" for v, r0, r1 in circuit.ands]
    path.write_text("\n".join(lines) + "\n")


def pick_mutant(original, optimised, rng, escape_random):
    """The single-gate edit of ``optimised`` that is hardest to detect."""
    prefilter = rng.integers(
        0, 1 << 64, size=(original.num_pis, PREFILTER_WORDS), dtype=np.uint64
    )
    reference = oracle.evaluate(original, prefilter)
    best = None
    order = rng.permutation(2 * len(optimised.ands))[:MUTANT_CANDIDATES]
    for candidate in order:
        gate, side = divmod(int(candidate), 2)
        ands = list(optimised.ands)
        var, r0, r1 = ands[gate]
        ands[gate] = (var, r0 ^ 1, r1) if side == 0 else (var, r0, r1 ^ 1)
        mutant = oracle.Circuit(
            optimised.num_pis, ands, list(optimised.pos), optimised.max_var
        )
        if escape_random and np.any(
            oracle.evaluate(mutant, prefilter) != reference
        ):
            continue
        diff = oracle.count_differences(original, mutant)
        if 0 < diff <= MAX_DIFF and (best is None or diff < best[0]):
            best = (diff, gate, side, mutant)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=HERE / "inputs")
    args = parser.parse_args(argv)

    from repro.bench import generators
    from repro.aig.aiger import write_aiger
    from repro.synth import resyn

    args.out.mkdir(parents=True, exist_ok=True)
    pairs = {}
    for name, family, width, script in PAIRS:
        original = getattr(generators, family)(width)
        optimised = getattr(resyn, script)(original)
        file_a, file_b = f"{name}.aag", f"{name}_{script}.aag"
        write_aiger(original, args.out / file_a, binary=False)
        write_aiger(optimised, args.out / file_b, binary=False)
        entries = [(name, file_b, None)]
        if name in MUTANTS:
            a = oracle.read_aiger(args.out / file_a)
            b = oracle.read_aiger(args.out / file_b)
            # One stream per pair, so adding a pair changes no other one.
            rng = np.random.default_rng([args.seed, zlib.crc32(name.encode())])
            best = pick_mutant(a, b, rng, MUTANTS[name])
            if best is None:
                raise SystemExit(f"no hard-to-detect mutant found for {name}")
            diff, gate, side, mutant = best
            file_m = f"{name}_{script}_mut.aag"
            write_aag(mutant, args.out / file_m)
            entries.append((f"{name}_mut", file_m, {
                "gate": gate, "fanin": side, "diff_patterns": diff,
            }))
        for pair_name, file_other, edit in entries:
            a = oracle.read_aiger(args.out / file_a)
            b = oracle.read_aiger(args.out / file_other)
            verdict = oracle.settle(a, b, seed=args.seed)
            pairs[pair_name] = {
                "a": file_a,
                "b": file_other,
                "family": family,
                "width": width,
                "script": script,
                "pis": a.num_pis,
                "pos": a.num_pos,
                "ands": [len(a.ands), len(b.ands)],
                "verdict": verdict.verdict,
                "method": verdict.method,
                "mutant": edit,
            }
            print(
                f"{pair_name}: {a.num_pis} PIs, {verdict.verdict} "
                f"({verdict.method})" + (f", differs on {edit['diff_patterns']}"
                                         f" patterns" if edit else ""),
                file=sys.stderr,
            )
    manifest = {
        "seed": args.seed,
        "command": f"PYTHONPATH=src python3 perfbench/make_inputs.py "
                   f"--seed {args.seed}",
        "pairs": pairs,
    }
    (args.out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
