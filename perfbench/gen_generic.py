"""Seeded generator for the generic-cli model document.

Writes a YAML model document in the schema of the package README with a
pinned state count, so document size and solver work do not vary with the
seed; only the random structure does.  The text is emitted directly (not
through a YAML dumper) so the same seed gives the same bytes on any PyYAML
build.

Run ``python3 perfbench/gen_generic.py --seed 7 > model.yaml`` to write one.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

N_STATES = 1000
MAX_ACTIONS = 4
MAX_RATE_TARGETS = 3
IMPULSE_TARGETS = 5
IMPULSE_SHARE = 0.5
ETA = 1.0
K_RATE = 2.0
K_COST = 1.0
C_LOWER = 0.3
C_UPPER = 1.5


def generate(seed: int, n_states: int = N_STATES) -> dict:
    """Model data as plain Python containers, deterministic in ``seed``.

    ``rates`` and ``impulses`` map (state index, action label) to a list of
    (target index, value) pairs; costs map the same keys to floats.
    """
    rng = np.random.default_rng(seed)
    gradual: list[tuple[str, ...]] = []
    impulsive: list[tuple[str, ...]] = []
    rates: dict[tuple[int, str], list[tuple[int, float]]] = {}
    impulses: dict[tuple[int, str], list[tuple[int, float]]] = {}
    gcost: dict[tuple[int, str], float] = {}
    icost: dict[tuple[int, str], float] = {}
    for x in range(n_states):
        acts = tuple(f"g{j}" for j in range(int(rng.integers(1, MAX_ACTIONS + 1))))
        gradual.append(acts)
        for a in acts:
            n_tgt = int(rng.integers(0, MAX_RATE_TARGETS + 1))
            row: list[tuple[int, float]] = []
            if n_tgt:
                # Draw from the other states only: self-loop targets are invalid.
                tgt = rng.choice(n_states - 1, size=n_tgt, replace=False)
                tgt = tgt + (tgt >= x)
                w = rng.random(n_tgt)
                w *= float(rng.uniform(0.0, K_RATE)) / w.sum()
                row = [(int(t), float(r)) for t, r in zip(tgt, w)]
            rates[(x, a)] = row
            gcost[(x, a)] = float(rng.uniform(-K_COST, K_COST))
        if rng.random() < IMPULSE_SHARE:
            impulsive.append(("i0",))
            tgt = rng.choice(n_states - 1, size=IMPULSE_TARGETS, replace=False)
            tgt = tgt + (tgt >= x)
            p = rng.random(IMPULSE_TARGETS)
            p /= p.sum()
            impulses[(x, "i0")] = [(int(t), float(q)) for t, q in zip(tgt, p)]
            icost[(x, "i0")] = float(rng.uniform(C_LOWER, C_UPPER))
        else:
            impulsive.append(())
    return {"N": n_states, "gradual": gradual, "impulsive": impulsive, "rates": rates,
            "impulses": impulses, "gcost": gcost, "icost": icost}


def label(x: int) -> str:
    return f"x{x}"


def to_yaml(data: dict) -> str:
    """Model document text; floats are written with ``repr`` so they round-trip."""
    out = ["states:"]
    out += [f"  - {label(x)}" for x in range(data["N"])]
    out.append("gradual_actions:")
    out += [f"  {label(x)}: [{', '.join(acts)}]" for x, acts in enumerate(data["gradual"])]
    out.append("impulsive_actions:")
    out += [f"  {label(x)}: [{', '.join(acts)}]" for x, acts in enumerate(data["impulsive"])]

    def pair_rows(section: str, key: str, rows: dict) -> None:
        out.append(f"{section}:")
        for (x, a), row in rows.items():
            body = ", ".join(f"{label(t)}: {v!r}" for t, v in row)
            out.append(f"  - {{state: {label(x)}, action: {a}, {key}: {{{body}}}}}")

    pair_rows("rates", "targets", {k: r for k, r in data["rates"].items() if r})
    pair_rows("impulse_rows", "distribution", data["impulses"])
    out.append("costs:")
    for name, costs in (("gradual", data["gcost"]), ("impulse", data["icost"])):
        out.append(f"  {name}:")
        out += [f"    - {{state: {label(x)}, action: {a}, value: {c!r}}}" for (x, a), c in costs.items()]
    out.append("constants:")
    out += [f"  eta: {ETA!r}", f"  K_rate: {K_RATE!r}", f"  K_cost: {K_COST!r}", f"  c_lower: {C_LOWER!r}"]
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.stdout.write(to_yaml(generate(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
