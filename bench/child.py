"""Child-process entry points of the benchmark.

    child.py gen WORKLOAD SEED ROUNDS OUT_DIR   write OUT_DIR/inputs.json
    child.py oracle X_LO X_HI Y_LO Y_HI H RADIUS CELLS
    child.py --trace-out FILE cli ARGS...        moutardkit's CLI, traced
    child.py --trace-out FILE oracle ARGS...     the oracles, traced

Every item runs in its own interpreter, so no cache carries over between
items.  `gen` draws all inputs from the workload seed; the program under
test only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

SWEEP_DEGREE = 3  # sweep-d3
CONSTRUCT_DEGREE = 5  # construct-d5
COEFFICIENT_BOUND = 5  # the bound `moutardkit search` draws with
STRATA = 4  # sweep-d3 candidates drawn per trial kept


def _search_item(search_seed: int) -> dict:
    args = ["search", "--degree", str(SWEEP_DEGREE), "--trials", "1", "--seed", str(search_seed)]
    return {"kind": "search", "label": f"search-seed-{search_seed}", "args": args}


def _conjugate_type(pair) -> bool:
    """True iff omega2 = v + t*omega1 with v the harmonic conjugate of omega1.

    For such pairs the quadrature is |f|^2/2 with f = omega1 + i*v, so the
    least certifiable constant sits at the bisection floor and the trial
    runs the longest bisection; other pairs mostly double upwards.
    """
    u, w = pair.omega1, pair.omega2
    ux, uy = u.diff_x(), u.diff_y()
    a = w.diff_y() - ux  # must equal t*u_y
    b = w.diff_x() + uy  # must equal t*u_x
    basis, target = (uy, a) if not uy.is_zero else (ux, b)
    exponent, coeff = next(basis.items())
    t = target.coefficient(*exponent) / coeff
    return a == uy.scale(t) and b == ux.scale(t)


def _gen_sweep(rng: random.Random, rounds: int) -> list:
    """Rounds of one conjugate-type and one other certifiable trial.

    `moutardkit search --trials 1 --seed k` draws its pair with the search
    module's own pair generator, so the same call predicts the pair here.
    Pairs without a positive orientation (no constant can work) are
    skipped.  A trial's cost grows with its pair type and with the
    dominance ratio S/m of the oriented quadrature F, which sets the
    branch-and-bound radius; drawing STRATA candidates per pick and taking
    one from each slice of the ratio-sorted candidates keeps the cost of a
    pool steady from seed to seed.
    """
    from moutardkit import positivity, search
    from moutardkit.errors import NonPositiveLeadingForm

    wanted = STRATA * rounds
    candidates = {True: [], False: []}
    while any(len(found) < wanted for found in candidates.values()):
        search_seed = rng.randrange(2**31)
        pair = search._draw_pair(random.Random(search_seed), SWEEP_DEGREE, COEFFICIENT_BOUND)
        try:
            _, f = search.orient_for_positivity(pair)
        except NonPositiveLeadingForm:
            continue
        found = candidates[_conjugate_type(pair)]
        if len(found) < wanted:
            bound, lower_sum, _ = positivity.leading_dominance(f)
            found.append((lower_sum / bound, search_seed))
    picks = {}
    for conjugate, found in candidates.items():
        found.sort()
        picks[conjugate] = [found[i * STRATA + rng.randrange(STRATA)][1] for i in range(rounds)]
        rng.shuffle(picks[conjugate])
    return [[_search_item(a), _search_item(b)] for a, b in zip(picks[True], picks[False])]


def _gen_examples(rng: random.Random) -> list:
    """Examples 1 and 2 plus the numeric oracles on a seed-chosen grid."""
    x_lo = Fraction(rng.randint(-40, 0), 10)
    y_lo = Fraction(rng.randint(-40, 0), 10)
    x_hi = x_lo + Fraction(rng.randint(10, 40), 10)
    y_hi = y_lo + Fraction(rng.randint(10, 40), 10)
    radius = rng.randint(8, 16)
    oracle = [str(v) for v in (x_lo, x_hi, y_lo, y_hi, Fraction(1, 1000), radius, 128)]
    return [
        [
            {"kind": "example", "label": "example-1", "args": ["example", "1"]},
            {"kind": "example", "label": "example-2", "args": ["example", "2"]},
            {"kind": "oracle", "label": "oracles", "args": oracle},
        ]
    ]


def _gen_construct(rng: random.Random, rounds: int, out_dir: str) -> list:
    """Random harmonic pairs of exact degree 5 and a positive constant each."""
    from moutardkit import construct, harmonic, serialization

    def exact_degree():
        while True:
            combo = harmonic.random_combo(CONSTRUCT_DEGREE, 0, COEFFICIENT_BOUND, rng=rng)
            if combo.realized.degree == CONSTRUCT_DEGREE:
                return combo.realized

    items = []
    for index in range(rounds):
        omega1 = exact_degree()
        omega2 = exact_degree()
        while construct.proportional(omega1, omega2):
            omega2 = exact_degree()
        constant = Fraction(rng.randint(1, 999), rng.randint(1, 9))
        path = os.path.join(out_dir, f"pair-{index:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                serialization.dumps(
                    {
                        "omega1": serialization.poly_to_obj(omega1),
                        "omega2": serialization.poly_to_obj(omega2),
                    }
                )
            )
        args = ["transform", "--seeds", path, "--constant", str(constant)]
        items.append([{"kind": "transform", "label": f"pair-{index:03d}", "args": args}])
    return items


def gen(workload: str, seed: int, rounds: int, out_dir: str) -> int:
    import moutardkit  # noqa: F401  set-up time includes the package import

    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-d3":
        pool = _gen_sweep(rng, rounds)
    elif workload == "paper-examples":
        pool = _gen_examples(rng)
    elif workload == "construct-d5":
        pool = _gen_construct(rng, rounds, out_dir)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": pool}, fh)
    return 0


def oracle(args: list) -> int:
    """Both numeric oracles on example 1's reference closed forms."""
    from moutardkit import gallery, numeric

    x_lo, x_hi, y_lo, y_hi, h = (Fraction(v) for v in args[:5])
    radius, cells = int(args[5]), int(args[6])
    reference = gallery.get_example(1).reference
    grid = numeric.uniform_grid(x_lo, x_hi, y_lo, y_hi, 9)
    residual = numeric.numeric_residual(reference.u, reference.psi1, grid, h)
    l2 = numeric.numeric_l2_norm(reference.psi1, radius, cells, cells)
    print(json.dumps({"residual": residual, "l2": l2.to_obj()}, sort_keys=True))
    return 0


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    command, rest = argv[0], argv[1:]
    if command == "gen":
        return gen(rest[0], int(rest[1]), int(rest[2]), rest[3])
    tracer = None
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if command == "cli":
            from moutardkit import cli

            return cli.main(rest)
        if command == "oracle":
            return oracle(rest)
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
