"""The three workloads: seeded inputs, and the checked operations on them.

``make_request`` runs in the benchmark's parent process and turns a seed
into plain JSON inputs.  ``decode`` and ``OPERATIONS`` run in a fresh worker
interpreter, which only ever sees those inputs.  Every operation checks its
own output against an independent expectation and returns a canonical text
of its result; the texts of all operations feed the run's digest.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# tensor-sweep: every pair of dominant weights up to this dimension, on the
# four rank <= 2 types of the C01 acceptance sweep.
TENSOR_TYPES = ("A1", "A2", "B2", "G2")
TENSOR_DIM = {"full": 64, "tiny": 8}

# translate-sweep: (type, p) at level p/1.  B2 and G2 stay in: they carry
# the known non-simply-laced lattice defect and the cap refusals.
TRANSLATE_CONFIGS = {
    "full": (("A1", 5), ("A1", 7), ("A2", 4), ("A2", 5), ("A3", 5),
             ("B2", 5), ("B2", 6), ("G2", 7), ("G2", 8)),
    "tiny": (("A1", 5), ("B2", 5)),
}
# verify_weight_geometry runs on one seeded g for every (mu, lam) pair: its
# cost depends on the pair, not on g, so the work per pass does not vary
# with the seed.  Then per-configuration counts of round-trip and transport
# operations.
ROUND_TRIPS = {"full": 40, "tiny": 4}
TRANSPORTS = {"full": 20, "tiny": 2}
COEFFS = (-5, -3, -1, 1, 2, 4)

# Failures the program is known to produce at the seed commit, as
# (operation, root system, outcome).  They count in failed_ratio and are
# reported by kind, but not in the result's ``failed``: that counts only
# unexpected failures, and any of those marks the run incorrect.
#  - verify/wrong on B2, G2: the translation lattice is pQ, not pQ^vee.
#  - translate/transport refused on G2: the cap is on the product of the
#    two dimensions, not on the work done.
KNOWN_DEFECTS = {
    ("verify", "B2", "wrong"), ("verify", "G2", "wrong"),
    ("translate", "G2", "refused"), ("transport", "G2", "refused"),
}

WORKLOADS = ("tensor-sweep", "translate-sweep", "cli-oneshot")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def dimension(rs, lam) -> int:
    """Weyl dimension from the positive coroots, kept apart from finchar."""
    num = den = 1
    for row in rs.coroot_rows:
        num *= sum(r * (c + 1) for r, c in zip(row, lam))
        den *= sum(row)
    return num // den


# ---------------------------------------------------------------------------
# inputs, made in the parent process

def _dominant_up_to(rs, cap):
    out, frontier = [], [(0,) * rs.rank]
    seen = set(frontier)
    while frontier:
        lam = frontier.pop()
        if dimension(rs, lam) > cap:
            continue
        out.append(list(lam))
        for i in range(rs.rank):
            up = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
            if up not in seen:
                seen.add(up)
                frontier.append(up)
    return sorted(out)


def _tensor_ops(rng, scale):
    from afftrans.rootsys import root_system

    ops = []
    for name in TENSOR_TYPES:
        weights = _dominant_up_to(root_system(name), TENSOR_DIM[scale])
        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                pair = [lam, mu] if rng.random() < 0.5 else [mu, lam]
                ops.append(["tensor", name, *pair])
    return ops


def _element(g):
    return [list(g.translation), list(g.finite.word)]


def _translate_ops(rng, scale):
    from afftrans import affine
    from afftrans.affine import Level
    from afftrans.rootsys import Weight, root_system

    ops = []
    for name, p in TRANSLATE_CONFIGS[scale]:
        rs, level, bound = root_system(name), Level(p, 1), 4 * p
        alcove = [w for w in affine.enumerate_dominant(rs, level)
                  if affine.is_regular(rs, w, level)]
        orbits = {mu: affine.dominant_orbit(rs, mu, level, bound=bound) for mu in alcove}
        triples = [(mu, lam, g) for mu in alcove for g, _ in orbits[mu] for lam in alcove]
        ops += [["orbit", name, p, list(mu), bound] for mu in alcove]
        ops += [["translate", name, p, list(mu), list(lam), _element(g)]
                for mu, lam, g in triples]
        for mu in alcove:
            for lam in alcove:
                g, _ = rng.choice(orbits[mu])
                ops.append(["verify", name, p, list(mu), list(lam), _element(g), bound])
        for _ in range(ROUND_TRIPS[scale]):
            base = rng.choice(alcove)
            pool = [g for g, _ in orbits[base]]
            keys = rng.sample(pool, rng.randint(0, min(5, len(pool))))
            coeffs = [[_element(g), rng.choice(COEFFS)] for g in keys]
            ops.append(["roundtrip", name, p, list(base), coeffs, list(rng.choice(alcove))])
        zero = Weight.zero(rs.rank)
        if zero in orbits:
            pool = [g for g, nu in orbits[zero] if nu != zero]
            for _ in range(TRANSPORTS[scale]):
                gens = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                ops.append(["transport", name, p, [_element(g) for g in gens],
                            list(rng.choice(alcove))])
    return ops


def cli_cases(scale):
    """{case: [{argv, code, stdout, stderr}, ...]}; a pass runs every variant.

    The expected outputs were recorded from the seed commit; three of them
    are the repository's golden transcripts.
    """
    cases = json.loads((HERE / "cli_cases.json").read_text())
    if scale == "tiny":
        cases = {k: cases[k] for k in ("tensor", "usage-error", "domain-error")}
    return cases


def make_request(workload: str, seed: int, scale: str) -> dict:
    """The worker's inputs for one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "tensor-sweep":
        ops, systems = _tensor_ops(rng, scale), list(TENSOR_TYPES)
    elif workload == "translate-sweep":
        ops = _translate_ops(rng, scale)
        systems = sorted({name for name, _ in TRANSLATE_CONFIGS[scale]})
    else:
        ops = [[name, index] for name, variants in cli_cases(scale).items()
               for index in range(len(variants))]
        rng.shuffle(ops)
        return {"workload": workload, "systems": ["A1", "A2", "B2", "G2"], "ops": ops}
    rng.shuffle(ops)
    return {"workload": workload, "systems": systems, "ops": ops}


# ---------------------------------------------------------------------------
# operations, run in the worker

def decode(op):
    """Library objects for one JSON operation: (kind, root system name, args)."""
    from afftrans.affine import AffineWeylElement, Level
    from afftrans.rootsys import Weight, root_system
    from afftrans.weyl import WeylElement

    def element(g):
        return AffineWeylElement(Weight(g[0]), WeylElement(tuple(g[1])))

    kind, name = op[0], op[1]
    rs = root_system(name)
    if kind == "tensor":
        return kind, name, (rs, Weight(op[2]), Weight(op[3]))
    level, rest = Level(op[2], 1), op[3:]
    if kind == "orbit":
        args = (Weight(rest[0]), rest[1])
    elif kind == "translate":
        args = (Weight(rest[0]), Weight(rest[1]), element(rest[2]))
    elif kind == "verify":
        args = (Weight(rest[0]), Weight(rest[1]), element(rest[2]), rest[3])
    elif kind == "roundtrip":
        args = (Weight(rest[0]), {element(g): c for g, c in rest[1]}, Weight(rest[2]))
    else:
        args = (frozenset(element(g) for g in rest[0]), Weight(rest[1]))
    return kind, name, (rs, level, *args)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _tensor(rs, lam, mu):
    from afftrans import finchar

    parts = finchar.tensor_decompose(rs, lam, mu)
    oracle = finchar.tensor_oracle(rs, lam, mu)
    _expect(parts == oracle, f"decompose {parts} != oracle {oracle}")
    _expect(all(m > 0 for m in parts.values()), "non-positive multiplicity")
    mass = sum(m * dimension(rs, nu) for nu, m in parts.items())
    _expect(mass == dimension(rs, lam) * dimension(rs, mu), f"mass {mass}")
    return " ".join(f"{nu}:{m}" for nu, m in parts.items())


def _orbit(rs, level, mu, bound):
    from afftrans import affine

    pairs = affine.dominant_orbit(rs, mu, level, bound=bound)
    weights = [nu for _, nu in pairs]
    _expect(weights == sorted(weights) and mu in weights, "orbit unsorted or lacks mu")
    for g, nu in pairs:
        _expect(affine.affine_apply(rs, g, mu, level) == nu, f"{g} does not send {mu} to {nu}")
        height = sum(r * (c + 1) for r, c in zip(rs.coroot_rows[-1], nu))
        _expect(nu.is_dominant and height <= bound, f"{nu} outside the bound")
    return " ".join(str(nu) for nu in weights)


def _translate(rs, level, mu, lam, g):
    from afftrans import affine, translate

    image = translate.translate_weyl(rs, g, mu, lam, level)
    expected = affine.affine_apply(rs, g, lam, level)
    _expect(image == expected, f"image {image} != g.lam {expected}")
    return str(image)


def _verify(rs, level, mu, lam, g, bound):
    from afftrans import translate

    verdict = translate.verify_weight_geometry(rs, lam, mu, g, level, bound)
    _expect(verdict is True, f"returned {verdict}")
    return "True"


def _roundtrip(rs, level, base, coeffs, lam):
    from afftrans import translate

    chi = translate.make_character(rs, base, coeffs, level)
    verdict = translate.round_trip_check(rs, chi, lam)
    _expect(verdict is True, f"returned {verdict}")
    return " ".join(f"{g.translation}*{g.finite}:{c}" for g, c in chi.coeffs.items())


def _transport(rs, level, gens, lam):
    from afftrans import affine, annihilator
    from afftrans.rootsys import Weight

    labels = annihilator.make_labels(rs, Weight.zero(rs.rank), gens, level)
    moved = annihilator.transport(rs, labels, lam)
    _expect(moved.base == lam and moved.generators == gens, "labels changed")
    images = sorted(affine.affine_apply(rs, g, lam, level) for g in moved.generators)
    _expect(all(nu.is_dominant for nu in images), f"images {images} not dominant")
    return " ".join(str(nu) for nu in images)


OPERATIONS = {
    "tensor": _tensor,
    "orbit": _orbit,
    "translate": _translate,
    "verify": _verify,
    "roundtrip": _roundtrip,
    "transport": _transport,
}
