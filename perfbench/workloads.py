"""Seeded workload generators.

Every workload is a list of ``Op``s: the argv handed to ``python -m awcalc``
plus what the benchmark expects back. The program sees nothing but the argv;
everything else about the op (its class, the record count to expect) stays
here so the output checks do not trust the program's own context echo.

Op sizes are fixed per workload and v is drawn in blocks: each block of
three ops holds every value of the v ladder once, in a seeded order. A run
therefore executes the same mix of op costs whatever the seed, and the seed
only moves values (sigmas, identity seeds, order). That is what keeps the
per-run median and tail comparable between seeds and between commits; a
ladder of sizes would make them jump between size classes.

Admissibility is decided here, arithmetically, by the rule the program
documents: ``sigma4 = q^-j`` with ``0 <= j <= 2N - 2`` collides two
eigenvalues of a family of size N, and every ``v``-exponent is capped at 64,
so no family may exceed N = 32. No draw is ever filtered by running awcalc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# v = q^(1/2) ladder shared by every workload.
V_LADDER = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
# |n| in v^n is capped at 64 and eigenvalues need q^-n = v^(-2n): N <= 32.
MAX_FAMILY_N = 32

IDENTITY_TRIALS = 20
# records per identity trial: 4 identities + the k-fold rule for k = 1..5
IDENTITY_RECORDS_PER_TRIAL = 9
BUILD_N = 20
CHAIN_NMAX = 7
CHAIN_K = (1, 2, 3)

# how many ops a generated list holds; far more than a run can finish
OPS_PER_LIST = 400

WORKLOADS = ("identities", "build", "chain")


@dataclass(frozen=True)
class Op:
    """One CLI call and the facts its output must echo."""

    kind: str                 # "identities" | "build" | "chain"
    argv: tuple[str, ...]
    v: Fraction
    sigmas: tuple[Fraction, ...] = ()
    N: int = 0                # build: family size; chain: base family size
    nmax: int = 0
    ks: tuple[int, ...] = ()
    trials: int = 0
    seed: int = 0


def fmt(value: Fraction) -> str:
    """The program's canonical rational text: lowest terms, "p" or "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def draw_sigma(rng: random.Random) -> Fraction:
    """A small-height nonzero rational: numerator in +-[1, 3], denominator
    in [1, 4]. Zero is left out because a zero sigma makes an op markedly
    cheaper, which would widen the spread of op times within a run."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def is_admissible(v: Fraction, sigmas: tuple[Fraction, ...], N: int) -> bool:
    """The documented rule: N within the exponent cap and sigma4 not equal
    to q^-j for any 0 <= j <= 2N - 2."""
    if not 0 <= N <= MAX_FAMILY_N:
        return False
    q = v * v
    s4 = sigmas[3]
    return all(s4 != q ** -j for j in range(max(2 * N - 1, 1)))


def _draw_sigmas(rng: random.Random, v: Fraction, N: int) -> tuple:
    while True:
        sigmas = tuple(draw_sigma(rng) for _ in range(4))
        if is_admissible(v, sigmas, N):
            return sigmas


def _v_blocks(rng: random.Random):
    """Endless seeded permutations of V_LADDER, one block after another."""
    while True:
        block = list(V_LADDER)
        rng.shuffle(block)
        yield from block


def _sigma_flag(sigmas: tuple) -> str:
    # "--sigmas=..." and not "--sigmas ...": argparse takes a separate value
    # that starts with "-" for an option and exits 2.
    return "--sigmas=" + ",".join(fmt(s) for s in sigmas)


def identities_ops(rng: random.Random, count: int) -> list[Op]:
    vs = _v_blocks(rng)
    ops = []
    for _ in range(count):
        v, seed = next(vs), rng.randrange(10 ** 6)
        argv = ("verify-identities", "--qsqrt", fmt(v),
                "--trials", str(IDENTITY_TRIALS), "--seed", str(seed))
        ops.append(Op("identities", argv, v, trials=IDENTITY_TRIALS, seed=seed))
    return ops


def build_ops(rng: random.Random, count: int) -> list[Op]:
    vs = _v_blocks(rng)
    ops = []
    for _ in range(count):
        v = next(vs)
        sigmas = _draw_sigmas(rng, v, BUILD_N)
        argv = ("build-family", "--qsqrt", fmt(v), _sigma_flag(sigmas),
                "--nmax", str(BUILD_N))
        ops.append(Op("build", argv, v, sigmas=sigmas, N=BUILD_N))
    return ops


def chain_ops(rng: random.Random, count: int) -> list[Op]:
    vs = _v_blocks(rng)
    # verify-chain builds its base family at nmax + max(k) + 2
    N = CHAIN_NMAX + max(CHAIN_K) + 2
    ops = []
    for _ in range(count):
        v = next(vs)
        sigmas = _draw_sigmas(rng, v, N)
        argv = ("verify-chain", "--qsqrt", fmt(v), _sigma_flag(sigmas),
                "--nmax", str(CHAIN_NMAX), "--k", ",".join(map(str, CHAIN_K)))
        ops.append(Op("chain", argv, v, sigmas=sigmas, N=N, nmax=CHAIN_NMAX,
                      ks=CHAIN_K))
    return ops


_GENERATORS = {
    "identities": identities_ops,
    "build": build_ops,
    "chain": chain_ops,
}


def generate(workload: str, seed: int, count: int = OPS_PER_LIST) -> list[Op]:
    """The op list of a workload; the same (workload, seed) gives the same
    list. The workload name is mixed into the seed so that workloads run
    with one seed do not share draws."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, count)
