"""The seeded input generator."""

from fractions import Fraction

import pytest

from workloads import (
    MAX_FAMILY_N,
    V_LADDER,
    WORKLOADS,
    generate,
    is_admissible,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [op.argv for op in generate(workload, 7, 60)]
    second = [op.argv for op in generate(workload, 7, 60)]
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_argv(workload):
    lists = {tuple(op.argv for op in generate(workload, seed, 60))
             for seed in range(5)}
    assert len(lists) == 5


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", range(5))
def test_every_argv_is_admissible(workload, seed):
    for op in generate(workload, seed, 200):
        assert op.v in V_LADDER
        if workload == "identities":
            continue
        assert is_admissible(op.v, op.sigmas, op.N)
        sigmas_flag = [a for a in op.argv if a.startswith("--sigmas")]
        # the value is glued on with "=", so a leading "-" survives argparse
        assert len(sigmas_flag) == 1 and sigmas_flag[0].startswith("--sigmas=")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_blocks_keep_the_v_mix_fixed(workload):
    for seed in range(5):
        ops = generate(workload, seed, 4 * len(V_LADDER))
        for i in range(0, len(ops), len(V_LADDER)):
            block = ops[i:i + len(V_LADDER)]
            assert sorted(op.v for op in block) == sorted(V_LADDER)


def test_admissibility_rule():
    v = Fraction(1, 2)                       # q = 1/4
    ok = (Fraction(1, 2), Fraction(0), Fraction(0))
    assert is_admissible(v, ok + (Fraction(3),), 20)
    assert not is_admissible(v, ok + (Fraction(1),), 20)        # q^0
    assert not is_admissible(v, ok + (Fraction(4),), 20)        # q^-1
    assert not is_admissible(v, ok + (Fraction(4 ** 38),), 20)  # j = 38
    assert is_admissible(v, ok + (Fraction(4 ** 39),), 20)      # j = 2N - 1
    assert not is_admissible(v, ok + (Fraction(0),), MAX_FAMILY_N + 1)
