"""The output validator rejects tampered and vacuous outputs."""

import json
from fractions import Fraction

import checks
from workloads import Op, fmt

V = Fraction(1, 2)
SIGMAS = (Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(3, 4))


def family_dict(N: int) -> dict:
    """A monic family built by hand from the recurrence itself."""
    bs = [Fraction(n + 1, n + 3) for n in range(N)]
    cs = [Fraction(-n, 2 * n + 5) for n in range(1, N)]
    polys = [[Fraction(1)], [-bs[0], Fraction(1)]]
    for n in range(1, N):
        shifted = [Fraction(0)] + polys[n]
        nxt = [a - bs[n] * b for a, b in zip(shifted, polys[n] + [0])]
        nxt = [a - cs[n - 1] * b
               for a, b in zip(nxt, polys[n - 1] + [0, 0])]
        polys.append(nxt)
    return {
        "v": fmt(V), "sigmas": [fmt(s) for s in SIGMAS], "N": N,
        "polys": [[fmt(c) for c in p] for p in polys],
        "B": [fmt(b) for b in bs], "C": [fmt(c) for c in cs],
    }


def build_op(N: int) -> Op:
    return Op("build", (), V, sigmas=SIGMAS, N=N)


def chain_op(nmax: int) -> Op:
    return Op("chain", (), V, sigmas=SIGMAS, N=nmax + 5, nmax=nmax,
              ks=(1, 2, 3))


def chain_report(nmax: int, records: list) -> dict:
    return {
        "context": {"v": fmt(V), "sigmas": [fmt(s) for s in SIGMAS],
                    "N": nmax + 5, "n_max": nmax, "k": [1, 2, 3]},
        "checks": records,
    }


def record(passed=True):
    return {"name": "eq1a", "k": 1, "n": 1, "passed": passed,
            "witness": "0" if passed else "deg=3"}


def out(data) -> bytes:
    return json.dumps(data).encode()


def test_hand_built_family_passes():
    assert checks.check_output(build_op(6), 0, out(family_dict(6))) == []


def test_tampered_B_fails():
    data = family_dict(6)
    data["B"][3] = fmt(Fraction(data["B"][3]) + Fraction(1, 10 ** 9))
    problems = checks.check_output(build_op(6), 0, out(data))
    assert problems == ["recurrence fails at n=3"]


def test_wrong_N_or_echo_fails():
    assert checks.check_output(build_op(7), 0, out(family_dict(6)))
    data = family_dict(6)
    data["sigmas"][0] = "2/6"                  # not canonical
    assert checks.check_output(build_op(6), 0, out(data))


def test_non_monic_fails():
    data = family_dict(4)
    data["polys"][2][-1] = "2"
    assert checks.check_output(build_op(4), 0, out(data))


def test_report_with_a_failed_record_fails():
    data = chain_report(8, [record(), record(passed=False)])
    problems = checks.check_output(chain_op(8), 0, out(data))
    assert len(problems) == 1 and "failed" in problems[0]


def test_vacuous_report_fails():
    # verify-chain --nmax 0 prints "0/0 checks passed" and exits 0
    problems = checks.check_output(chain_op(0), 0, out(chain_report(0, [])))
    assert problems == ["report has no checks"]


def test_report_must_echo_the_request():
    data = chain_report(8, [record()])
    assert checks.check_output(chain_op(8), 0, out(data)) == []
    assert checks.check_output(chain_op(9), 0, out(data))


def test_identities_record_count():
    op = Op("identities", (), V, trials=2, seed=5)
    data = {"context": {"v": "1/2", "trials": 2, "seed": 5, "max_degree": 10},
            "checks": [record()] * 18}
    assert checks.check_output(op, 0, out(data)) == []
    data["checks"] = data["checks"][:17]
    assert checks.check_output(op, 0, out(data))


def test_exit_code_and_garbage():
    assert checks.check_output(build_op(6), 1, out(family_dict(6)))
    assert checks.check_output(build_op(6), 0, b"not json")


def test_max_coeff_bits_reads_rationals_only():
    text = (b'{"context": {"seed": 999999, "trials": 20, "v": "1/2"}, '
            b'"checks": [{"name": "kfold_k5", "k": 5, "n": 19, '
            b'"passed": true, "witness": "c=1/1024;sigmas=-255/4,2"}]}')
    assert checks.max_coeff_bits(text) == 11
