import random

import pytest

from simpcat import formats
from simpcat.chain_model import (ChainMap, FactorizationCertificate,
                                 degreewise_surjective, extend_window,
                                 factor_cofib_trivfib, factor_trivcofib_fib,
                                 is_quasi_iso, join_variable, mapping_cone,
                                 surjective_on_cycles)
from simpcat.doldkan import (ChainComplex, FGAbGroup, free_complex,
                             homology, homology_at)
from simpcat.errors import FuelExhausted, InputError
from simpcat.intlinalg import Mat

from families import identity_chain_map
from oracles import quasi_iso_by_homology_comparison
from test_doldkan import random_complex


def two_term_mult(k, ring="Z"):
    return free_complex(ring, (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[k]])})


def test_identity_is_quasi_iso():
    C = two_term_mult(2)
    report = is_quasi_iso(identity_chain_map(C))
    assert report.verdict
    assert quasi_iso_by_homology_comparison(identity_chain_map(C))


def test_projection_to_torsion_quotient():
    # (Z --2--> Z) -> (Z/2 in degree 0) is a quasi-isomorphism (checked
    # away from the window edges after padding)
    X = free_complex("Z", (-2, 2), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    Y = ChainComplex(0, (-2, 2), {0: (2,)}, {})
    Y.validate()
    f = ChainMap(X, Y, {
        -2: Mat(0, 0), -1: Mat(0, 0), 0: Mat(1, 1, [[1]]),
        1: Mat(0, 1), 2: Mat(0, 0)})
    f.validate()
    report = is_quasi_iso(f)
    assert 0 in report.conclusive_degrees
    assert report.verdict
    assert quasi_iso_by_homology_comparison(f)


def test_quasi_iso_negative():
    # zero map misses the degree-1 homology of the target
    X = free_complex("Z", (-2, 3), {0: 1}, {})
    Y = free_complex("Z", (-2, 3), {0: 1, 1: 1}, {})
    f = ChainMap(X, Y, {n: Mat(Y.rank(n), X.rank(n))
                        for n in range(-2, 4)})
    f.validate()
    report = is_quasi_iso(f)
    assert not report.verdict
    assert not quasi_iso_by_homology_comparison(f)


def test_quasi_iso_ring_mismatch():
    X = two_term_mult(2, "Z")
    Y = two_term_mult(2, "Z/4")
    with pytest.raises(InputError) as direct:
        ChainMap(X, Y, {0: Mat(1, 1, [[1]]), 1: Mat(1, 1, [[1]])})
    with pytest.raises(InputError) as loaded:
        formats.chain_map_from_dict({
            "kind": "chain-map", "source": formats.complex_to_dict(X),
            "target": formats.complex_to_dict(Y),
            "components": {"0": [[1]], "1": [[1]]}})
    assert str(loaded.value) == str(direct.value) == "ring mismatch"


def test_quasi_iso_z4_complex_to_zero():
    # the Z/4 complex with d = multiplication by 2 maps to zero
    # quasi-isomorphically in interior degrees
    ranks = {n: 1 for n in range(5)}
    diff = {n: Mat(1, 1, [[2]]) for n in range(1, 5)}
    X = free_complex("Z/4", (0, 4), ranks, diff)
    Y = ChainComplex(4, (0, 4), {}, {})
    Y.validate()
    f = ChainMap(X, Y, {n: Mat(0, 1) for n in range(5)})
    f.validate()
    report = is_quasi_iso(f)
    assert report.verdict
    assert set(report.conclusive_degrees) == {2, 3}
    assert set(report.inconclusive_degrees) == {0, 1, 4, 5}


def test_join_variable_kills_cycle():
    # join u with du = generator of H_0(Z): result acyclic in interior
    C = free_complex("Z", (0, 1), {0: 1}, {})
    E, incl = join_variable(C, [1], 0)
    assert E.rank(1) == 1
    assert homology_at(E, 0).is_trivial()
    incl2 = incl  # inclusion is a chain map by construction
    assert incl2.at(0).data == [[1]]


def test_join_variable_zero_cycle():
    C = free_complex("Z", (0, 1), {0: 2, 1: 1},
                     {1: Mat(2, 1, [[1], [-1]])})
    E, incl = join_variable(C, [0, 0], 0)
    assert E.rank(1) == 2
    # new summand has zero differential
    assert E.differential(1).column(1) == [0, 0]


def test_join_variable_rejects_noncycle():
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    with pytest.raises(InputError):
        join_variable(C, [1], 1)  # d(generator of degree 1) = 2 != 0


def test_factor_4a_single_generator():
    # 0 -> (Z in degree 0): middle gains one acyclic two-term summand
    X = free_complex("Z", (0, 0), {}, {})
    Y = free_complex("Z", (0, 0), {0: 1}, {})
    f = ChainMap(X, Y, {0: Mat(1, 0)})
    f.validate()
    cert = factor_trivcofib_fib(f)
    assert cert.checks["second_degreewise_surjective"]
    assert cert.checks["added_summand_acyclic"]
    assert cert.checks["first_is_standard_extension"]
    assert cert.composite_equals(f)
    assert cert.middle.rank(0) == 1
    assert cert.middle.rank(-1) == 1


def test_factor_4a_already_surjective():
    C = two_term_mult(2)
    cert = factor_trivcofib_fib(identity_chain_map(C))
    assert cert.composite_equals(identity_chain_map(C))
    assert cert.checks["second_degreewise_surjective"]


def test_factor_4a_random():
    rng = random.Random(11)
    for trial in range(20):
        X = random_complex(rng, modulus=rng.choice([0, 0, 4]), span=2,
                           max_rank=2)
        Y = random_complex(rng, modulus=X.modulus, span=2, max_rank=2)
        lo = min(X.lo, Y.lo)
        hi = max(X.hi, Y.hi)
        Xe = extend_window(X, lo, hi)
        Ye = extend_window(Y, lo, hi)
        f = ChainMap(Xe, Ye, {n: Mat(Ye.rank(n), Xe.rank(n))
                              for n in range(lo, hi + 1)})
        f.validate()
        cert = factor_trivcofib_fib(f)
        assert cert.checks["second_degreewise_surjective"]
        assert cert.checks["added_summand_acyclic"]
        assert cert.composite_equals(f)


def test_factor_4b_identity():
    C = two_term_mult(2)
    result = factor_cofib_trivfib(identity_chain_map(C), fuel=4)
    assert isinstance(result, FactorizationCertificate)
    assert result.checks["second_quasi_iso_interior"]
    assert result.composite_equals(identity_chain_map(C))


def test_factor_4b_free_resolution_of_z2():
    # 0 -> Z/2 (presented over Z): the construction rebuilds a complex
    # quasi-isomorphic to the classical resolution Z --2--> Z in at most
    # 3 killing rounds
    X = free_complex("Z", (0, 1), {}, {})
    Y = ChainComplex(0, (0, 1), {0: (2,)}, {})
    Y.validate()
    f = ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})
    f.validate()
    result = factor_cofib_trivfib(f, fuel=3)
    assert isinstance(result, FactorizationCertificate)
    rounds = [s for s in result.stages if s.get("stage") == "kill-cycles"]
    assert len(rounds) <= 3
    assert result.checks["first_is_standard_extension"]
    p = result.second
    assert degreewise_surjective(p)
    assert surjective_on_cycles(p)
    # middle is quasi-isomorphic to Z/2 in degree 0 on the interior
    H = homology(result.middle)
    assert H[0] == FGAbGroup([2])


def test_factor_4b_acyclic_target():
    # 0 -> acyclic two-term complex terminates quickly
    X = free_complex("Z", (0, 1), {}, {})
    T = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[1]])})
    f = ChainMap(X, T, {0: Mat(1, 0), 1: Mat(1, 0)})
    f.validate()
    result = factor_cofib_trivfib(f, fuel=3)
    assert isinstance(result, FactorizationCertificate)
    rounds = [s for s in result.stages if s.get("stage") == "kill-cycles"]
    assert len(rounds) <= 2


def test_factor_4b_fuel_validation():
    X = free_complex("Z", (0, 1), {}, {})
    Y = ChainComplex(0, (0, 1), {0: (2,)}, {})
    Y.validate()
    f = ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})
    f.validate()
    with pytest.raises(InputError):
        factor_cofib_trivfib(f, fuel=0)


def test_mapping_cone_of_identity_acyclic():
    rng = random.Random(3)
    for trial in range(8):
        C = random_complex(rng, modulus=0, span=2, max_rank=2, free=True)
        cone = mapping_cone(identity_chain_map(C))
        for n in range(cone.lo, cone.hi + 1):
            assert homology_at(cone, n).is_trivial()


def test_quasi_iso_agrees_with_oracle_random():
    rng = random.Random(13)
    agree = 0
    for trial in range(25):
        C = random_complex(rng, modulus=0, span=3, max_rank=2, free=True)
        D = random_complex(rng, modulus=0, span=3, max_rank=2, free=True)
        lo, hi = min(C.lo, D.lo), max(C.hi, D.hi)
        Ce, De = extend_window(C, lo, hi), extend_window(D, lo, hi)
        # random chain map: built by solving the commutation constraint
        # degreewise from the bottom up
        comps = {}
        ok = True
        for n in range(lo, hi + 1):
            rows, cols = De.rank(n), Ce.rank(n)
            found = None
            for attempt in range(40):
                F = Mat(rows, cols, [[rng.randint(-1, 1)
                                      for _ in range(cols)]
                                     for _ in range(rows)])
                if n == lo:
                    found = F
                    break
                lhs = De.differential(n) * F
                rhs = comps[n - 1] * Ce.differential(n)
                if lhs.data == rhs.data:
                    found = F
                    break
            if found is None:
                found = Mat(rows, cols)
                lhs = De.differential(n) * found
                rhs = comps[n - 1] * Ce.differential(n)
                if lhs.data != rhs.data:
                    ok = False
                    break
            comps[n] = found
        if not ok:
            continue
        f = ChainMap(Ce, De, comps)
        f.validate()
        assert bool(is_quasi_iso(f)) == quasi_iso_by_homology_comparison(f)
        agree += 1
    assert agree >= 15
