"""Every construction whose output is not checked when it is built
passes validate() here, on small inputs.

The constructors of the object classes check nothing; the library's
constructions are correct by construction, and these cases are what
stands behind that claim, beside the property tests of
test_sset.test_constructions_on_random_subsets_validate.
"""

import pytest

from simpcat import sset
from simpcat.chain_model import (factor_cofib_trivfib, factor_trivcofib_fib,
                                 identity_chain_map, mapping_cone)
from simpcat.doldkan import (dold_kan_gamma, free_complex,
                             free_simplicial_abelian_group,
                             normalized_chains)
from simpcat.errors import FuelExhausted
from simpcat.fibrations import grothendieck_build, join, twisted_arrows
from simpcat.hcnerve import coherent_nerve, frak_c, from_fincategory
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (RelativeCategory, bg, cyclic_table, nerve,
                               ordinal_category)
from simpcat.quasicat import homotopy_category, hom_space, max_kan_subset
from simpcat.segal import embed, rezk_nerve, standard_bisimplex

from test_fibrations import split_example
from test_nerve_cat import iso_pair_category


def _complex():
    """Z --2--> Z in degrees 1 and 0, with homology Z/2 in degree 0."""
    return free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})


def _factorizations():
    f = identity_chain_map(_complex())
    out = []
    for cert in (factor_trivcofib_fib(f), factor_cofib_trivfib(f, 4)):
        if isinstance(cert, FuelExhausted):
            cert = cert.partial
        out += [cert.middle, cert.first, cert.second]
    return out


def _functor_and_categories(F):
    return [F.source, F.target, F]


CONSTRUCTIONS = [
    ("frak_c", lambda: [frak_c(n) for n in range(6)]),
    ("coherent_nerve", lambda: [
        coherent_nerve(frak_c(3), 3),
        coherent_nerve(from_fincategory(bg(cyclic_table(2))), 3)]),
    ("nerve", lambda: [nerve(iso_pair_category(), 3),
                       nerve(bg(cyclic_table(3)), 3)]),
    ("rezk_nerve", lambda: [
        rezk_nerve(RelativeCategory(C, {a for a in C.arrows if C.is_iso(a)}),
                   2, 2)
        for C in (iso_pair_category(), ordinal_category(2))]),
    ("embed", lambda: [embed(kind, nerve(ordinal_category(2), 2), 2)
                       for kind in ("discrete", "constant")]),
    ("standard_bisimplex", lambda: [standard_bisimplex(1, 1, 2, 2)]),
    ("dold_kan_gamma", lambda: [dold_kan_gamma(_complex(), 3)]),
    ("normalized_chains", lambda: [
        normalized_chains(free_simplicial_abelian_group(
            sset.standard_simplex(2), 2)),
        normalized_chains(dold_kan_gamma(_complex(), 3))]),
    ("mapping_cone", lambda: [mapping_cone(identity_chain_map(_complex()))]),
    ("factorizations", _factorizations),
    ("twisted_arrows", lambda: [
        X for C in (ordinal_category(2), iso_pair_category())
        for X in _functor_and_categories(twisted_arrows(C)[1])]),
    ("join", lambda: [join(iso_pair_category(), bg(cyclic_table(2)))]),
    ("grothendieck_build", lambda: _functor_and_categories(
        grothendieck_build(split_example()))),
    ("homotopy_category", lambda: [
        homotopy_category(nerve(iso_pair_category(), 3)),
        homotopy_category(nerve(bg(cyclic_table(2)), 3))]),
    ("max_kan_subset", lambda: [
        max_kan_subset(nerve(iso_pair_category(), 3))]),
    ("hom_space", lambda: [
        hom_space(nerve(iso_pair_category(), 3), "a", "b", side, 2)
        for side in ("right", "left")]),
]


@pytest.mark.parametrize("name, build", CONSTRUCTIONS,
                         ids=[name for name, _ in CONSTRUCTIONS])
def test_construction_validates(name, build):
    objects = build()
    assert objects
    for obj in objects:
        obj.validate()
