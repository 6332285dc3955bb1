"""Every construction whose output is not checked when it is built
passes validate() here, on small inputs.

The constructors of the object classes check nothing; the library's
constructions are correct by construction, and these cases are what
stands behind that claim, beside the property tests of
test_sset.test_constructions_on_random_subsets_validate.
"""

import hashlib

import pytest

from simpcat import formats, sset
from simpcat.chain_model import (factor_cofib_trivfib, factor_trivcofib_fib,
                                 mapping_cone)
from simpcat.doldkan import (dold_kan_gamma, free_complex,
                             free_simplicial_abelian_group,
                             normalized_chains)
from simpcat.errors import FuelExhausted
from simpcat.fibrations import grothendieck_build, join, twisted_arrows
from simpcat.hcnerve import (coherent_nerve, frak_c, from_fincategory,
                             pi0_category)
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (RelativeCategory, bg, category_from_nerve,
                               localize, nerve, ordinal_category,
                               product_category)
from simpcat.quasicat import (equivalences, homotopy_category,
                              homotopy_group, hom_space, max_kan_subset)
from simpcat.segal import (completeness_check, embed, rezk_nerve,
                           standard_bisimplex)

from families import (category_family, cyclic_table, identity_chain_map,
                      iso_pair_category, klein_table, symmetric3_table)
from test_fibrations import split_example


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


def _category_documents():
    """The documents of the categories built from a composition rule: for
    each category C of the family, Tw(C) -> C^op x C, C x C, the category
    read back from N(C), C * C, and the localizations at the isomorphisms
    and at every arrow; then three deloopings and a Grothendieck
    construction."""
    for _, C in category_family():
        yield formats.functor_to_dict(twisted_arrows(C)[1])
        yield formats.category_to_dict(product_category(C, C))
        yield formats.category_to_dict(category_from_nerve(nerve(C, 3)))
        yield formats.category_to_dict(join(C, C))
        for weak in ([a for a in C.arrows if C.is_iso(a)], C.arrows):
            L = localize(RelativeCategory(C, weak), 4)
            yield formats.functor_to_dict(L.functor)
    for table in (cyclic_table(3), klein_table(), symmetric3_table()):
        yield formats.category_to_dict(bg(table))
    yield formats.functor_to_dict(grothendieck_build(split_example()))


def test_category_builders_write_the_pinned_bytes():
    # the digest was taken before these builders shared one composition
    # walk; a rewrite that renames, reorders or recomposes an arrow in
    # any of the documents changes it
    digest = hashlib.sha256()
    count = 0
    for doc in _category_documents():
        digest.update(formats.dumps(doc).encode())
        count += 1
    assert count == 148
    assert digest.hexdigest() == (
        "6a018e194c88146ae8278b26d96c21136d14bf98dc21d4cf12c168bba5782e3c")


def _quotient_documents():
    """The documents of the categories whose arrows are classes: for each
    category C of the family, Ho(N(C)) with the equivalences of N(C),
    pi_0 of C as a simplicial category, and, when no object of C has
    more than four endomorphisms, the completeness reports of the Rezk
    nerves of C at its identities, its isomorphisms and all its arrows;
    then pi_0 of frak_c(0..3) and pi_1 of seven deloopings."""
    for _, C in category_family():
        N = nerve(C, 3)
        yield formats.category_to_dict(homotopy_category(N))
        yield {"edges": sorted(N.describe(e) for e in equivalences(N))}
        yield formats.category_to_dict(pi0_category(from_fincategory(C, 1)))
        if any(len(C.hom(x, x)) > 4 for x in C.objects):
            continue  # BS_3's Rezk nerves: ten times the rest
        for weak in ([C.ident[x] for x in C.objects],
                     [a for a in C.arrows if C.is_iso(a)], C.arrows):
            report = completeness_check(
                rezk_nerve(RelativeCategory(C, weak), 2, 2))
            yield {"type": type(report).__name__, "reason": report.reason,
                   "verdict": getattr(report, "verdict", None),
                   "details": getattr(report, "details", None)}
    for n in range(4):
        yield formats.category_to_dict(pi0_category(frak_c(n)))
    for table in [cyclic_table(m) for m in (1, 2, 3, 4, 6)] + [
            klein_table(), symmetric3_table()]:
        group = homotopy_group(nerve(bg(table), 3), "*", 1)
        yield {"elements": group.elements, "unit": group.unit,
               "structure": group.structure,
               "table": sorted([a, b, c]
                               for (a, b), c in group.table.items())}


def test_quotient_categories_write_the_pinned_bytes():
    # the digest was taken while Ho(X), pi_0 of a simplicial category
    # and the completeness class category kept composition tables of
    # their own; a rewrite that renames, reorders or recomposes a class,
    # or changes a completeness verdict, changes it
    digest = hashlib.sha256()
    count = 0
    for doc in _quotient_documents():
        digest.update(formats.dumps(doc).encode())
        count += 1
    assert count == 152
    assert digest.hexdigest() == (
        "ad23f246be48733ea916f5b7800978ba4626d53ee1bfc34cc62664b7c281b46c")
