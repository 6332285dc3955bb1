"""The presheaf normalizer sset.from_presheaf against the collapse oracle,
through every production caller, and its work fixed as a count."""

import ast
import pathlib

from simpcat import hcnerve, sset
from simpcat.nerve_cat import RelativeCategory, bg, nerve, ordinal_category
from simpcat.quasicat import hom_space
from simpcat.segal import rezk_nerve

from families import category_family, cyclic_table, symmetric3_table
from oracles import from_presheaf_by_collapse


def _caller_cases():
    """(label, thunk) for each production caller of from_presheaf."""
    cases = [("nerve/" + name, lambda C=C: nerve(C, 4))
             for name, C in category_family()]
    square, _ = sset.product(sset.standard_simplex(1),
                             sset.standard_simplex(1))
    cases += [("opposite/horn(3,1)", lambda: sset.opposite(sset.horn(3, 1))),
              ("opposite/square", lambda: sset.opposite(square))]
    # the coherent nerve of Map(0, 1) = Delta^1 has a nondiscrete Hom
    arrow = hcnerve.coherent_nerve(
        hcnerve.two_object_arrow_space(sset.standard_simplex(1)), 3)
    for side in ("right", "left"):
        for X, x, y in [(nerve(ordinal_category(2), 3), "0", "2"),
                        (nerve(bg(cyclic_table(2)), 3), "*", "*"),
                        (arrow, "F0", "F1")]:
            cases.append(("hom_space/%s/%s->%s" % (side, x, y),
                          lambda X=X, x=x, y=y, side=side:
                          hom_space(X, x, y, side, 2)))
    for name, C in [("bz2", bg(cyclic_table(2))),
                    ("ord2", ordinal_category(2))]:
        W = {a for a in C.arrows if C.is_iso(a)}
        X = rezk_nerve(RelativeCategory(C, W), 2, 2)
        for p in range(3):
            cases.append(("row/%s/%d" % (name, p), lambda X=X, p=p: X.row(p)))
    for name, C in [
            ("bz3", hcnerve.from_fincategory(bg(cyclic_table(3)))),
            ("ord2", hcnerve.from_fincategory(ordinal_category(2))),
            ("z2", hcnerve.one_object_from_abelian_group(cyclic_table(2)))]:
        cases.append(("coherent_nerve/" + name,
                      lambda C=C: hcnerve.coherent_nerve(C, 3)))
    return cases


def test_callers_match_collapse_oracle(monkeypatch):
    cases = _caller_cases()
    fast = [thunk().as_dict() for _, thunk in cases]
    monkeypatch.setattr(sset, "from_presheaf", from_presheaf_by_collapse)
    for (label, thunk), expected in zip(cases, fast):
        assert thunk().as_dict() == expected, label


def _count_actions(monkeypatch, normalizer, build):
    calls = [0]

    def counting(D, levels, action, **kwargs):
        def counted(alpha, x):
            calls[0] += 1
            return action(alpha, x)
        return normalizer(D, levels, counted, **kwargs)

    monkeypatch.setattr(sset, "from_presheaf", counting)
    build()
    monkeypatch.undo()
    return calls[0]


def test_normalizer_action_count(monkeypatch):
    # nerve(BS_3, 4): 6^n elements and 5^n nondegenerate cells at level
    # n, so 1555 - 781 = 774 degenerate elements, one push-forward each,
    # and sum over n >= 1 of (n + 1) 5^n = 3710 face lookups
    B = bg(symmetric3_table())
    assert _count_actions(monkeypatch, sset.from_presheaf,
                          lambda: nerve(B, 4)) == 774 + 3710
    assert _count_actions(monkeypatch, from_presheaf_by_collapse,
                          lambda: nerve(B, 4)) == 34698


def test_oracles_do_not_import_the_normalizer():
    # the oracles must stay independent of the code they check
    path = pathlib.Path(__file__).with_name("oracles.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("simpcat"):
            assert "from_presheaf" not in [a.name for a in node.names]
        if isinstance(node, ast.Attribute):
            assert node.attr != "from_presheaf"
    # nor may the backtracking oracles for maps, extensions, functors
    # and horns reach the face-ordered searches they check or the rank
    # tables and face index those read
    engine = {"lift_extensions", "enumerate_maps", "find_isomorphism",
              "_placements", "all_functors", "face_index", "ranked",
              "_horn_stats"}
    oracles = {"lift_extensions_by_dimension_order",
               "maps_by_dimension_order", "all_functors_by_backtracking",
               "facet_tuples_by_intersection", "horn_stats_by_intersection",
               "faces_by_simplex", "simplices_by_faces"}
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in oracles:
            found.add(node.name)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else \
                    sub.attr if isinstance(sub, ast.Attribute) else None
                assert name not in engine, (node.name, name)
    assert found == oracles
