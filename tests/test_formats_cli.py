import json
import os
import re
import subprocess
import sys

import pytest

import simpcat
from simpcat import formats, quasicat, sset
from simpcat.chain_model import ChainMap
from simpcat.delta import all_surjections
from simpcat.doldkan import (ChainComplex, free_complex,
                             free_simplicial_abelian_group)
from simpcat.fibrations import SplitFunctorToCat
from simpcat.hcnerve import frak_c
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (FinCategory, Functor, RelativeCategory, bg,
                               nerve, ordinal_category)
from simpcat.segal import embed, rezk_nerve
from simpcat.sset import SimplicialSet

from families import (cyclic_table, discrete_category, identity_chain_map,
                      iso_pair_category, parallel_pair_category)


def roundtrip(to_dict, from_dict, obj):
    text = formats.dumps(to_dict(obj))
    back = from_dict(json.loads(text))
    text2 = formats.dumps(to_dict(back))
    assert text == text2
    return back


def test_sset_roundtrip_bit_exact():
    for X in [sset.standard_simplex(2), sset.horn(3, 1),
              nerve(iso_pair_category(), 3)]:
        roundtrip(formats.sset_to_dict, formats.sset_from_dict, X)


def test_category_roundtrip():
    C = iso_pair_category()
    back = roundtrip(formats.category_to_dict, formats.category_from_dict,
                     C)
    assert back.arrows == C.arrows


def test_complex_roundtrip():
    C = free_complex("Z/4", (0, 2), {0: 1, 1: 2, 2: 1},
                     {1: Mat(1, 2, [[2, 0]]), 2: Mat(2, 1, [[0], [2]])})
    roundtrip(formats.complex_to_dict, formats.complex_from_dict, C)


def test_chain_map_roundtrip():
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    f = identity_chain_map(C)
    f2 = roundtrip(formats.chain_map_to_dict, formats.chain_map_from_dict,
                   ChainMap(C, C, dict(f.components)))
    assert f2.at(0).data == [[1]]


def test_simplicial_ab_roundtrip():
    A = free_simplicial_abelian_group(sset.standard_simplex(1), 2)
    roundtrip(formats.simplicial_ab_to_dict,
              formats.simplicial_ab_from_dict, A)


def test_bisimplicial_roundtrip():
    X = embed("discrete", nerve(ordinal_category(1), 2), 2)
    roundtrip(formats.bisimplicial_to_dict, formats.bisimplicial_from_dict,
              X)


def test_simplicial_category_roundtrip():
    F = frak_c(2)
    back = roundtrip(formats.simplicial_category_to_dict,
                     formats.simplicial_category_from_dict, F)
    assert back.objects == F.objects


def run_cli(tmp_path, *argv):
    from simpcat.cli import main
    return main(list(argv))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(formats.dumps(payload))
    return str(path)


def test_cli_check_quasicategory_pass(tmp_path, capsys):
    N = nerve(ordinal_category(2), 3)
    path = write(tmp_path, "n2.sset", formats.sset_to_dict(N))
    assert run_cli(tmp_path, "check-quasicategory", path, "--dim", "3") == 0
    out = capsys.readouterr().out
    assert "quasicategory up to dimension 3" in out


def test_cli_check_kan_fail_with_replayable_witness(tmp_path, capsys):
    N = nerve(ordinal_category(1), 3)
    path = write(tmp_path, "n1.sset", formats.sset_to_dict(N))
    wpath = str(tmp_path / "witness.json")
    assert run_cli(tmp_path, "check-kan", path, "--dim", "3",
                   "--out", wpath) == 1
    witness = json.loads(open(wpath).read())
    X = formats.sset_from_dict(witness["object"])
    # replaying the witness through the library reproduces the failure
    assert quasicat.count_extensions(X, witness["witness"]) == 0


def test_cli_ho_and_nerve(tmp_path):
    C = iso_pair_category()
    cpath = write(tmp_path, "c.cat", formats.category_to_dict(C))
    npath = str(tmp_path / "n.sset")
    assert run_cli(tmp_path, "nerve", cpath, "--dim", "3",
                   "--out", npath) == 0
    hpath = str(tmp_path / "ho.cat")
    assert run_cli(tmp_path, "ho", npath, "--out", hpath) == 0
    Ho = formats.load_object(hpath)
    assert len(Ho.objects) == 3


def test_cli_nerve_and_ho_with_integer_arrow_names(tmp_path):
    doc = {"kind": "category", "objects": ["a", "b"],
           "arrows": [{"name": 10, "src": "a", "dst": "a"},
                      {"name": 11, "src": "b", "dst": "b"},
                      {"name": 12, "src": "a", "dst": "b"}],
           "compose": [[10, 10, 10], [11, 11, 11], [12, 10, 12],
                       [11, 12, 12]],
           "identities": {"a": 10, "b": 11}}
    cpath = write(tmp_path, "int.cat", doc)
    npath = str(tmp_path / "n.sset")
    assert run_cli(tmp_path, "nerve", cpath, "--dim", "3",
                   "--out", npath) == 0
    N = formats.load_object(npath)
    assert N.names[1] == ("12",)
    hpath = str(tmp_path / "ho.cat")
    assert run_cli(tmp_path, "ho", npath, "--out", hpath) == 0
    assert len(formats.load_object(hpath).arrows) == 3


def _iso_pair_doc(ia, ib, u, v):
    """Objects a and b with identities ia and ib, joined by inverse
    arrows u: a -> b and v: b -> a, every arrow weak."""
    return {"kind": "category", "objects": ["a", "b"],
            "arrows": [{"name": ia, "src": "a", "dst": "a"},
                       {"name": ib, "src": "b", "dst": "b"},
                       {"name": u, "src": "a", "dst": "b"},
                       {"name": v, "src": "b", "dst": "a"}],
            "compose": [[ia, ia, ia], [ib, ib, ib], [u, ia, u], [ib, u, u],
                        [v, ib, v], [ia, v, v], [v, u, ia], [u, v, ib]],
            "identities": {"a": ia, "b": ib}, "weak": [ia, ib, u, v]}


def test_cli_rezk_nerve_with_integer_arrow_names(tmp_path, capsys):
    # cells are named through str of each arrow, so integer names write
    # the bytes their string twins do
    written = []
    for names in ([1, 2, 3, 4], ["1", "2", "3", "4"]):
        cpath = write(tmp_path, "c.cat", _iso_pair_doc(*names))
        bpath = str(tmp_path / "c.bis")
        assert run_cli(tmp_path, "rezk-nerve", cpath, "--dim", "3",
                       "--dim2", "2", "--out", bpath) == 0
        for command in ("segal-check", "completeness"):
            assert run_cli(tmp_path, command, bpath) in (0, 1, 2)
        written.append(open(bpath).read())
    assert written[0] == written[1]
    out = capsys.readouterr().out
    assert out.count("strict Segal condition holds") == 2
    assert out.count("complete: ") == 2


def test_cli_localize_with_integer_and_mixed_arrow_names(tmp_path):
    for names in ([1, 2, 3, 4], [1, "ib", 3, "v"]):
        rpath = write(tmp_path, "rel.cat", _iso_pair_doc(*names))
        lpath = str(tmp_path / "loc.cat")
        assert run_cli(tmp_path, "localize", rpath, "--fuel", "4",
                       "--out", lpath) == 0
        Q = formats.load_object(lpath)
        assert Q.is_groupoid() and len(Q.arrows) == 4, names


def test_cli_join_with_integer_arrow_names(tmp_path):
    # join reads each new arrow's side and old name from a table, not back
    # from the new name, so integer names write the bytes their string
    # twins do
    written = []
    for names in ([1, 2, 3, 4], ["1", "2", "3", "4"]):
        cpath = write(tmp_path, "c.cat", _iso_pair_doc(*names))
        jpath = str(tmp_path / "j.cat")
        assert run_cli(tmp_path, "join", cpath, cpath, "--out", jpath) == 0
        J = formats.load_object(jpath)
        assert len(J.objects) == 4 and len(J.arrows) == 12, names
        written.append(open(jpath).read())
    assert written[0] == written[1]


def test_cli_export_dot_with_mixed_arrow_names(tmp_path, capsys):
    # integers sort before strings, each kind in its own order
    path = write(tmp_path, "mixed.cat", _iso_pair_doc(1, 2, "i", "g"))
    assert run_cli(tmp_path, "export-dot", path) == 0
    out = capsys.readouterr().out
    assert out.index('[label="g"]') < out.index('[label="i"]')
    path = write(tmp_path, "int.cat", _iso_pair_doc(1, 2, 30, 4))
    assert run_cli(tmp_path, "export-dot", path) == 0
    out = capsys.readouterr().out
    assert out.index('[label="4"]') < out.index('[label="30"]')


@pytest.mark.parametrize("vertices", [[1, 2], ["e", 2]])
def test_cli_ho_then_nerve_with_integer_vertex_names(tmp_path, vertices):
    # the one edge a -> b of Delta^1 on integer or mixed vertex names:
    # ho writes identities keyed by the string of each object's name,
    # and nerve reads such a key as the object it names
    a, b = vertices
    X = {"kind": "simplicial-set", "truncation": None,
         "cells": {"0": vertices, "1": ["f"]},
         "faces": {"1:f": [[[0], b], [[0], a]]}}
    xpath = write(tmp_path, "x.sset", X)
    hpath, npath = str(tmp_path / "ho.cat"), str(tmp_path / "n.sset")
    assert run_cli(tmp_path, "ho", xpath, "--out", hpath) == 0
    Ho = formats.load_object(hpath)
    assert Ho.objects == (a, b) and len(Ho.arrows) == 3
    assert formats.dumps(formats.category_to_dict(Ho)) == \
        open(hpath).read()
    assert run_cli(tmp_path, "nerve", hpath, "--dim", "2",
                   "--out", npath) == 0
    N = formats.load_object(npath)
    assert N.cells(0) == (a, b) and N.cells(1) == ("[f]",)


def test_cli_names_written_alike_exit_3(tmp_path, capsys):
    # names built from the caller's can coincide, and a document keys by
    # names written through str: the writers and homotopy_category refuse
    # them with the messages validate() gives for duplicates
    def refused(message, *argv):
        assert run_cli(tmp_path, *argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "input error: %s\n" % message, argv

    # arrows 1 and "1" form a category, whose constructions do not
    doc = {"kind": "category", "objects": ["a", "b"],
           "arrows": [{"name": n, "src": x, "dst": y} for n, x, y in (
               ("ia", "a", "a"), ("ib", "b", "b"), (1, "a", "b"),
               ("1", "a", "b"))],
           "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"]] + [
               t for u in (1, "1") for t in (
                   [u, "ia", u], ["ib", u, u])],
           "identities": {"a": "ia", "b": "ib"}, "weak": ["ia", "ib"]}
    path = write(tmp_path, "alike.cat", doc)
    for message, argv in (
            ("duplicate cell names in dimension 1", ["nerve", path]),
            ("duplicate arrow names", ["join", path, path]),
            ("duplicate object names", ["twisted-arrows", path]),
            ("duplicate cells at (1, 0)", ["rezk-nerve", path]),
            ("duplicate arrow names", ["localize", path])):
        refused(message, *argv)
    # the names of C^op x C and of the cross arrows of a join are built
    # from pairs of names, and (a,b,c) and X.a->b->c pair two ways
    objects = write(tmp_path, "objects.cat", formats.category_to_dict(
        discrete_category(["a", "b,c", "a,b", "c"])))
    refused("duplicate object names", "twisted-arrows", objects)
    left, right = (write(tmp_path, "%s.cat" % side, formats.category_to_dict(
        discrete_category(names))) for side, names in (
            ("left", ["a", "a->b"]), ("right", ["b->c", "c"])))
    refused("duplicate arrow names", "join", left, right)
    X = {"kind": "simplicial-set", "truncation": None,
         "cells": {"0": ["a", "b"], "1": [1, "1"]},
         "faces": {"1:1": [[[0], "b"], [[0], "a"]]}}
    refused("duplicate arrow names", "ho", write(tmp_path, "alike.sset", X))
    # x -a-> y -b|c-> w and x -a|b-> z -c-> w both compose to u, and the
    # nerve writes both 2-cells [a|b|c]
    ident = {x: "1" + x for x in "xyzw"}
    ends = {"a": "xy", "b|c": "yw", "a|b": "xz", "c": "zw", "u": "xw"}
    ends.update({e: x + x for x, e in ident.items()})
    comp = {(g, f): f if g in ident.values() else
            g if f in ident.values() else "u"
            for g in ends for f in ends if ends[f][1] == ends[g][0]}
    C = FinCategory("xyzw", list(ends), {a: e[0] for a, e in ends.items()},
                    {a: e[1] for a, e in ends.items()}, comp, ident)
    C.validate()
    refused("duplicate cell names in dimension 2", "nerve",
            write(tmp_path, "paths.cat", formats.category_to_dict(C)),
            "--dim", "2")
    # an edge of B(Z/2) named as the identity of its vertex is written
    N = nerve(bg(cyclic_table(2)), 3)
    renamed = SimplicialSet(N.truncation, [N.names[0], ("s00(*)",)]
                            + N.names[2:], N.faces)
    renamed.validate()
    path = write(tmp_path, "bz2.sset", formats.sset_to_dict(renamed))
    for command in ("ho", "equivalences", "max-kan"):
        refused("duplicate arrow names", command, path)
    refused("duplicate arrow names", "pi1", path, "--base", "*")


def test_category_document_with_mixed_arrow_names_roundtrips():
    # the composition triples are sorted integers first, then strings
    C = formats.category_from_dict(_iso_pair_doc(1, 2, "i", "g"))
    d = formats.category_to_dict(C.category, weak=C.weak)
    assert d["compose"][0] == [1, 1, 1] and d["weak"] == [1, 2, "g", "i"]
    back = formats.category_from_dict(json.loads(formats.dumps(d)))
    assert formats.category_to_dict(back.category, weak=back.weak) == d


def test_cli_pi1(tmp_path):
    N = nerve(bg(cyclic_table(3)), 3)
    path = write(tmp_path, "bz3.sset", formats.sset_to_dict(N))
    out = str(tmp_path / "pi1.json")
    assert run_cli(tmp_path, "pi1", path, "--base", "*",
                   "--out", out) == 0
    d = json.loads(open(out).read())
    assert d["order"] == 3
    assert d["structure"] == "cyclic order 3"


def test_cli_pi1_over_the_candidate_budget_exits_2(tmp_path, capsys,
                                                  monkeypatch):
    # nerve(BZ/3, 3) has 9 candidate 2-simplices
    N = nerve(bg(cyclic_table(3)), 3)
    path = write(tmp_path, "bz3.sset", formats.sset_to_dict(N))
    out = tmp_path / "pi1.json"
    monkeypatch.setattr(quasicat, "CANDIDATE_BUDGET", 8)
    assert quasicat.homotopy_group(N, "*", 1).reason == \
        "9 candidate 2-simplices exceed the budget of 8"
    for argv in (["pi1", path], ["pin", path, "--n", "1"]):
        assert run_cli(tmp_path, *argv, "--base", "*",
                       "--out", str(out)) == 2
        assert capsys.readouterr().out == "fuel exhausted: 9 candidate " \
            "2-simplices exceed the budget of 8\n"
        assert not out.exists()
    monkeypatch.setattr(quasicat, "CANDIDATE_BUDGET", 9)
    assert run_cli(tmp_path, "pi1", path, "--base", "*") == 0


def test_cli_pin_and_pi0(tmp_path):
    N = nerve(bg(cyclic_table(2)), 4)
    path = write(tmp_path, "bz2.sset", formats.sset_to_dict(N))
    out = str(tmp_path / "pi2.json")
    assert run_cli(tmp_path, "pin", path, "--n", "2", "--base", "*",
                   "--out", out) == 0
    d = json.loads(open(out).read())
    assert d["order"] == 1
    out0 = str(tmp_path / "pi0.json")
    assert run_cli(tmp_path, "pi0", path, "--out", out0) == 0
    assert json.loads(open(out0).read())["count"] == 1


def test_cli_pi0_with_mixed_vertex_names(tmp_path):
    # a component mixing integer and string vertex names sorts integers
    # first, as documents sort mixed names
    X = {"kind": "simplicial-set", "truncation": None,
         "cells": {"0": ["e", 2], "1": ["f"]},
         "faces": {"1:f": [[[0], 2], [[0], "e"]]}}
    out = str(tmp_path / "pi0.json")
    assert run_cli(tmp_path, "pi0", write(tmp_path, "mixed.sset", X),
                   "--out", out) == 0
    assert json.loads(open(out).read())["classes"] == [[2, "e"]]


def test_cli_bg_and_localize(tmp_path):
    table = {"kind": "monoid-table",
             "table": [[g, h, v] for (g, h), v in
                       sorted(cyclic_table(2).items())]}
    tpath = write(tmp_path, "z2.monoid", table)
    bpath = str(tmp_path / "bz2.cat")
    assert run_cli(tmp_path, "bg", tpath, "--out", bpath) == 0
    C = ordinal_category(1)
    d = formats.category_to_dict(C, weak=set(C.arrows))
    rpath = write(tmp_path, "rel.cat", d)
    lpath = str(tmp_path / "loc.cat")
    assert run_cli(tmp_path, "localize", rpath, "--fuel", "6",
                   "--out", lpath) == 0
    Q = formats.load_object(lpath)
    assert Q.is_groupoid()


def test_cli_homology_and_quasi_iso(tmp_path, capsys):
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    cpath = write(tmp_path, "c.cx", formats.complex_to_dict(C))
    assert run_cli(tmp_path, "homology", cpath) == 0
    out = capsys.readouterr().out
    assert "H_0 = Z/2" in out
    f = identity_chain_map(C)
    fpath = write(tmp_path, "f.cm",
                  formats.chain_map_to_dict(
                      ChainMap(C, C, dict(f.components))))
    assert run_cli(tmp_path, "quasi-iso", fpath) == 0


def test_cli_refuses_a_map_off_d_and_a_modulus_below_2(tmp_path, capsys):
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    cmap = formats.chain_map_to_dict(identity_chain_map(C))
    # d sends the generator of degree 1 to twice the one of degree 0, so
    # f_0 (3) d = 6 and d f_1 (1) = 2 differ
    path = write(tmp_path, "off-d.cm", dict(cmap, components=dict(
        cmap["components"], **{"0": [[3]]})))
    assert run_cli(tmp_path, "quasi-iso", path) == 3
    assert capsys.readouterr() == (
        "", "input error: map does not commute with d at degree 1\n")
    for ring in ("Z/1", "Z/0"):
        path = write(tmp_path, "ring.cx",
                     dict(formats.complex_to_dict(C), ring=ring))
        assert run_cli(tmp_path, "homology", path) == 3, ring
        assert capsys.readouterr() == (
            "", "input error: modulus must be >= 2\n"), ring


def test_cli_factorizations(tmp_path):
    X = free_complex("Z", (0, 1), {}, {})
    Y = free_complex("Z", (0, 1), {0: 1}, {})
    f = ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})
    f.validate()
    fpath = write(tmp_path, "f.cm", formats.chain_map_to_dict(f))
    out = str(tmp_path / "cert.json")
    assert run_cli(tmp_path, "factor-4a", fpath, "--out", out) == 0
    cert = json.loads(open(out).read())
    assert cert["checks"]["second_degreewise_surjective"]
    assert run_cli(tmp_path, "factor-4b", fpath, "--fuel", "4",
                   "--out", out) == 0


def test_cli_left_fibration_and_cocart(tmp_path):
    from test_fibrations import square_to_triangle, z4_to_z2
    G, H, F = z4_to_z2()
    fpath = write(tmp_path, "f.fun", formats.functor_to_dict(F))
    assert run_cli(tmp_path, "left-fibration", fpath) == 0
    S, T, F2 = square_to_triangle()
    fpath2 = write(tmp_path, "sq.fun", formats.functor_to_dict(F2))
    out = str(tmp_path / "analysis.json")
    assert run_cli(tmp_path, "cocart-analyze", fpath2, "--out", out) == 1
    d = json.loads(open(out).read())
    assert d["verdicts"]["is_locally_cocartesian_fibration"]
    assert not d["verdicts"]["is_cocartesian_fibration"]
    # the analysis report exports to dot
    dot = str(tmp_path / "analysis.dot")
    assert run_cli(tmp_path, "export-dot", out, "--out", dot) == 0
    assert "locally-cocartesian" in open(dot).read()


def test_cli_segal_and_completeness(tmp_path, capsys):
    C = iso_pair_category()
    W = {a for a in C.arrows if C.is_iso(a)}
    rpath = write(tmp_path, "rel.cat",
                  formats.category_to_dict(C, weak=W))
    bpath = str(tmp_path / "b.bis")
    assert run_cli(tmp_path, "rezk-nerve", rpath, "--dim", "3",
                   "--dim2", "2", "--out", bpath) == 0
    assert run_cli(tmp_path, "segal-check", bpath) == 0
    assert run_cli(tmp_path, "completeness", bpath) == 0
    X = embed("discrete", nerve(bg(cyclic_table(2)), 3), 2)
    xpath = write(tmp_path, "x.bis", formats.bisimplicial_to_dict(X))
    out = str(tmp_path / "w.json")
    assert run_cli(tmp_path, "completeness", xpath, "--out", out) == 1


def test_cli_completeness_refuses_a_row_with_unfilled_inner_horns(
        tmp_path, capsys):
    # the boundary of Delta^2 declared complete up to dimension 2 has no
    # filler for its inner 2-horn, so row 0 of its constant bisimplicial
    # set is not the nerve of a category
    B = sset.boundary(2)
    X = embed("constant", SimplicialSet(2, B.names, B.faces), 2)
    path = write(tmp_path, "c.bis", formats.bisimplicial_to_dict(X))
    assert run_cli(tmp_path, "completeness", path) == 2
    out, err = capsys.readouterr()
    assert out == ("not decidable: row 0: row is not nerve-like (inner "
                   "fillers not unique)\n") and err == ""


# renamed cells are numbered from here, above every count the outputs
# below hold, so a number this large in an output is a renamed cell
_FIRST_NUMBER = 1000


def _integer_named(doc):
    """doc, a simplicial or bisimplicial set, with its cells renamed to
    integers from _FIRST_NUMBER on in the sorted order of their names,
    and {integer: name}."""
    names = sorted({x for level in doc["cells"].values() for x in level})
    new = {x: _FIRST_NUMBER + i for i, x in enumerate(names)}
    out = dict(doc, cells={k: [new[x] for x in level]
                           for k, level in doc["cells"].items()})
    if doc["kind"] == "simplicial-set":
        out["faces"] = {}
        for key, faces in doc["faces"].items():
            k, x = key.split(":", 1)
            out["faces"]["%s:%d" % (k, new[x])] = [[s, new[y]]
                                                   for s, y in faces]
    else:
        for tables in ("h_faces", "h_degens", "v_faces", "v_degens"):
            out[tables] = {k: {str(new[x]): new[y] for x, y in t.items()}
                           for k, t in doc[tables].items()}
    return out, {i: x for x, i in new.items()}


def _named_back(value, names):
    """value, read from the output of a command on an integer-named
    document, with each integer of names written back as its name."""
    if isinstance(value, (list, tuple)):
        return [_named_back(v, names) for v in value]
    if isinstance(value, dict):
        return {_named_back(k, names): _named_back(v, names)
                for k, v in value.items()}
    if isinstance(value, str):
        return re.sub(r"(?<!\w)\d+(?!\w)", lambda m: str(
            names.get(int(m.group()), m.group())), value)
    return names.get(value, value)


def _result(code, capsys):
    """The exit code, each output line (a document parsed) and stderr."""
    out, err = capsys.readouterr()
    lines = [json.loads(line) if line.startswith("{") else line
             for line in out.splitlines()]
    for line in lines:
        if isinstance(line, dict) and line.get("kind") == "equivalences":
            # sorted by name, and integers sort apart from strings
            line["edges"].sort(key=str)
    return [code, lines, err]


def test_cli_integer_names_decide_as_their_string_names_do(tmp_path,
                                                           capsys):
    # every kind of verdict: complete, not complete and not decidable;
    # Kan and not Kan; pi_1 and a failed precondition
    cases = []
    for C in (bg(cyclic_table(2)), iso_pair_category(),
              ordinal_category(2)):
        for weak in ([C.ident[x] for x in C.objects],
                     [a for a in C.arrows if C.is_iso(a)], C.arrows):
            cases.append((formats.bisimplicial_to_dict(rezk_nerve(
                RelativeCategory(C, weak), 2, 2)), None, [["completeness"]]))
    for C in (bg(cyclic_table(2)), ordinal_category(2)):
        # None stands for the first vertex
        cases.append((formats.sset_to_dict(nerve(C, 3)), C.objects[0], [
            ["equivalences"], ["check-kan"], ["pi1", "--base", None],
            ["hom-space", None, None, "--dim", "1"]]))
    codes = set()
    for doc, x, commands in cases:
        int_doc, names = _integer_named(doc)
        vertices = [x, {name: str(i) for i, name in names.items()}.get(x)]
        paths = [write(tmp_path, "s.json", doc),
                 write(tmp_path, "i.json", int_doc)]
        for argv in commands:
            string_run, int_run = (_result(run_cli(
                tmp_path, argv[0], path, *[v if a is None else a
                                           for a in argv[1:]]), capsys)
                for path, v in zip(paths, vertices))
            assert _named_back(int_run, names) == string_run, argv
            codes.add(string_run[0])
    assert codes == {0, 1, 2}


def test_cli_join_twisted_export(tmp_path):
    C = ordinal_category(1)
    cpath = write(tmp_path, "c.cat", formats.category_to_dict(C))
    jpath = str(tmp_path / "j.cat")
    assert run_cli(tmp_path, "join", cpath, cpath, "--out", jpath) == 0
    J = formats.load_object(jpath)
    assert len(J.objects) == 4
    tpath = str(tmp_path / "tw.fun")
    assert run_cli(tmp_path, "twisted-arrows", cpath, "--out", tpath) == 0
    dpath = str(tmp_path / "c.dot")
    assert run_cli(tmp_path, "export-dot", cpath, "--out", dpath) == 0
    assert "digraph" in open(dpath).read()


def test_cli_frak_c_and_coherent_nerve(tmp_path):
    fpath = str(tmp_path / "f2.scat")
    assert run_cli(tmp_path, "frak-c", "2", "--out", fpath) == 0
    npath = str(tmp_path / "cn.sset")
    assert run_cli(tmp_path, "coherent-nerve", fpath, "--dim", "2",
                   "--out", npath) == 0
    N = formats.load_object(npath)
    assert N.n_cells(0) == 3


def _broken_frak3_documents():
    """frak_c(3) as a document, broken in one way per failure kind of a
    simplicial category: (what is broken, document, failure kind)."""
    doc = formats.simplicial_category_to_dict(frak_c(3))

    def cell(pair, name):
        # the index of a cell, named by its chain of subsets
        return doc["map_spaces"][pair]["cells"][str(name.count("<"))] \
            .index(name)

    def constant(pair, name):
        # every composite of the table becomes the vertex `name`
        return lambda g, f, h: [[0] * len(h[0]), cell(pair, name)]

    def replace(g_name, f_name, h, degeneracies):
        # the entry of table 0|1|3 at (g, f), given as (surjection, name),
        # becomes h; with degeneracies, each sigma^*(g, f) up to the
        # level bound 2 becomes sigma^*(h) too
        g = [g_name[0], cell("1|3", g_name[1])]
        f = [f_name[0], cell("0|1", f_name[1])]
        k = len(g[0]) - 1
        new = {}
        for q in range(k, 3 if degeneracies else k + 1):
            for sigma in all_surjections(q, k):
                g2, f2, h2 = ([[s[v] for v in sigma], i] for s, i in (g, f, h))
                new[repr([g2, f2])] = h2
        return lambda g2, f2, h2: new.get(repr([g2, f2]), h2)

    def retable(key, fn):
        table = [[g, f, fn(g, f, h)] for g, f, h in doc["compositions"][key]]
        assert table != doc["compositions"][key]
        return dict(doc, compositions=dict(doc["compositions"],
                                           **{key: table}))

    return [
        # consistent with its degeneracies, but d_0 of 013 = 013 is not
        # d_0 of 13<123 composed with 01, which is 0123
        ("nondegenerate face", retable("0|1|3", replace(
            ([0, 1], "13<123"), ([0, 0], "01"),
            [[0, 0], cell("0|3", "013")], True)), "not simplicial"),
        ("degenerate entry", retable("0|1|3", replace(
            ([0, 0], "13"), ([0, 0], "01"),
            [[0, 1], cell("0|3", "013<0123")], False)),
         "not simplicial"),
        # a constant map is simplicial, but (23 . 12) . 01 = 0123 while
        # 23 . (12 . 01) is now 023
        ("associativity", retable("0|2|3", constant("0|3", "023")),
         "not associative"),
        ("unit law", retable("0|0|2", constant("0|2", "02")), "unit law"),
        ("identity", dict(doc, identities=dict(doc["identities"],
                                               **{"1": "nope"})),
         "identity vertex"),
    ]


def test_cli_coherent_nerve_names_each_failure_kind(tmp_path, capsys):
    for what, doc, kind in _broken_frak3_documents():
        path = write(tmp_path, "bad.scat", doc)
        assert run_cli(tmp_path, "coherent-nerve", path, "--dim", "2") == 3, \
            what
        err = capsys.readouterr().err
        assert "Traceback" not in err, what
        assert kind in err, (what, err)


def test_cli_dold_kan_pipeline(tmp_path):
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    cpath = write(tmp_path, "c.cx", formats.complex_to_dict(C))
    apath = str(tmp_path / "a.sab")
    assert run_cli(tmp_path, "dold-kan", cpath, "--dim", "2",
                   "--out", apath) == 0
    npath = str(tmp_path / "n.cx")
    assert run_cli(tmp_path, "normalized-chains", apath,
                   "--out", npath) == 0
    N = formats.load_object(npath)
    assert N.rank(0) == 1 and N.rank(1) == 1


def test_cli_normalized_chains_ignores_tables_outside_the_truncation(
        tmp_path, capsys):
    # a face at level 0, a degeneracy at the top level and a face above
    # the truncation name no structure map, and are dropped on load
    doc = {"kind": "simplicial-abelian-group", "ring": "Z",
           "truncation": 0, "coefficients": {"0": [0]}, "faces": {},
           "degeneracies": {}}
    out = str(tmp_path / "n.cx")
    assert run_cli(tmp_path, "normalized-chains",
                   write(tmp_path, "a.sab", doc), "--out", out) == 0
    want = (capsys.readouterr().out, open(out, "rb").read())
    for table, key in [("faces", "0,0"), ("degeneracies", "0,0"),
                       ("faces", "5,0")]:
        stray = dict(doc, **{table: {key: []}})
        assert run_cli(tmp_path, "normalized-chains",
                       write(tmp_path, "b.sab", stray), "--out", out) == 0
        assert (capsys.readouterr().out, open(out, "rb").read()) == want


def test_cli_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(tmp_path, "homology", str(bad)) == 3
    missing = str(tmp_path / "missing.json")
    assert run_cli(tmp_path, "homology", missing) == 3


def test_cli_usage_errors_exit_3(tmp_path, capsys):
    C = iso_pair_category()
    W = {a for a in C.arrows if C.is_iso(a)}
    rpath = write(tmp_path, "rel.cat", formats.category_to_dict(C, weak=W))
    cx = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    xpath = write(tmp_path, "c.cx", formats.complex_to_dict(cx))
    spath = write(tmp_path, "bz2.sset",
                  formats.sset_to_dict(nerve(bg(cyclic_table(2)), 3)))
    for argv in [("rezk-nerve", rpath, "--dim2", "-1"),
                 ("dold-kan", xpath, "--dim", "-1"),
                 ("pin", spath, "--n", "0", "--base", "*"),
                 ("pin", spath, "--n", "-1", "--base", "*"),
                 ("nerve",),
                 ("nerve", rpath, "--dim", "abc"),
                 ("localize", rpath, "--fuel", "0")]:
        assert run_cli(tmp_path, *argv) == 3, argv
    assert "Traceback" not in capsys.readouterr().err
    assert run_cli(tmp_path, "nerve", "--help") == 0


def test_cli_malformed_documents_exit_3(tmp_path, capsys):
    not_object = write(tmp_path, "list.json", [1, 2])
    d = formats.sset_to_dict(sset.standard_simplex(1))
    d["faces"]["1:0-1"] = 5
    bad_entry = write(tmp_path, "entry.sset", d)
    d["faces"]["1:0-1"] = [5, [[0], "0"]]
    bad_face = write(tmp_path, "face.sset", d)
    d["cells"] = [["0"]]
    bad_cells = write(tmp_path, "cells.sset", d)
    for path in (not_object, bad_entry, bad_face, bad_cells):
        assert run_cli(tmp_path, "check-kan", path) == 3, path
    d = formats.sset_to_dict(sset.standard_simplex(1))
    for truncation, code in [(1, 0), (True, 3)]:
        path = write(tmp_path, "t.sset", dict(d, truncation=truncation))
        assert run_cli(tmp_path, "check-kan", path, "--dim", "1") == code
    assert run_cli(tmp_path, "export-dot", not_object) == 3
    bis = formats.bisimplicial_to_dict(
        embed("discrete", nerve(ordinal_category(1), 2), 2))
    for key, value in [("truncation", 5), ("v_degens", []),
                       ("cells", dict(bis["cells"], **{"0,0": [["a"]]})),
                       ("cells", dict(bis["cells"], **{"0,01": []})),
                       ("h_faces", dict(bis["h_faces"], **{
                           "1,0,0": {k: [v] for k, v in
                                     bis["h_faces"]["1,0,0"].items()}}))]:
        path = write(tmp_path, "bad.bis", dict(bis, **{key: value}))
        for command in ("segal-check", "completeness"):
            assert run_cli(tmp_path, command, path) == 3, (key, command)
    cat = formats.category_to_dict(ordinal_category(1))
    path = write(tmp_path, "bad.cat", dict(cat, arrows=5))
    assert run_cli(tmp_path, "nerve", path) == 3
    path = write(tmp_path, "kind.cat", {"kind": [0], "objects": []})
    assert run_cli(tmp_path, "nerve", path) == 3
    # a boolean is not a name, though True == 1 would find the arrow 1
    for name, code in [(1, 0), (True, 3)]:
        doc = {"kind": "category", "objects": ["a"],
               "arrows": [{"name": 1, "src": "a", "dst": "a"}],
               "identities": {"a": name}, "compose": [[1, 1, 1]]}
        path = write(tmp_path, "named.cat", doc)
        assert run_cli(tmp_path, "nerve", path) == code, name
        doc = {"kind": "simplicial-set", "truncation": None,
               "cells": {"0": [0, 1], "1": ["e"]},
               "faces": {"1:e": [[[0], 1], [[0], name]]}}
        path = write(tmp_path, "named.sset", doc)
        assert run_cli(tmp_path, "check-kan", path, "--dim", "1") == code, \
            name
    # integer keys are written as str writes them: "01" and "٢" would
    # name a level beside "1" and "2"
    d = formats.sset_to_dict(sset.standard_simplex(1))
    for cells in ({"0": d["cells"]["0"], "01": d["cells"]["1"]},
                  dict(d["cells"], **{"٢": ["x"]})):
        path = write(tmp_path, "key.sset", dict(d, cells=cells))
        for command in ("export-dot", "check-kan"):
            assert run_cli(tmp_path, command, path) == 3, (cells, command)
    cx = formats.complex_to_dict(
        free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])}))
    for key, value in [("window", 5), ("ring", "Z/x"), ("window", [0, True]),
                       ("differentials", {"1": [[True]]}),
                       ("differentials", {"1": [[2]], "01": [[0]]}),
                       ("coefficients", {"0": [0], "1": [False]})]:
        path = write(tmp_path, "bad.cx", dict(cx, **{key: value}))
        assert run_cli(tmp_path, "homology", path) == 3, (key, value)
    # a modulus is written as str writes it: "02" and "٢" would name 2
    for ring, code in [("Z/2", 0), ("Z/02", 3), ("Z/٢", 3)]:
        path = write(tmp_path, "ring.cx", dict(cx, ring=ring))
        for command in ("homology", "dold-kan"):
            assert run_cli(tmp_path, command, path) == code, (ring, command)
    ranked = {"kind": "chain-complex", "ring": "Z", "window": [0, 1],
              "ranks": {"0": 1, "1": 1}, "differentials": {"1": [[2]]}}
    path = write(tmp_path, "ranked.cx", ranked)
    assert run_cli(tmp_path, "homology", path) == 0
    for key, value in [("ranks", {"0": True, "1": 1}),
                       ("differentials", {"1": [[True]]})]:
        path = write(tmp_path, "bad.cx", dict(ranked, **{key: value}))
        assert run_cli(tmp_path, "homology", path) == 3, key
    cmap = formats.chain_map_to_dict(identity_chain_map(
        free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})))
    path = write(tmp_path, "bad.cm", dict(cmap, components=dict(
        cmap["components"], **{"0": [[True]]})))
    assert run_cli(tmp_path, "quasi-iso", path) == 3
    sab = formats.simplicial_ab_to_dict(
        free_simplicial_abelian_group(sset.standard_simplex(1), 2))
    for key, value in [("truncation", True),
                       ("coefficients", dict(sab["coefficients"],
                                             **{"0": [0, True]}))]:
        path = write(tmp_path, "bad.sab", dict(sab, **{key: value}))
        assert run_cli(tmp_path, "normalized-chains", path) == 3, key
    from test_fibrations import z4_to_z2
    C = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})
    # each document runs as given and exits 3 once one field is 5
    for command, doc, key in [
            ("left-fibration", formats.functor_to_dict(z4_to_z2()[2]),
             "source"),
            ("quasi-iso", formats.chain_map_to_dict(identity_chain_map(C)),
             "components"),
            ("normalized-chains", formats.simplicial_ab_to_dict(
                free_simplicial_abelian_group(sset.standard_simplex(1), 2)),
             "coefficients"),
            ("coherent-nerve", formats.simplicial_category_to_dict(
                frak_c(2)), "map_spaces")]:
        dim = ["--dim", "2"] if command == "coherent-nerve" else []
        path = write(tmp_path, "doc.json", doc)
        assert run_cli(tmp_path, command, path, *dim) == 0, command
        path = write(tmp_path, "bad.json", dict(doc, **{key: 5}))
        assert run_cli(tmp_path, command, path, *dim) == 3, command
    assert "Traceback" not in capsys.readouterr().err
    # a simplicial category without a map space or a composition entry
    scat = formats.simplicial_category_to_dict(frak_c(2))
    spaces = {k: v for k, v in scat["map_spaces"].items() if k != "0|0"}
    tables = dict(scat["compositions"], **{"0|0|0": []})
    for key, value, message in [
            ("map_spaces", spaces, "the map space 0|0 is missing"),
            ("compositions", tables, "the composition table 0|0|0 lacks "
             "the entry for g = [[0], 0], f = [[0], 0]")]:
        path = write(tmp_path, "bad.scat", dict(scat, **{key: value}))
        assert run_cli(tmp_path, "coherent-nerve", path, "--dim", "2") == 3
        assert capsys.readouterr().err == "input error: %s\n" % message
    path = write(tmp_path, "bad.scat", dict(scat, objects=[0, 1, 2]))
    assert run_cli(tmp_path, "coherent-nerve", path, "--dim", "2") == 3
    # the command-local kinds check their shape like the loaders
    z2 = [[g, h, v] for (g, h), v in sorted(cyclic_table(2).items())]
    unclosed = [[g, h, "g2" if (g, h) == ("g1", "g1") else v]
                for g, h, v in z2]
    for doc in ({"kind": "monoid-table", "table": [1]},
                {"kind": "monoid-table"},
                {"kind": "monoid-table", "table": unclosed}):
        path = write(tmp_path, "bad.monoid", doc)
        assert run_cli(tmp_path, "bg", path) == 3, doc
    split = split_functor_doc()
    transports = dict(split["transports"], nope=split["transports"]["0<=1"])
    for key, value in [("fibers", []), ("transports", transports),
                       ("base", dict(split["base"], objects=5))]:
        path = write(tmp_path, "bad.split", dict(split, **{key: value}))
        assert run_cli(tmp_path, "grothendieck-build", path) == 3, key
    for arrows in ([], {"f": 5}, None):
        doc = {"kind": "cocart-analysis", "arrows": arrows}
        path = write(tmp_path, "bad.json",
                     {k: v for k, v in doc.items() if v is not None})
        assert run_cli(tmp_path, "export-dot", path) == 3, arrows
    cmap = formats.chain_map_to_dict(identity_chain_map(C))
    del cmap["components"]["1"]
    path = write(tmp_path, "bad.json", cmap)
    assert "Traceback" not in capsys.readouterr().err
    assert run_cli(tmp_path, "quasi-iso", path) == 3
    assert capsys.readouterr().err == "input error: component 1 missing\n"


def split_functor_doc():
    """A split-functor document over [1]: the point over 0, the discrete
    category on two objects over 1, the transport picking one of them."""
    base = ordinal_category(1)
    fibers = {"0": discrete_category(["p"]),
              "1": discrete_category(["q", "r"])}
    maps = {"0<=0": ({"p": "p"}, {"id_p": "id_p"}),
            "1<=1": ({"q": "q", "r": "r"}, {"id_q": "id_q", "id_r": "id_r"}),
            "0<=1": ({"p": "r"}, {"id_p": "id_r"})}
    return _split_doc(base, fibers, maps)


def _split_doc(base, fibers, maps):
    """The split-functor document of fibers over base, each transport
    given by its object and arrow maps."""
    return {"kind": "split-functor",
            "base": formats.category_to_dict(base),
            "fibers": {x: formats.category_to_dict(F)
                       for x, F in fibers.items()},
            "transports": {phi: {"objects": objects, "arrows": arrows}
                           for phi, (objects, arrows) in maps.items()}}


def test_cli_grothendieck_build(tmp_path):
    path = write(tmp_path, "s.split", split_functor_doc())
    out = str(tmp_path / "proj.functor")
    assert run_cli(tmp_path, "grothendieck-build", path, "--out", out) == 0
    proj = formats.load_object(out, "functor")
    assert len(proj.source.objects) == 3
    assert len(proj.target.objects) == 2


def test_cli_grothendieck_build_names_each_broken_split_functor(
        tmp_path, capsys):
    # each check of SplitFunctorToCat.validate that a document can fail
    # exits 3 with its message and no traceback
    doc = split_functor_doc()
    flipped = {"objects": {"q": "r", "r": "q"},
               "arrows": {"id_q": "id_r", "id_r": "id_q"}}
    cases = [
        (dict(doc, fibers={"0": doc["fibers"]["0"]},
              transports={"0<=0": doc["transports"]["0<=0"]}),
         "fiber missing over 1"),
        (dict(doc, transports={k: v for k, v in doc["transports"].items()
                               if k != "0<=1"}),
         "transport missing for 0<=1"),
        (dict(doc, transports=dict(doc["transports"], **{"1<=1": flipped})),
         "identity transport is not the identity")]
    # over [2]: 0<=2 sends p elsewhere than 1<=2 after 0<=1 does, or
    # sends g1 of BZ/2 to the unit
    O2, B = ordinal_category(2), bg(cyclic_table(2))
    point, pair, twin = (discrete_category(names)
                         for names in (["p"], ["q", "r"], ["s", "t"]))

    def identities(fibers):
        return {"%s<=%s" % (x, x): ({o: o for o in F.objects},
                                    {a: a for a in F.arrows})
                for x, F in fibers.items()}
    fibers = {"0": point, "1": pair, "2": twin}
    cases.append((_split_doc(O2, fibers, dict(identities(fibers), **{
        "0<=1": ({"p": "q"}, {"id_p": "id_q"}),
        "1<=2": ({"q": "s", "r": "t"}, {"id_q": "id_s", "id_r": "id_t"}),
        "0<=2": ({"p": "t"}, {"id_p": "id_t"})})),
        "splitness fails on objects at (1<=2, 0<=1)"))
    fibers = {"0": B, "1": B, "2": B}
    same = ({"*": "*"}, {"g0": "g0", "g1": "g1"})
    cases.append((_split_doc(O2, fibers, dict(identities(fibers), **{
        "0<=1": same, "1<=2": same,
        "0<=2": ({"*": "*"}, {"g0": "g0", "g1": "g0"})})),
        "splitness fails on arrows at (1<=2, 0<=1)"))
    for payload, message in cases:
        path = write(tmp_path, "bad.split", payload)
        assert run_cli(tmp_path, "grothendieck-build", path) == 3, message
        assert capsys.readouterr().err == "input error: %s\n" % message
    # the loader builds each transport between its fibers, so only a
    # caller of the library can give one with the wrong endpoints
    fibers = {"0": point, "1": pair}
    transports = {
        "0<=0": Functor(point, point, {"p": "p"}, {"id_p": "id_p"}),
        "1<=1": Functor(pair, pair, {"q": "q", "r": "r"},
                        {"id_q": "id_q", "id_r": "id_r"}),
        "0<=1": Functor(discrete_category(["p"]), pair, {"p": "r"},
                        {"id_p": "id_r"})}
    with pytest.raises(simpcat.errors.InputError) as info:
        SplitFunctorToCat(ordinal_category(1), fibers, transports)
    assert str(info.value) == "transport for 0<=1 has wrong endpoints"


def test_cli_refusals_and_failures_exit_2_and_1(tmp_path, capsys):
    # 0 -> Z/2 needs more than one cycle-killing round: exit 2, and --out
    # keeps the partial certificate
    X = free_complex("Z", (0, 1), {}, {})
    Y = ChainComplex(0, (0, 1), {0: (2,)}, {}).validate()
    fpath = write(tmp_path, "f.cm", formats.chain_map_to_dict(
        ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})))
    out = str(tmp_path / "partial.json")
    assert run_cli(tmp_path, "factor-4b", fpath, "--fuel", "1",
                   "--out", out) == 2
    assert capsys.readouterr().out == "fuel exhausted: cycle-killing " \
        "still productive after 1 rounds\n"
    assert json.loads(open(out).read())["kind"] == \
        "factorization-certificate-partial"
    # the parallel pair with one leg inverted has a free endomorphism
    C = parallel_pair_category()
    rpath = write(tmp_path, "pair.cat", formats.category_to_dict(
        C, weak={"ix", "iy", "f"}))
    assert run_cli(tmp_path, "localize", rpath, "--fuel", "4") == 2
    assert capsys.readouterr().out.startswith("fuel exhausted: ")
    # d(Lambda^3_1) has the spine 0-2, 2-3 but no 2-simplex 023
    bpath = write(tmp_path, "horn.bis", formats.bisimplicial_to_dict(
        embed("discrete", sset.horn(3, 1), 2)))
    out = str(tmp_path / "segal.json")
    assert run_cli(tmp_path, "segal-check", bpath, "--out", out) == 1
    witness = json.loads(open(out).read())
    assert witness["kind"] == "segal-witness"
    assert {"p": 2, "q": 0, "reason": "not surjective"} in \
        witness["failures"]


def test_cli_failed_precondition_exits_1_and_writes_nothing(tmp_path,
                                                            capsys):
    # the boundary of Delta^2 has an inner 2-horn with no filler, and the
    # nerve of [1] an outer one: Ho, the equivalences, the maximal Kan
    # subset and pi_1 refuse them with exit 1 and one stderr line, and
    # write no witness to stdout or to --out
    bd2 = write(tmp_path, "bd2.sset", formats.sset_to_dict(sset.boundary(2)))
    n1 = write(tmp_path, "n1.sset",
               formats.sset_to_dict(nerve(ordinal_category(1), 3)))
    quasi = "not a quasicategory up to dimension 3"
    for command, path, message in [
            (("ho",), bd2, quasi), (("equivalences",), bd2, quasi),
            (("max-kan",), bd2, quasi),
            (("pi1", "--base", "0"), n1, "not Kan up to dimension 3")]:
        out = tmp_path / "out.json"
        for argv in [command + (path,),
                     command + (path, "--out", str(out))]:
            assert run_cli(tmp_path, *argv) == 1, argv
            assert capsys.readouterr() == (
                "", "precondition failed: %s\n" % message), argv
        assert not out.exists()


def test_cli_documents_of_another_kind_exit_3(tmp_path, capsys):
    # a command, or a functor or chain map for its source, is given a
    # document of another kind: exit 3, naming the kind it wanted
    from test_fibrations import z4_to_z2
    simplex = formats.sset_to_dict(sset.standard_simplex(1))
    cat = formats.category_to_dict(ordinal_category(1))
    functor = formats.functor_to_dict(z4_to_z2()[2])
    cmap = formats.chain_map_to_dict(identity_chain_map(
        free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})))
    for command, doc, message in [
            ("nerve", simplex, "expected a category document"),
            ("localize", cat,
             "expected a category document with a weak list"),
            ("left-fibration", dict(functor, source=simplex),
             "expected a category document"),
            ("quasi-iso", dict(cmap, source=cat),
             "expected a chain-complex document")]:
        path = write(tmp_path, "doc.json", doc)
        assert run_cli(tmp_path, command, path) == 3, command
        assert capsys.readouterr() == ("", "input error: %s\n" % message), \
            command


def test_cli_integer_edge_names(tmp_path, capsys):
    # an integer cell name is a name, not the index of a cell: edge 0 runs
    # from vertex 1 to vertex 2 and edge 2 from vertex 2 to vertex 1
    doc = {"kind": "simplicial-set", "truncation": None,
           "cells": {"0": [1, 2], "1": [0, 2]},
           "faces": {"1:0": [[[0], 2], [[0], 1]],
                     "1:2": [[[0], 1], [[0], 2]]}}
    path = write(tmp_path, "int.sset", doc)
    assert run_cli(tmp_path, "export-dot", path) == 0
    out = capsys.readouterr().out
    assert '"1" -> "2" [label="0"];' in out
    assert '"2" -> "1" [label="2"];' in out


def test_cli_composite_outside_its_map_space_exits_3(tmp_path, capsys):
    # g.f of the nondegenerate pair (02<012, 0) names a cell that Map(0, 2)
    # lacks
    doc = formats.simplicial_category_to_dict(frak_c(2))
    table = [[g, f, [h[0], 99] if g == [[0, 1], 0] else h]
             for g, f, h in doc["compositions"]["0|0|2"]]
    path = write(tmp_path, "bad.scat", dict(doc, compositions=dict(
        doc["compositions"], **{"0|0|2": table})))
    assert run_cli(tmp_path, "coherent-nerve", path, "--dim", "2") == 3
    assert capsys.readouterr().err == (
        "input error: the composite of ((0, 1), 0) and ((0, 0), 0) is not "
        "a 1-simplex of Map(0, 2)\n")


def test_cli_missing_cell_exits_3(tmp_path, capsys):
    # a set with no vertices has no level 0; a named cell may be absent
    empty = write(tmp_path, "empty.sset",
                  {"kind": "simplicial-set", "cells": {}})
    point = write(tmp_path, "point.sset",
                  formats.sset_to_dict(sset.standard_simplex(0)))
    for path, message in [(empty, "no 0-cell named 'x'"),
                          (point, "no 0-cell named 'x'")]:
        assert run_cli(tmp_path, "pi1", path, "--base", "x") == 3
        assert capsys.readouterr().err == "input error: %s\n" % message
        assert run_cli(tmp_path, "hom-space", path, "x", "0") == 3
        assert capsys.readouterr().err == "input error: %s\n" % message
    with pytest.raises(simpcat.errors.InputError,
                       match="no 2-cell named '0-1-2'"):
        sset.standard_simplex(1).cell_index(2, "0-1-2")


def test_cli_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")
    monkeypatch.setattr(quasicat, "classify", broken)
    path = write(tmp_path, "point.sset",
                 formats.sset_to_dict(sset.standard_simplex(0)))
    assert run_cli(tmp_path, "check-kan", path) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    # a KeyError inside a command is a bug, not malformed input
    def lookup(*args):
        return {}["nope"]
    monkeypatch.setattr(quasicat, "classify", lookup)
    assert run_cli(tmp_path, "check-kan", path) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'nope'\n"


def test_category_identity_must_be_an_arrow(tmp_path, capsys):
    cat = formats.category_to_dict(ordinal_category(1))
    cat["identities"]["0"] = "nope"
    with pytest.raises(formats.InputError) as err:
        formats.category_from_dict(cat)
    assert str(err.value) == \
        "the identity of object 0 is nope, which is not an arrow"
    assert run_cli(tmp_path, "nerve", write(tmp_path, "c.cat", cat)) == 3
    assert capsys.readouterr().err == "input error: the identity of " \
        "object 0 is nope, which is not an arrow\n"


def test_category_composite_must_be_an_arrow(tmp_path, capsys):
    cat = formats.category_to_dict(ordinal_category(1))
    cat["compose"].append(["0<=0", "0<=0", "nope"])
    with pytest.raises(formats.InputError) as err:
        formats.category_from_dict(cat)
    assert str(err.value) == \
        "the composition table names nope, which is not an arrow"
    assert run_cli(tmp_path, "nerve", write(tmp_path, "c.cat", cat)) == 3
    assert capsys.readouterr().err == "input error: the composition " \
        "table names nope, which is not an arrow\n"


def test_sset_loader_skips_empty_levels():
    # an empty level far above the cells builds nothing: the document
    # loads as the same simplicial set as without it
    point = {"kind": "simplicial-set", "truncation": None,
             "cells": {"0": ["p"]}, "faces": {}}
    padded = dict(point, cells={"0": ["p"], "200000": []})
    assert formats.sset_from_dict(padded).as_dict() == \
        formats.sset_from_dict(point).as_dict()
    # up to a declared truncation the empty levels are kept, as
    # SimplicialSet itself keeps them
    for truncation in (0, 2):
        doc = dict(point, truncation=truncation,
                   cells={"0": ["p"], "1": [], "2": [], "3": []})
        want = SimplicialSet(truncation, [("p",), (), (), ()],
                             [[()], [], [], []])
        want.validate()
        assert formats.sset_from_dict(doc).as_dict() == want.as_dict()


def test_loaded_documents_share_equal_surjections():
    # the loader keeps one tuple per distinct surjection of a document,
    # and what it loads writes the bytes it read
    N = nerve(bg(cyclic_table(3)), 4)
    text = formats.dumps(formats.sset_to_dict(N))
    X = formats.sset_from_dict(json.loads(text))
    assert formats.dumps(formats.sset_to_dict(X)) == text
    shared = {}
    for level in X.faces:
        for entry in level:
            for s, _ in entry:
                assert shared.setdefault(s, s) is s
    assert sorted(shared) == sorted({s for level in N.faces
                                     for entry in level for s, _ in entry})


def test_cli_parser_reused_after_a_failed_parse(tmp_path, capsys):
    # the parser is built once per process; a parse that fails must not
    # leave anything behind that the next call sees
    from simpcat.cli import build_parser
    assert build_parser() is build_parser()
    cpath = write(tmp_path, "c.cat",
                  formats.category_to_dict(ordinal_category(1)))
    out = str(tmp_path / "n.sset")
    assert run_cli(tmp_path, "nerve", cpath, "--dim", "abc") == 3
    assert run_cli(tmp_path, "nerve", cpath, "--dim", "1",
                   "--out", out) == 0
    assert formats.load_object(out).truncation == 1
    assert run_cli(tmp_path, "nerve") == 3
    assert run_cli(tmp_path, "homology", cpath, "--dim", "2") == 3
    assert run_cli(tmp_path, "nerve", cpath, "--out", out) == 0
    assert formats.load_object(out).truncation == 3


def test_cli_rejects_options_the_command_ignores(tmp_path):
    cpath = write(tmp_path, "c.cat",
                  formats.category_to_dict(ordinal_category(1)))
    assert run_cli(tmp_path, "nerve", cpath, "--fuel", "3") == 3
    assert run_cli(tmp_path, "ho", cpath, "--dim", "3") == 3
    assert run_cli(tmp_path, "nerve", cpath, "--base", "*") == 3
    assert run_cli(tmp_path, "no-such-command") == 3


def test_cli_determinism(tmp_path):
    C = iso_pair_category()
    cpath = write(tmp_path, "c.cat", formats.category_to_dict(C))
    out1 = str(tmp_path / "n1.sset")
    out2 = str(tmp_path / "n2.sset")
    run_cli(tmp_path, "nerve", cpath, "--dim", "3", "--out", out1)
    run_cli(tmp_path, "nerve", cpath, "--dim", "3", "--out", out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script runs end to end; the child imports
    # simpcat from where this process found it
    N = nerve(ordinal_category(2), 3)
    path = write(tmp_path, "n2.sset", formats.sset_to_dict(N))
    src = os.path.dirname(os.path.dirname(simpcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "simpcat.cli", "check-quasicategory",
         path, "--dim", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "quasicategory" in proc.stdout


def test_dumps_matches_the_encoder_with_its_cycle_check():
    # dumps turns the cycle check off; on every kind of document the
    # writers make, shared sublists included, the bytes are the same
    from families import identity_functor
    C = iso_pair_category()
    K = free_complex("Z/4", (0, 2), {0: 1, 1: 2, 2: 1},
                     {1: Mat(1, 2, [[2, 0]]), 2: Mat(2, 1, [[0], [2]])})
    shared = [[0, 1], "x"]
    docs = [
        formats.sset_to_dict(nerve(C, 3)),
        formats.category_to_dict(C, weak=C.arrows[:1]),
        formats.functor_to_dict(identity_functor(C)),
        formats.complex_to_dict(K),
        formats.chain_map_to_dict(identity_chain_map(K)),
        formats.simplicial_ab_to_dict(
            free_simplicial_abelian_group(sset.standard_simplex(1), 2)),
        formats.bisimplicial_to_dict(
            embed("discrete", nerve(ordinal_category(1), 2), 2)),
        formats.bisimplicial_to_dict(
            rezk_nerve(RelativeCategory(C, set(C.arrows)), 2, 1)),
        formats.simplicial_category_to_dict(frak_c(4)),
        {"a": shared, "b": [shared, shared],
         "c": {"d": shared, "\u00e9": -1}},
    ]
    assert docs[8]["compositions"]["0|1|2"] is \
        docs[8]["compositions"]["1|2|3"]
    for doc in docs:
        assert formats.dumps(doc) == json.dumps(
            doc, sort_keys=True, separators=(",", ":"),
            check_circular=True) + "\n"
