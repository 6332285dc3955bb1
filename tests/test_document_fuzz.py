"""Mutated documents of every kind that simpcat reads.

A valid document of each kind in formats.LOADERS is mutated once (a key
deleted or renamed, a value replaced by another JSON type, a list
truncated) and run through every command that reads that kind.  Each
run exits 0, 1, 2 or 3 and prints no traceback: malformed input is exit
3, never an internal error (exit 4).  The loaders of simplicial sets,
bisimplicial sets and simplicial categories also agree with the oracles
that shape-check every item: both refuse the document, or both build
objects that write the same bytes.  The one allowed difference is a key
that names an integer in non-canonical form ("01"), which formats
refuses.
"""

import contextlib
import gc
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from simpcat import formats, sset
from simpcat.cli import build_parser, main
from simpcat.doldkan import free_complex, free_simplicial_abelian_group
from simpcat.errors import InputError
from simpcat.hcnerve import frak_c
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import Functor, bg, nerve, ordinal_category
from simpcat.segal import embed

from families import cyclic_table, identity_chain_map
from oracles import (bisimplicial_from_dict_by_shape_check,
                     simplicial_category_from_dict_by_shape_check,
                     sset_from_dict_by_shape_check)
from test_formats_cli import split_functor_doc


def _documents():
    """(document, the argv of each command that reads it, with "IN" for
    its path), one or more per kind in formats.LOADERS."""
    interval = ordinal_category(1)
    cx = free_complex("Z", (0, 1), {0: 1, 1: 1}, {1: Mat(1, 1, [[2]])})

    def sset_commands(x, y):
        # x and y are vertices, named on the command line
        named = [["hom-space", "IN", x, y, "--dim", "1"],
                 ["pi1", "IN", "--base", x],
                 ["pin", "IN", "--n", "1", "--base", x]] if x else []
        return named + [["check-quasicategory", "IN", "--dim", "2"],
                        ["check-kan", "IN", "--dim", "2"], ["ho", "IN"],
                        ["equivalences", "IN"], ["max-kan", "IN"],
                        ["pi0", "IN"], ["export-dot", "IN"]]

    # integer cell names; the command line cannot name these vertices
    int_named = {"kind": "simplicial-set", "truncation": None,
                 "cells": {"0": [0, 1], "1": ["e", 2]},
                 "faces": {"1:e": [[[0], 1], [[0], 0]],
                           "1:2": [[[0], 0], [[0], 0]]}}
    return [
        (formats.sset_to_dict(nerve(bg(cyclic_table(2)), 3)),
         sset_commands("*", "*")),
        (formats.sset_to_dict(nerve(interval, 3)), sset_commands("0", "1")),
        (int_named, sset_commands(None, None)),
        (formats.category_to_dict(interval, weak=set(interval.arrows)),
         [["nerve", "IN", "--dim", "2"], ["localize", "IN", "--fuel", "2"],
          ["join", "IN", "IN"], ["twisted-arrows", "IN"],
          ["rezk-nerve", "IN", "--dim", "1", "--dim2", "1"],
          ["export-dot", "IN"]]),
        (formats.functor_to_dict(Functor(
            interval, ordinal_category(0), {"0": "0", "1": "0"},
            {a: "0<=0" for a in interval.arrows})),
         [["left-fibration", "IN"], ["cocart-analyze", "IN"],
          ["grothendieck-read", "IN"]]),
        (formats.complex_to_dict(cx),
         [["homology", "IN"], ["dold-kan", "IN", "--dim", "1"]]),
        (formats.chain_map_to_dict(identity_chain_map(cx)),
         [["quasi-iso", "IN"], ["factor-4a", "IN"],
          ["factor-4b", "IN", "--fuel", "2"]]),
        (formats.simplicial_ab_to_dict(free_simplicial_abelian_group(
            sset.standard_simplex(1), 1)), [["normalized-chains", "IN"]]),
        (formats.bisimplicial_to_dict(embed("discrete", nerve(interval, 2),
                                            2)),
         [["segal-check", "IN"], ["completeness", "IN"]]),
        (formats.simplicial_category_to_dict(frak_c(2)),
         [["coherent-nerve", "IN", "--dim", "2"]]),
        ({"kind": "monoid-table",
          "table": [[g, h, v] for (g, h), v in
                    sorted(cyclic_table(2).items())]}, [["bg", "IN"]]),
        (split_functor_doc(), [["grothendieck-build", "IN"]]),
    ]


DOCUMENTS = _documents()

# kind: (formats loader, oracle loader, writer)
ORACLES = {
    "simplicial-set": (formats.sset_from_dict, sset_from_dict_by_shape_check,
                       formats.sset_to_dict),
    "bisimplicial-set": (formats.bisimplicial_from_dict,
                         bisimplicial_from_dict_by_shape_check,
                         formats.bisimplicial_to_dict),
    "simplicial-category": (formats.simplicial_category_from_dict,
                            simplicial_category_from_dict_by_shape_check,
                            formats.simplicial_category_to_dict),
}

# keys a rename may produce: integers in canonical and non-canonical
# form, table keys, separators and names the documents use
KEYS = ["0", "1", "2", "01", "00", "-0", "-1", "+1", " 1", "1_0", "٢",
        "0,0", "0,01", "1,0,0", "0|1", "0|0|0", "1:e", "kind", "x", ""]

JSON_VALUES = st.one_of(
    st.booleans(),
    st.integers(-1, 3),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["0", "1", "a"]), st.integers(-1, 2),
                    max_size=2))


def _positions(doc):
    """Every position in doc below the root: (container, key or index)."""
    out = []
    stack = [doc]
    while stack:
        v = stack.pop()
        items = v.items() if isinstance(v, dict) else \
            enumerate(v) if isinstance(v, list) else ()
        for k, x in items:
            out.append((v, k))
            stack.append(x)
    return out


def _noncanonical(key):
    """Whether a part of a "a,b,..." key names an integer, but not in the
    form str(int) gives it."""
    for part in key.split(","):
        try:
            if str(int(part)) != part:
                return True
        except ValueError:
            pass
    return False


@st.composite
def mutated_documents(draw):
    """(mutated document, the commands that read it, kind of the valid
    document, whether a key was renamed to a non-canonical integer)."""
    doc, commands = draw(st.sampled_from(DOCUMENTS))
    kind = doc["kind"]
    doc = json.loads(json.dumps(doc))
    positions = _positions(doc)
    op = draw(st.sampled_from(["delete", "replace", "rename", "truncate"]))
    noncanonical = False
    if op in ("delete", "rename"):
        container, key = draw(st.sampled_from(
            [p for p in positions if isinstance(p[0], dict)]))
        value = container.pop(key)
        if op == "rename":
            new = draw(st.sampled_from(KEYS) | st.text(max_size=3))
            container[new] = value
            noncanonical = _noncanonical(new)
    elif op == "replace":
        container, key = draw(st.sampled_from(positions))
        container[key] = draw(JSON_VALUES)
    else:
        lists = [v for v in [doc] + [c[k] for c, k in positions]
                 if isinstance(v, list) and v]
        if lists:
            v = draw(st.sampled_from(lists))
            del v[draw(st.integers(0, len(v) - 1)):]
    return doc, commands, kind, noncanonical


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _outcome(load, write, doc):
    try:
        return formats.dumps(write(load(doc)))
    except InputError:
        return "InputError"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_exit_0_to_3(case):
    doc, commands, kind, noncanonical = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(formats.dumps(doc))
        for argv in commands:
            argv = [path if a == "IN" else a for a in argv]
            code, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv[0], err, doc)
            assert "Traceback" not in err, (argv[0], err)
    if kind in ORACLES and not noncanonical:
        load, oracle, write = ORACLES[kind]
        assert _outcome(load, write, doc) == _outcome(oracle, write, doc), \
            doc


def test_commands_leave_no_cyclic_garbage():
    # the CLI pauses the cyclic collector while a command runs, which
    # frees everything only while no command leaves a reference cycle
    build_parser()  # its first build leaves argparse formatters, once
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            for doc, commands in DOCUMENTS:
                with open(path, "w") as fh:
                    fh.write(formats.dumps(doc))
                for argv in commands:
                    argv = [path if a == "IN" else a for a in argv]
                    for out in ([], ["--out", os.path.join(tmp, "out")]):
                        _run(argv + out)
                        assert gc.collect() == 0, argv + out
    finally:
        if was_enabled:
            gc.enable()


def test_valid_documents_run():
    # the unmutated documents load, and every command reads them
    for doc, commands in DOCUMENTS:
        formats.LOADERS[doc["kind"]](doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as fh:
                fh.write(formats.dumps(doc))
            for argv in commands:
                argv = [path if a == "IN" else a for a in argv]
                assert _run(argv)[0] in (0, 1, 2), argv
