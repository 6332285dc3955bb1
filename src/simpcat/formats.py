"""Structured-text (JSON) formats for every object kind, with
bit-exact round-trips on normal forms: canonical key order, fixed
separators, no floats, no timestamps.
"""

import json
from itertools import product

from .delta import all_surjections, tcompose
from .doldkan import ChainComplex, SimplicialAbGroup
from .errors import InputError
from .fibrations import SplitFunctorToCat
from .hcnerve import SimplicialCategory
from .intlinalg import Mat
from .nerve_cat import FinCategory, Functor, RelativeCategory
from .segal import BisimplicialSet
from .sset import SimplicialSet


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load(path):
    """The JSON document at path, which must be an object."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise InputError("a document must be a JSON object, not %s"
                         % type(d).__name__)
    return d


# -- simplicial sets ---------------------------------------------------------


def sset_to_dict(X):
    d = X.as_dict()
    d["kind"] = "simplicial-set"
    return d


def sset_from_dict(d):
    if d.get("kind") not in (None, "simplicial-set"):
        raise InputError("expected a simplicial-set document")
    cells, face_doc = d.get("cells"), d.get("faces", {})
    truncation = d.get("truncation")
    if not (isinstance(cells, dict) and isinstance(face_doc, dict) and all(
            k.isdecimal() and _is_names(v) for k, v in cells.items()) and (
                truncation is None or type(truncation) is int)):
        raise InputError("malformed simplicial-set document: cells must "
                         "map dimensions to name lists, faces must be an "
                         "object, truncation an integer or null")
    # the levels SimplicialSet keeps: up to the last nonempty one, or up
    # to the truncation when that is higher and the document lists them
    depth = max([int(k) + 1 for k, v in cells.items() if v], default=0)
    if truncation is not None and cells:
        depth = max(depth, min(truncation, max(map(int, cells))) + 1)
    names = [tuple(cells.get(str(k), ())) for k in range(depth)]
    index = [{n: i for i, n in enumerate(level)} for level in names]
    faces = [[()] * len(level) for level in names]
    for k in range(1, depth):
        for idx, name in enumerate(names[k]):
            key = "%d:%s" % (k, name)
            entry = face_doc.get(key)
            if not isinstance(entry, list) or \
                    not all(_is_face(item, index) for item in entry):
                raise InputError("missing or malformed face entry for %s"
                                 % key)
            faces[k][idx] = tuple((tuple(s), index[s[-1]][sub])
                                  for s, sub in entry)
    return SimplicialSet(truncation, names, faces)


def _is_name(v):
    """Whether v can name a cell, an object or an arrow; JSON booleans
    cannot."""
    return isinstance(v, str) or type(v) is int


def _is_names(v):
    return isinstance(v, list) and all(map(_is_name, v))


def _is_ints(v):
    """Whether v is a list of integers; JSON booleans are not."""
    return isinstance(v, list) and all(type(n) is int for n in v)


def _index_key(key, n):
    """The n nonnegative integers of a table key "a,b,...", or None."""
    parts = key.split(",")
    if len(parts) != n or not all(part.isdecimal() for part in parts):
        return None
    return tuple(map(int, parts))


def _is_face(item, index):
    """Whether item is [surjection values, name of a cell they reach]."""
    return (isinstance(item, list) and len(item) == 2
            and isinstance(item[0], list) and len(item[0]) > 0
            and all(type(v) is int for v in item[0])
            and (isinstance(item[1], str) or type(item[1]) is int)
            and 0 <= item[0][-1] < len(index)
            and item[1] in index[item[0][-1]])


# -- categories --------------------------------------------------------------


def category_to_dict(C, weak=None):
    d = C.as_dict()
    d["kind"] = "category"
    if weak is not None:
        d["weak"] = sorted(weak)
    return d


def category_from_dict(d):
    if d.get("kind") not in (None, "category"):
        raise InputError("expected a category document")
    arrow_doc, comp_doc = d.get("arrows"), d.get("compose")
    ident, weak = d.get("identities"), d.get("weak")
    if not (_is_names(d.get("objects")) and isinstance(arrow_doc, list)
            and all(isinstance(a, dict) and all(
                _is_name(a.get(k)) for k in ("name", "src", "dst"))
                for a in arrow_doc)
            and isinstance(comp_doc, list)
            and all(_is_names(t) and len(t) == 3 for t in comp_doc)
            and isinstance(ident, dict)
            and all(_is_name(e) for e in ident.values())
            and (weak is None or _is_names(weak))):
        raise InputError("malformed category document: objects must be a "
                         "name list, arrows a list of {name, src, dst}, "
                         "compose a list of [g, f, composite] name "
                         "triples, identities an object of names, weak a "
                         "name list or absent")
    arrows = [a["name"] for a in arrow_doc]
    src = {a["name"]: a["src"] for a in arrow_doc}
    dst = {a["name"]: a["dst"] for a in arrow_doc}
    for x, e in ident.items():
        if e not in src:
            raise InputError("the identity of object %s is %s, which is not "
                             "an arrow" % (x, e))
    unknown = [e for triple in comp_doc for e in triple if e not in src]
    if unknown:
        raise InputError("the composition table names %s, which is not "
                         "an arrow" % unknown[0])
    comp = {(g, f): c for g, f, c in comp_doc}
    C = FinCategory(d["objects"], arrows, src, dst, comp, ident)
    if weak is not None:
        return RelativeCategory(C, set(weak))
    return C


def functor_to_dict(F):
    return {"kind": "functor",
            "source": category_to_dict(F.source),
            "target": category_to_dict(F.target),
            "objects": dict(F.obj_map),
            "arrows": dict(F.arr_map)}


def functor_from_dict(d):
    if d.get("kind") != "functor":
        raise InputError("expected a functor document")
    if not (all(isinstance(d.get(k), dict) for k in (
            "source", "target", "objects", "arrows"))
            and all(map(_is_name, d["objects"].values()))
            and all(map(_is_name, d["arrows"].values()))):
        raise InputError("malformed functor document: source and target "
                         "must be category documents, objects and arrows "
                         "objects of names")
    return Functor(_category(d["source"]), _category(d["target"]),
                   d["objects"], d["arrows"])


def _category(d):
    """The category of a category document, without its weak list."""
    C = category_from_dict(d)
    return C.category if isinstance(C, RelativeCategory) else C


def monoid_table_from_dict(d):
    """The multiplication table {(g, h): g then h} of a monoid-table
    document; bg checks that it is a monoid."""
    if d.get("kind") != "monoid-table":
        raise InputError("expected a monoid-table document")
    table = d.get("table")
    if not (isinstance(table, list) and all(
            isinstance(t, list) and len(t) == 3
            and all(isinstance(v, str) for v in t) for t in table)):
        raise InputError("malformed monoid-table document: table must be "
                         "a list of [g, h, product] string triples")
    return {(g, h): v for g, h, v in table}


def split_functor_from_dict(d):
    if d.get("kind") != "split-functor":
        raise InputError("expected a split-functor document")
    fibers, transports = d.get("fibers"), d.get("transports")
    if not (isinstance(d.get("base"), dict) and isinstance(fibers, dict)
            and all(isinstance(v, dict) for v in fibers.values())
            and isinstance(transports, dict)
            and all(isinstance(m, dict) and all(
                isinstance(m.get(k), dict) and all(map(_is_name,
                                                       m[k].values()))
                for k in ("objects", "arrows"))
                for m in transports.values())):
        raise InputError("malformed split-functor document: base must be a "
                         "category document, fibers an object of category "
                         "documents, transports an object of {objects, "
                         "arrows} name tables")
    base = _category(d["base"])
    fibers = {x: _category(v) for x, v in fibers.items()}
    for phi in transports:
        if base.src.get(phi) not in fibers or base.dst[phi] not in fibers:
            raise InputError("transport %s is not along a base arrow "
                             "between fibers" % phi)
    return SplitFunctorToCat(base, fibers, {
        phi: Functor(fibers[base.src[phi]], fibers[base.dst[phi]],
                     m["objects"], m["arrows"])
        for phi, m in transports.items()})


# -- chain complexes ---------------------------------------------------------


def complex_to_dict(C):
    d = C.as_dict()
    d["kind"] = "chain-complex"
    return d


def complex_from_dict(d):
    if d.get("kind") not in (None, "chain-complex"):
        raise InputError("expected a chain-complex document")
    window = d.get("window")
    ranked = "coefficients" not in d
    levels = d.get("ranks") if ranked else d["coefficients"]
    diff_doc = d.get("differentials", {})
    if not (isinstance(d.get("ring"), str) and _is_ints(window)
            and len(window) == 2 and isinstance(levels, dict)
            and all(_is_degree(k) and (type(v) is int if ranked
                                       else _is_ints(v))
                    for k, v in levels.items())
            and isinstance(diff_doc, dict)
            and all(_is_degree(k) and _is_matrix(rows)
                    for k, rows in diff_doc.items())):
        raise InputError("malformed chain-complex document: ring must be "
                         "a string, window two integers, coefficients "
                         "(integer lists) or ranks (integers) and "
                         "differentials (integer matrices) objects keyed "
                         "by degree")
    if ranked:
        coeffs = {int(k): (0,) * v for k, v in levels.items()}
    else:
        coeffs = {int(k): tuple(v) for k, v in levels.items()}
    diff = {}
    for k, rows in diff_doc.items():
        n = int(k)
        r_out = len(coeffs.get(n - 1, ()))
        r_in = len(coeffs.get(n, ()))
        diff[n] = Mat(r_out, r_in, rows)
    return ChainComplex(d["ring"], tuple(window), coeffs, diff)


def _is_degree(key):
    """Whether an object key is an integer, as degrees are written."""
    return key[1:].isdecimal() if key.startswith("-") else key.isdecimal()


def _is_matrix(v):
    """Whether v is a list of integer rows."""
    return isinstance(v, list) and all(map(_is_ints, v))


def chain_map_to_dict(f):
    return {"kind": "chain-map",
            "source": complex_to_dict(f.source),
            "target": complex_to_dict(f.target),
            "components": {str(n): f.at(n).data
                           for n in range(f.source.lo,
                                          f.source.hi + 1)}}


def chain_map_from_dict(d):
    from .chain_model import ChainMap
    if d.get("kind") != "chain-map":
        raise InputError("expected a chain-map document")
    comp_doc = d.get("components")
    if not (isinstance(d.get("source"), dict)
            and isinstance(d.get("target"), dict)
            and isinstance(comp_doc, dict)
            and all(_is_degree(k) and _is_matrix(rows)
                    for k, rows in comp_doc.items())):
        raise InputError("malformed chain-map document: source and target "
                         "must be chain-complex documents, components an "
                         "object of integer matrices keyed by degree")
    X = complex_from_dict(d["source"])
    Y = complex_from_dict(d["target"])
    comps = {}
    for k, rows in comp_doc.items():
        n = int(k)
        comps[n] = Mat(Y.rank(n), X.rank(n), rows)
    return ChainMap(X, Y, comps)


def simplicial_ab_to_dict(A):
    return {
        "kind": "simplicial-abelian-group",
        "ring": A.ring,
        "truncation": A.truncation,
        "coefficients": {str(n): list(A.coeffs[n])
                         for n in range(A.truncation + 1)},
        "faces": {"%d,%d" % k: v.data for k, v in sorted(A.face.items())},
        "degeneracies": {"%d,%d" % k: v.data
                         for k, v in sorted(A.degen.items())},
    }


def simplicial_ab_from_dict(d):
    if d.get("kind") != "simplicial-abelian-group":
        raise InputError("expected a simplicial-abelian-group document")
    D, coeff_doc = d.get("truncation"), d.get("coefficients")
    table_keys = ("faces", "degeneracies")
    if not (isinstance(d.get("ring"), str) and type(D) is int
            and isinstance(coeff_doc, dict)
            and all(_is_degree(k) and _is_ints(v)
                    for k, v in coeff_doc.items())
            and all(isinstance(d.get(t), dict) and all(
                _index_key(k, 2) and _is_matrix(rows)
                for k, rows in d[t].items()) for t in table_keys)):
        raise InputError("malformed simplicial-abelian-group document: "
                         "ring must be a string, truncation an integer, "
                         "coefficients integer lists keyed by degree, and "
                         "faces and degeneracies objects from \"n,i\" to "
                         "integer matrices")
    coeffs = {int(k): tuple(v) for k, v in coeff_doc.items()}

    def shape(n):
        return len(coeffs.get(n, ()))

    face = {}
    for k, rows in d["faces"].items():
        n, i = _index_key(k, 2)
        face[(n, i)] = Mat(shape(n - 1), shape(n), rows)
    degen = {}
    for k, rows in d["degeneracies"].items():
        n, i = _index_key(k, 2)
        degen[(n, i)] = Mat(shape(n + 1), shape(n), rows)
    return SimplicialAbGroup(d["ring"], D, coeffs, face, degen)


# -- bisimplicial sets -------------------------------------------------------


def bisimplicial_to_dict(X):
    d = X.as_dict()
    d["kind"] = "bisimplicial-set"
    return d


def bisimplicial_from_dict(d):
    if d.get("kind") not in (None, "bisimplicial-set"):
        raise InputError("expected a bisimplicial-set document")
    truncation, cell_doc = d.get("truncation"), d.get("cells")
    table_keys = ("h_faces", "h_degens", "v_faces", "v_degens")
    if not (_is_ints(truncation) and len(truncation) == 2
            and isinstance(cell_doc, dict)
            and all(_index_key(k, 2) and _is_names(v)
                    for k, v in cell_doc.items())
            and all(isinstance(d.get(t), dict) and all(
                _index_key(k, 3) and isinstance(m, dict)
                and all(map(_is_name, m.values()))
                for k, m in d[t].items()) for t in table_keys)):
        raise InputError("malformed bisimplicial-set document: truncation "
                         "must be two integers, cells an object from "
                         "\"p,q\" to name lists, and %s objects from "
                         "\"p,q,i\" to name tables" % ", ".join(table_keys))
    cells = {_index_key(k, 2): v for k, v in cell_doc.items()}
    h_face, h_degen, v_face, v_degen = (
        {_index_key(k, 3): m for k, m in d[t].items()} for t in table_keys)
    return BisimplicialSet(truncation[0], truncation[1], cells, h_face,
                           h_degen, v_face, v_degen)


# -- simplicial categories ---------------------------------------------------


def simplicial_category_to_dict(C):
    """Every pair of simplices up to the level bound, degenerate ones
    included: the pairs sigma^*(g, f) = (g sigma, f sigma) for each
    stored nondegenerate (g, f) and each surjection sigma, composing to
    (g.f) sigma."""
    comp = {}
    for (x, y, z), table in sorted(C.comp.items()):
        shapes = {}
        for ((s, gi), (t, fi)), (u, hi) in table.items():
            shapes.setdefault((s, t, u), []).append((gi, fi, hi))
        rows = []
        for (s, t, u), cells in shapes.items():
            k = len(s) - 1
            for q in range(k, C.level_bound + 1):
                for sigma in all_surjections(q, k):
                    g, f, h = (tcompose(s, sigma), tcompose(t, sigma),
                               tcompose(u, sigma))
                    rows.extend((g, gi, f, fi, h, hi)
                                for gi, fi, hi in cells)
        rows.sort()
        comp["%s|%s|%s" % (x, y, z)] = [
            [[list(g), gi], [list(f), fi], [list(h), hi]]
            for g, gi, f, fi, h, hi in rows]
    return {
        "kind": "simplicial-category",
        "objects": list(C.objects),
        "level_bound": C.level_bound,
        "map_spaces": {"%s|%s" % k: sset_to_dict(v)
                       for k, v in sorted(C.mapspaces.items())},
        "identities": dict(C.identities),
        "compositions": comp,
    }


def simplicial_category_from_dict(d):
    if d.get("kind") != "simplicial-category":
        raise InputError("expected a simplicial-category document")
    space_doc, comp_doc = d.get("map_spaces"), d.get("compositions")
    objects = d.get("objects")
    if not (isinstance(objects, list)
            and all(isinstance(x, str) for x in objects)
            and type(d.get("level_bound")) is int
            and isinstance(d.get("identities"), dict)
            and all(map(_is_name, d["identities"].values()))
            and isinstance(space_doc, dict)
            and all(k.count("|") == 1 and isinstance(v, dict)
                    for k, v in space_doc.items())
            and isinstance(comp_doc, dict)
            and all(k.count("|") == 2 and isinstance(entries, list)
                    and all(isinstance(e, list) and len(e) == 3
                            and all(map(_is_simplex, e)) for e in entries)
                    for k, entries in comp_doc.items())):
        raise InputError("malformed simplicial-category document: objects "
                         "must be a string list, level_bound an integer, "
                         "identities an object of names, map_spaces an "
                         "object from \"x|y\" to simplicial-set documents, "
                         "compositions an object from \"x|y|z\" to lists "
                         "of [g, f, g.f] simplex triples")
    for pair in (x + "|" + y for x in d["objects"] for y in d["objects"]):
        if pair not in space_doc:
            raise InputError("the map space %s is missing" % pair)
    mapspaces = {}
    for k, sub in space_doc.items():
        x, y = k.split("|")
        mapspaces[(x, y)] = sset_from_dict(sub)
    tables = {}
    for k, entries in comp_doc.items():
        x, y, z = k.split("|")
        tables[(x, y, z)] = {
            ((tuple(g[0]), g[1]), (tuple(f[0]), f[1])):
            (tuple(h[0]), h[1]) for g, f, h in entries}
    # every pair up to the level bound must be listed; the degenerate
    # ones are compared with the composites the nondegenerate ones fix
    listed = []
    for x, y, z in product(d["objects"], repeat=3):
        gspace, fspace = mapspaces[(y, z)], mapspaces[(x, y)]
        if gspace.n_cells(0) == 0 or fspace.n_cells(0) == 0:
            continue
        table = tables.get((x, y, z), {})
        for q in range(d["level_bound"] + 1):
            for g in gspace.simplices(q):
                for f in fspace.simplices(q):
                    h = table.get((g, f))
                    if h is None:
                        raise InputError(
                            "the composition table %s|%s|%s lacks the "
                            "entry for g = %s, f = %s" % (
                                x, y, z, [list(g[0]), g[1]],
                                [list(f[0]), f[1]]))
                    listed.append(((x, y, z), g, f, h))
    C = SimplicialCategory(
        d["objects"], mapspaces, d["identities"],
        lambda x, y, z, q, g, f: tables[(x, y, z)][(g, f)],
        d["level_bound"])
    for key, g, f, h in listed:
        if (g, f) not in C.comp[key] and C.compose(*key, g, f) != h:
            raise InputError("composition is not simplicial at level %d"
                             % (len(g[0]) - 1))
    return C


def _is_simplex(v):
    """Whether v is [surjection values, cell index], a simplex in E-Z
    form as compositions are written."""
    return (isinstance(v, list) and len(v) == 2 and _is_ints(v[0])
            and len(v[0]) > 0 and type(v[1]) is int)


# -- dispatch ----------------------------------------------------------------


LOADERS = {
    "simplicial-set": sset_from_dict,
    "category": category_from_dict,
    "functor": functor_from_dict,
    "chain-complex": complex_from_dict,
    "chain-map": chain_map_from_dict,
    "simplicial-abelian-group": simplicial_ab_from_dict,
    "bisimplicial-set": bisimplicial_from_dict,
    "simplicial-category": simplicial_category_from_dict,
    "monoid-table": monoid_table_from_dict,
    "split-functor": split_functor_from_dict,
}


def load_object(path, expect=None):
    d = load(path)
    kind = d.get("kind")
    if expect is not None and kind != expect:
        raise InputError("expected a %s document, found %r"
                         % (expect, kind))
    loader = LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise InputError("unknown document kind %r" % (kind,))
    return loader(d)
