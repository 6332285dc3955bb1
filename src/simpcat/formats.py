"""Structured-text (JSON) formats for every object kind, with
bit-exact round-trips on normal forms: canonical key order, fixed
separators, no floats, no timestamps.
"""

import json

from .doldkan import ChainComplex, SimplicialAbGroup
from .errors import InputError
from .hcnerve import SimplicialCategory
from .intlinalg import Mat
from .nerve_cat import FinCategory, Functor, RelativeCategory
from .segal import BisimplicialSet
from .sset import SimplicialSet


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save(path, payload):
    with open(path, "w") as fh:
        fh.write(dumps(payload))


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
    cells, face_doc = d["cells"], d.get("faces", {})
    truncation = d.get("truncation")
    if not (isinstance(cells, dict) and isinstance(face_doc, dict) and all(
            k.isdecimal() and isinstance(v, list)
            and all(isinstance(n, (str, int)) for n in v)
            for k, v in cells.items()) and (
                truncation is None or isinstance(truncation, int))):
        raise InputError("malformed simplicial-set document: cells must "
                         "map dimensions to name lists, faces must be an "
                         "object, truncation an integer or null")
    dims = sorted(int(k) for k in cells)
    depth = (dims[-1] + 1) if dims else 0
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


def _is_face(item, index):
    """Whether item is [surjection values, name of a cell they reach]."""
    return (isinstance(item, list) and len(item) == 2
            and isinstance(item[0], list) and len(item[0]) > 0
            and all(isinstance(v, int) for v in item[0])
            and isinstance(item[1], (str, int))
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
    arrows = [a["name"] for a in d["arrows"]]
    src = {a["name"]: a["src"] for a in d["arrows"]}
    dst = {a["name"]: a["dst"] for a in d["arrows"]}
    comp = {(g, f): c for g, f, c in d["compose"]}
    C = FinCategory(d["objects"], arrows, src, dst, comp,
                    d["identities"])
    weak = d.get("weak")
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
    C = category_from_dict(d["source"])
    D = category_from_dict(d["target"])
    if isinstance(C, RelativeCategory):
        C = C.category
    if isinstance(D, RelativeCategory):
        D = D.category
    return Functor(C, D, d["objects"], d["arrows"])


# -- chain complexes ---------------------------------------------------------


def complex_to_dict(C):
    d = C.as_dict()
    d["kind"] = "chain-complex"
    return d


def complex_from_dict(d):
    if d.get("kind") not in (None, "chain-complex"):
        raise InputError("expected a chain-complex document")
    lo, hi = d["window"]
    coeffs = {}
    if "coefficients" in d:
        coeffs = {int(k): tuple(v) for k, v in d["coefficients"].items()}
    else:
        coeffs = {int(k): tuple(0 for _ in range(v))
                  for k, v in d["ranks"].items()}
    diff = {}
    for k, rows in d.get("differentials", {}).items():
        n = int(k)
        r_out = len(coeffs.get(n - 1, ()))
        r_in = len(coeffs.get(n, ()))
        diff[n] = Mat(r_out, r_in, rows)
    return ChainComplex(d["ring"], (lo, hi), coeffs, diff)


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
    X = complex_from_dict(d["source"])
    Y = complex_from_dict(d["target"])
    comps = {}
    for k, rows in d["components"].items():
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
    D = d["truncation"]
    coeffs = {int(k): tuple(v) for k, v in d["coefficients"].items()}

    def shape(n):
        return len(coeffs.get(n, ()))

    face = {}
    for k, rows in d["faces"].items():
        n, i = map(int, k.split(","))
        face[(n, i)] = Mat(shape(n - 1), shape(n), rows)
    degen = {}
    for k, rows in d["degeneracies"].items():
        n, i = map(int, k.split(","))
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
    M, N = d["truncation"]
    cells = {tuple(map(int, k.split(","))): tuple(v)
             for k, v in d["cells"].items()}

    def tbl(key):
        out = {}
        for k, mapping in d[key].items():
            p, q, i = map(int, k.split(","))
            out[(p, q, i)] = dict(mapping)
        return out

    return BisimplicialSet(M, N, cells, tbl("h_faces"), tbl("h_degens"),
                           tbl("v_faces"), tbl("v_degens"))


# -- simplicial categories ---------------------------------------------------


def simplicial_category_to_dict(C):
    comp = {}
    for (x, y, z), table in sorted(C.comp.items()):
        entries = []
        for (g, f), h in sorted(table.items()):
            entries.append([[list(g[0]), g[1]], [list(f[0]), f[1]],
                            [list(h[0]), h[1]]])
        comp["%s|%s|%s" % (x, y, z)] = entries
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
    mapspaces = {}
    for k, sub in d["map_spaces"].items():
        x, y = k.split("|")
        mapspaces[(x, y)] = sset_from_dict(sub)
    tables = {}
    for k, entries in d["compositions"].items():
        x, y, z = k.split("|")
        tables[(x, y, z)] = {
            ((tuple(g[0]), g[1]), (tuple(f[0]), f[1])):
            (tuple(h[0]), h[1]) for g, f, h in entries}

    def compose_fn(x, y, z, q, g, f):
        return tables[(x, y, z)][(g, f)]

    return SimplicialCategory(d["objects"], mapspaces, d["identities"],
                              compose_fn, d["level_bound"])


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
}


def load_object(path, expect=None):
    d = load(path)
    kind = d.get("kind")
    if expect is not None and kind != expect:
        raise InputError("expected a %s document, found %r"
                         % (expect, kind))
    loader = LOADERS.get(kind)
    if loader is None:
        raise InputError("unknown document kind %r" % (kind,))
    return loader(d)
