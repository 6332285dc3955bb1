"""Structured-text (JSON) formats for every object kind, with
bit-exact round-trips on normal forms: canonical key order, fixed
separators, no floats, no timestamps.

The loaders are where documents enter, so each one calls validate() on
the object it builds; the constructors themselves check nothing.
"""

import json
from itertools import product

from .delta import all_surjections, tcompose
from .doldkan import ChainComplex, SimplicialAbGroup
from .errors import InputError
from .fibrations import SplitFunctorToCat
from .hcnerve import SimplicialCategory
from .intlinalg import Mat
from .nerve_cat import FinCategory, Functor, RelativeCategory, _name_key
from .segal import BisimplicialSet
from .sset import SimplicialSet


def dumps(obj):
    # documents are fresh trees from a writer or from JSON: no cycles
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"


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
    return dict(X.as_dict(), kind="simplicial-set")


def sset_from_dict(d):
    if d.get("kind") not in (None, "simplicial-set"):
        raise InputError("expected a simplicial-set document")
    levels, face_doc = _keyed(d.get("cells"), _int_key), d.get("faces", {})
    truncation = d.get("truncation")
    if not (levels is not None and isinstance(face_doc, dict) and all(
            k >= 0 and _is_names(v) for k, v in levels.items()) and (
                truncation is None or type(truncation) is int)):
        raise InputError("malformed simplicial-set document: cells must "
                         "map dimensions to name lists, faces must be an "
                         "object, truncation an integer or null")
    # the levels SimplicialSet keeps: up to the last nonempty one, or up
    # to the truncation when that is higher and the document lists them
    depth = max([k + 1 for k, v in levels.items() if v], default=0)
    if truncation is not None and levels:
        depth = max(depth, min(truncation, max(levels)) + 1)
    names = [tuple(levels.get(k, ())) for k in range(depth)]
    index = [{n: i for i, n in enumerate(level)} for level in names]
    faces = [[()] * len(level) for level in names]
    shared = {}  # one tuple per distinct surjection of the document
    for k in range(1, depth):
        for idx, name in enumerate(names[k]):
            key = "%d:%s" % (k, name)
            # each face is [surjection values, cell name]: integers and
            # names only, as a JSON true or 1.0 would find 1 in any
            # lookup; validate refuses values that are not a surjection
            # (a negative one included)
            try:
                entry = []
                for s, sub in face_doc[key]:
                    if not (_is_ints(s) and _is_name(sub)):
                        raise ValueError("not a face")
                    t = tuple(s)
                    entry.append((shared.setdefault(t, t), index[s[-1]][sub]))
                faces[k][idx] = tuple(entry)
            except (TypeError, ValueError, LookupError):
                raise InputError("missing or malformed face entry for %s"
                                 % key) from None
    return SimplicialSet(truncation, names, faces).validate()


def _is_name(v):
    """Whether v can name a cell, an object or an arrow; JSON booleans
    cannot."""
    return isinstance(v, str) or type(v) is int


def _is_names(v):
    return isinstance(v, list) and all(map(_is_name, v))


def _is_ints(v):
    """Whether v is a list of integers; JSON booleans are not."""
    return isinstance(v, list) and _INT.issuperset(map(type, v))


_INT = frozenset([int])


def _int_key(key):
    """The integer a key writes as str writes it ("7", "-1"), or None;
    "07", "+7", " 7" and "٧" would name 7 too."""
    try:
        n = int(key)
    except ValueError:
        return None
    return n if str(n) == key else None


def _index_key(key, n):
    """The n nonnegative integers of a table key "a,b,...", or None."""
    parts = tuple(map(_int_key, key.split(",")))
    if len(parts) != n or not all(p is not None and p >= 0 for p in parts):
        return None
    return parts


def _keyed(doc, read):
    """The JSON object doc with each key k read as read(k), or None when
    doc is not an object or read refuses a key."""
    if not isinstance(doc, dict):
        return None
    out = {read(k): v for k, v in doc.items()}
    return None if None in out else out


# -- categories --------------------------------------------------------------


def category_to_dict(C, weak=None):
    d = C.as_dict()
    d["kind"] = "category"
    if weak is not None:
        d["weak"] = sorted(weak, key=_name_key)
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
    # an identity is keyed by the string of its object's name
    by_key = {str(x): x for x in d["objects"]}
    ident = {by_key.get(k, k): e for k, e in ident.items()}
    C = FinCategory(d["objects"], arrows, src, dst, comp, ident).validate()
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
                   d["objects"], d["arrows"]).validate()


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
                     m["objects"], m["arrows"]).validate()
        for phi, m in transports.items()})


# -- chain complexes ---------------------------------------------------------


def complex_to_dict(C):
    return dict(C.as_dict(), kind="chain-complex")


def complex_from_dict(d):
    if d.get("kind") not in (None, "chain-complex"):
        raise InputError("expected a chain-complex document")
    window = d.get("window")
    ranked = "coefficients" not in d
    levels = _keyed(d.get("ranks") if ranked else d["coefficients"],
                    _int_key)
    diffs = _keyed(d.get("differentials", {}), _int_key)
    if not (isinstance(d.get("ring"), str) and _is_ints(window)
            and len(window) == 2 and levels is not None
            and all(type(v) is int if ranked else _is_ints(v)
                    for v in levels.values())
            and diffs is not None and all(map(_is_matrix, diffs.values()))):
        raise InputError("malformed chain-complex document: ring must be "
                         "a string, window two integers, coefficients "
                         "(integer lists) or ranks (integers) and "
                         "differentials (integer matrices) objects keyed "
                         "by degree")
    coeffs = {n: (0,) * v if ranked else tuple(v) for n, v in levels.items()}
    diff = {n: Mat(len(coeffs.get(n - 1, ())), len(coeffs.get(n, ())), rows)
            for n, rows in diffs.items()}
    return ChainComplex(d["ring"], tuple(window), coeffs, diff).validate()


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
    comps = _keyed(d.get("components"), _int_key)
    if not (isinstance(d.get("source"), dict)
            and isinstance(d.get("target"), dict)
            and comps is not None and all(map(_is_matrix, comps.values()))):
        raise InputError("malformed chain-map document: source and target "
                         "must be chain-complex documents, components an "
                         "object of integer matrices keyed by degree")
    X = complex_from_dict(d["source"])
    Y = complex_from_dict(d["target"])
    return ChainMap(X, Y, {n: Mat(Y.rank(n), X.rank(n), rows)
                           for n, rows in comps.items()}).validate().reduced()


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
    D, coeffs = d.get("truncation"), _keyed(d.get("coefficients"), _int_key)
    face, degen = (_keyed(d.get(t), lambda k: _index_key(k, 2))
                   for t in ("faces", "degeneracies"))
    if not (isinstance(d.get("ring"), str) and type(D) is int
            and coeffs is not None and all(map(_is_ints, coeffs.values()))
            and face is not None and degen is not None
            and all(map(_is_matrix, [*face.values(), *degen.values()]))):
        raise InputError("malformed simplicial-abelian-group document: "
                         "ring must be a string, truncation an integer, "
                         "coefficients integer lists keyed by degree, and "
                         "faces and degeneracies objects from \"n,i\" to "
                         "integer matrices")
    coeffs = {n: tuple(v) for n, v in coeffs.items()}

    def shape(n):
        return len(coeffs.get(n, ()))

    face = {(n, i): Mat(shape(n - 1), shape(n), rows)
            for (n, i), rows in face.items()}
    degen = {(n, i): Mat(shape(n + 1), shape(n), rows)
             for (n, i), rows in degen.items()}
    return SimplicialAbGroup(d["ring"], D, coeffs, face, degen).validate()


# -- bisimplicial sets -------------------------------------------------------


def bisimplicial_to_dict(X):
    return dict(X.as_dict(), kind="bisimplicial-set")


def bisimplicial_from_dict(d):
    if d.get("kind") not in (None, "bisimplicial-set"):
        raise InputError("expected a bisimplicial-set document")
    truncation = d.get("truncation")
    cells = _keyed(d.get("cells"), lambda k: _index_key(k, 2))
    table_keys = ("h_faces", "h_degens", "v_faces", "v_degens")
    tables = [_keyed(d.get(t), lambda k: _index_key(k, 3))
              for t in table_keys]
    if not (_is_ints(truncation) and len(truncation) == 2
            and cells is not None and all(map(_is_names, cells.values()))
            and all(t is not None and all(isinstance(m, dict)
                                          for m in t.values())
                    for t in tables)):
        raise InputError("malformed bisimplicial-set document: truncation "
                         "must be two integers, cells an object from "
                         "\"p,q\" to name lists, and %s objects from "
                         "\"p,q,i\" to name tables" % ", ".join(table_keys))
    return BisimplicialSet.from_names(truncation[0], truncation[1], cells,
                                      *tables).validate()


# -- simplicial categories ---------------------------------------------------


def simplicial_category_to_dict(C):
    """Every pair of simplices up to the level bound, degenerate ones
    included: the pairs sigma^*(g, f) = (g sigma, f sigma) for each
    stored nondegenerate (g, f) and each surjection sigma, composing to
    (g.f) sigma.  Triples that share one table (those of one cube shape
    in frak_c) share its rows."""
    comp = {}
    written = {}  # id of a table -> its rows
    for (x, y, z), table in sorted(C.comp.items()):
        rows = written.get(id(table))
        if rows is None:
            shapes = {}
            for ((s, gi), (t, fi)), (u, hi) in table.items():
                shapes.setdefault((s, t, u), []).append((gi, fi, hi))
            rows = written[id(table)] = []
            for (s, t, u), cells in shapes.items():
                k = len(s) - 1
                for q in range(k, C.level_bound + 1):
                    for sigma in all_surjections(q, k):
                        # one list per surjection, shared by its rows
                        g, f, h = (list(tcompose(s, sigma)),
                                   list(tcompose(t, sigma)),
                                   list(tcompose(u, sigma)))
                        rows.extend([[g, gi], [f, fi], [h, hi]]
                                    for gi, fi, hi in cells)
            rows.sort()
        comp["%s|%s|%s" % (x, y, z)] = rows
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
    malformed = ("malformed simplicial-category document: objects must be "
                 "a string list, level_bound an integer, identities an "
                 "object of names, map_spaces an object from \"x|y\" to "
                 "simplicial-set documents, compositions an object from "
                 "\"x|y|z\" to lists of [g, f, g.f] simplex triples")
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
                    for k, entries in comp_doc.items())):
        raise InputError(malformed)
    tables = {}
    for k, entries in comp_doc.items():
        x, y, z = k.split("|")
        try:
            tables[(x, y, z)] = {(_simplex(g), _simplex(f)): _simplex(h)
                                 for g, f, h in entries}
        except (TypeError, ValueError):
            raise InputError(malformed) from None
    for pair in (x + "|" + y for x in objects for y in objects):
        if pair not in space_doc:
            raise InputError("the map space %s is missing" % pair)
    mapspaces = {}
    for k, sub in space_doc.items():
        x, y = k.split("|")
        mapspaces[(x, y)] = sset_from_dict(sub)
    # every pair up to the level bound must be listed; the degenerate
    # ones are compared with the composites the nondegenerate ones fix
    listed = []
    for x, y, z in product(objects, repeat=3):
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
        objects, mapspaces, d["identities"],
        lambda x, y, z, q, g, f: tables[(x, y, z)][(g, f)],
        d["level_bound"]).validate()
    for key, g, f, h in listed:
        if (g, f) not in C.comp[key] and C.compose(*key, g, f) != h:
            raise InputError("composition is not simplicial at level %d"
                             % (len(g[0]) - 1))
    return C


def _simplex(v):
    """[surjection values, cell index] as (tuple, index), integers only;
    SimplicialCategory.validate checks that composites are simplices.
    Raises TypeError or ValueError for anything else."""
    s, idx = v
    if not (_is_ints(s) and s and type(idx) is int):
        raise ValueError("not a simplex")
    return tuple(s), idx


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
