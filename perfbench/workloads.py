"""Seeded input documents, job lists and known answers for the four
workloads.

Everything here is plain Python: inputs are written as JSON by this
module and every expected answer is computed here from first principles,
never by importing simpcat.  A job is one CLI command (driven through
``simpcat.cli.main``) or one library call (see ``LIBRARY_CALLS`` in
``run.py``); its check receives the exit code, the captured stdout and
the bytes of its ``--out`` file and returns an error string or None.
"""

import hashlib
import itertools
import json
import os
import random
from math import comb

WORKLOADS = ("horn-check", "construct", "segal-rezk", "algebra")


# -- categories as plain data ------------------------------------------------


class Cat:
    """A finite category: objects, named arrows, composition table keyed
    (g, f) for "f then g", identities."""

    def __init__(self, objects, arrows, comp, ident):
        self.objects = list(objects)
        self.arrows = [a for a, _, _ in arrows]
        self.src = {a: s for a, s, _ in arrows}
        self.dst = {a: t for a, _, t in arrows}
        self.comp = dict(comp)
        self.ident = dict(ident)

    def hom(self, x, y):
        return [a for a in self.arrows
                if self.src[a] == x and self.dst[a] == y]

    def is_iso(self, a):
        return any(self.comp[(b, a)] == self.ident[self.src[a]]
                   and self.comp[(a, b)] == self.ident[self.dst[a]]
                   for b in self.hom(self.dst[a], self.src[a]))

    def isos(self):
        return [a for a in self.arrows if self.is_iso(a)]

    def is_groupoid(self):
        return all(self.is_iso(a) for a in self.arrows)

    def doc(self, weak=None):
        d = {"kind": "category", "objects": self.objects,
             "arrows": [{"name": a, "src": self.src[a], "dst": self.dst[a]}
                        for a in self.arrows],
             "identities": self.ident,
             "compose": sorted([g, f, c] for (g, f), c in self.comp.items())}
        if weak is not None:
            d["weak"] = sorted(weak)
        return d


def group(elements, mul, unit):
    """One-object delooping; compose(g, f) = mul(g, f)."""
    arrows = [(g, "*", "*") for g in elements]
    comp = {(g, f): mul(g, f) for g in elements for f in elements}
    return Cat(["*"], arrows, comp, {"*": unit})


def cyclic(m):
    els = ["g%d" % k for k in range(m)]
    return group(els, lambda g, f: "g%d" % ((int(g[1:]) + int(f[1:])) % m),
                 "g0")


def klein():
    els = ["e", "a", "b", "c"]
    return group(els, lambda g, f: els[els.index(g) ^ els.index(f)], "e")


def symmetric3():
    perms = list(itertools.permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    by_name = {v: k for k, v in name.items()}

    def mul(g, f):  # g after f
        pg, pf = by_name[g], by_name[f]
        return name[tuple(pg[pf[i]] for i in range(3))]

    return group([name[p] for p in perms], mul, "012")


def preorder(objects, rel):
    """Thin category of a reflexive-transitive relation."""
    arrows = [("%s<=%s" % (x, y), x, y) for x in objects for y in objects
              if (x, y) in rel]
    names = {(s, t): a for a, s, t in arrows}
    comp = {}
    for f, x, y in arrows:
        for g, y2, z in arrows:
            if y2 == y:
                comp[(g, f)] = names[(x, z)]
    return Cat(objects, arrows, comp, {x: names[(x, x)] for x in objects})


def ordinal(n):
    objs = [str(i) for i in range(n + 1)]
    return preorder(objs, {(x, y) for x in objs for y in objs
                           if int(x) <= int(y)})


def closure(objs, rel):
    rel = set(rel) | {(x, x) for x in objs}
    for y in objs:  # Warshall
        for x in objs:
            for z in objs:
                if (x, y) in rel and (y, z) in rel:
                    rel.add((x, z))
    return preorder(objs, rel)


def random_thin(rng, n_objects, p=0.4):
    """Reflexive-transitive closure of a seeded random relation."""
    objs = [chr(ord("a") + i) for i in range(n_objects)]
    return closure(objs, {(x, y) for x in objs for y in objs
                          if x != y and rng.random() < p})


def random_thin_like(rng, n_objects, spec, d):
    """A seeded random thin category with the same chain counts up to d
    and the same number of isomorphisms as the preorder generated by
    spec (e.g. "a<=b b<=c"), so that every seed costs about the same
    while the shape varies.  Falls back to the reference itself."""
    objs = [chr(ord("a") + i) for i in range(n_objects)]
    ref = closure(objs, [tuple(p.split("<=")) for p in spec.split()])

    def signature(C):
        return chain_counts(C, d, degenerate=True), len(C.isos())

    want = signature(ref)
    for _ in range(20000):
        C = random_thin(rng, n_objects)
        if signature(C) == want:
            return C
    return ref


def free_endo_category():
    """x with two parallel arrows f, g to y and no other composites; with
    f weak its localization contains the free monoid on g.f^-1, so every
    finite fuel budget must refuse."""
    arrows = [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y"),
              ("g", "x", "y")]
    comp = {("ix", "ix"): "ix", ("iy", "iy"): "iy"}
    for a in ("f", "g"):
        comp[(a, "ix")] = a
        comp[("iy", a)] = a
    return Cat(["x", "y"], arrows, comp, {"x": "ix", "y": "iy"})


# -- counting from first principles ------------------------------------------


def chain_counts(C, d, arrows=None, degenerate=False):
    """Number of composable k-chains for k = 0..d, by dynamic programming
    over hom-set sizes.  With degenerate=False identity links are
    excluded, giving the nondegenerate cells of the nerve."""
    arrows = C.arrows if arrows is None else arrows
    size = {(x, y): 0 for x in C.objects for y in C.objects}
    for a in arrows:
        if degenerate or C.ident[C.src[a]] != a:
            size[(C.src[a], C.dst[a])] += 1
    vec = {x: 1 for x in C.objects}
    out = []
    for _ in range(d + 1):
        out.append(sum(vec.values()))
        vec = {x: sum(size[(x, y)] * vec[y] for y in C.objects)
               for x in C.objects}
    return out


def product_poset_chains(n, m):
    """Strict chains in [n]x[m] by length: entry k counts chains of k+1
    elements, i.e. nondegenerate k-cells of the product of simplices."""
    elems = [(i, j) for i in range(n + 1) for j in range(m + 1)]
    ending = {e: [1] for e in elems}
    for e in elems:  # elems are in a linear extension order
        for f in elems:
            if f != e and f[0] <= e[0] and f[1] <= e[1]:
                row = ending[f]
                for k, c in enumerate(row):
                    if len(ending[e]) <= k + 1:
                        ending[e].append(0)
                    ending[e][k + 1] += c
    total = [0] * (n + m + 1)
    for row in ending.values():
        for k, c in enumerate(row):
            total[k] += c
    return total


def boolean_lattice_chains(r):
    """Strict chains in the subsets of an r-set, by number of links."""
    by_size = {s: [1] for s in range(r + 1)}  # chains ending at a set
    for s in range(r + 1):
        for t in range(s):
            for k, c in enumerate(by_size[t]):
                if len(by_size[s]) <= k + 1:
                    by_size[s].append(0)
                by_size[s][k + 1] += comb(s, t) * c
    total = [0] * (r + 1)
    for s in range(r + 1):
        for k, c in enumerate(by_size[s]):
            total[k] += comb(r, s) * c
    return total


def monotone_grids(p, q, n):
    """Monotone maps [p]x[q] -> [n]: (q+1) stacked weakly increasing rows
    of length p+1, each row pointwise below the next."""
    rows = [r for r in itertools.product(range(n + 1), repeat=p + 1)
            if all(a <= b for a, b in zip(r, r[1:]))]
    ways = {r: 1 for r in rows}
    for _ in range(q):
        ways = {r: sum(w for s, w in ways.items()
                       if all(a <= b for a, b in zip(s, r)))
                for r in rows}
    return sum(ways.values())


def trim(counts):
    counts = list(counts)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def sset_counts(doc):
    cells = doc.get("cells", {})
    top = max((int(k) for k in cells), default=-1)
    return trim(len(cells.get(str(k), ())) for k in range(top + 1))


# -- integer linear algebra for the known homology ---------------------------


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(torsion, free_rank):
    """Invariant-factor form of Z^free + sum Z/t: torsion in divisor
    order, then one 0 per free summand (simpcat's normal form)."""
    powers = {}
    for t in torsion:
        for p, e in _factor(t).items():
            powers.setdefault(p, []).append(p ** e)
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for p, vals in powers.items():
        vals.sort()
        for i, v in enumerate(vals):
            factors[length - len(vals) + i] *= v
    return [f for f in factors if f > 1] + [0] * free_rank


def matmul(A, B, inner):
    return [[sum(A[i][k] * B[k][j] for k in range(inner))
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


def unimodular(rng, r, steps):
    """A seeded unimodular r x r matrix and its inverse, as a product of
    elementary row additions."""
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    Pinv = [row[:] for row in P]
    for _ in range(steps if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        k = rng.choice((-1, 1))
        for c in range(r):  # P <- E P with E = I + k e_ij
            P[i][c] += k * P[j][c]
        for row in Pinv:  # Pinv <- Pinv E^-1
            row[j] -= k * row[i]
    return P, Pinv


class BlockComplex:
    """A free Z-complex built from elementary blocks and conjugated by
    seeded unimodular basis changes, so its homology is known.

    blocks: ("free", n) is Z in degree n with zero differential; ("edge",
    n, t) is Z --t--> Z from degree n+1 to degree n, contributing Z/t to
    H_n (nothing when t = 1)."""

    def __init__(self, rng, window, blocks, steps):
        self.lo, self.hi = window
        self.blocks = blocks
        self.rank = {n: 0 for n in range(self.lo, self.hi + 1)}
        pos = []
        for b in blocks:
            if b[0] == "free":
                pos.append((self.rank[b[1]],))
                self.rank[b[1]] += 1
            else:
                n = b[1]
                pos.append((self.rank[n + 1], self.rank[n]))
                self.rank[n + 1] += 1
                self.rank[n] += 1
        self.plain = {}
        for n in range(self.lo + 1, self.hi + 1):
            self.plain[n] = [[0] * self.rank[n]
                             for _ in range(self.rank[n - 1])]
        for b, p in zip(blocks, pos):
            if b[0] == "edge":
                self.plain[b[1] + 1][p[1]][p[0]] = b[2]
        self.P, self.Pinv = {}, {}
        for n in range(self.lo, self.hi + 1):
            self.P[n], self.Pinv[n] = unimodular(rng, self.rank[n], steps)
        self.diff = {}
        for n in range(self.lo + 1, self.hi + 1):
            D = matmul(self.P[n - 1], self.plain[n], self.rank[n - 1])
            self.diff[n] = matmul(D, self.Pinv[n], self.rank[n])

    def homology(self):
        out = {}
        for n in range(self.lo, self.hi + 1):
            free = sum(1 for b in self.blocks if b == ("free", n))
            torsion = [b[2] for b in self.blocks
                       if b[0] == "edge" and b[1] == n and b[2] > 1]
            out[n] = invariant_factors(torsion, free)
        return out

    def doc(self, plain=False):
        diff = self.plain if plain else self.diff
        return {"kind": "chain-complex", "ring": "Z",
                "window": [self.lo, self.hi],
                "ranks": {str(n): r for n, r in self.rank.items()},
                "differentials": {str(n): diff[n] for n in diff}}


def random_blocks(rng, window, count, label):
    """count blocks whose kinds and degrees are fixed by label (the same
    for every seed); torsion orders are drawn from rng."""
    shape = random.Random("shape:" + label)
    lo, hi = window
    blocks = []
    for _ in range(count):
        if shape.random() < 0.35:
            blocks.append(("free", shape.randint(lo, hi)))
        else:
            blocks.append(("edge", shape.randint(lo, hi - 1),
                           rng.choice((1, 2, 3, 4, 6))))
    return blocks


def chain_map_doc(X, Y, comps):
    return {"kind": "chain-map", "source": X, "target": Y,
            "components": {str(n): m for n, m in comps.items()}}


def zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


# -- jobs ----------------------------------------------------------------------


class Job:
    """One timed unit: a CLI argv or a library call, with its check."""

    def __init__(self, name, check, argv=None, call=None, out=None,
                 source=b""):
        self.name = name
        self.argv = argv
        self.call = call
        self.out = out
        self.check = check
        # digests are keyed by job name and the generated bytes the job's
        # chain starts from, so a seed that regenerates the same inputs
        # is held to the same committed digest
        self.key = "%s@%s" % (name, hashlib.sha256(source).hexdigest()[:16])


def expect(rc_want, lines=(), doc=None, last_line=None):
    """A check on exit code, stdout content and the parsed --out
    document.  lines: substrings stdout must contain; doc: a function of
    the parsed document returning an error string or None."""

    def check(rc, stdout, out_bytes):
        if rc != rc_want:
            return "exit %r, want %r" % (rc, rc_want)
        for line in lines:
            if line not in stdout:
                return "stdout lacks %r" % (line,)
        if last_line is not None and \
                stdout.rstrip("\n").split("\n")[-1] != last_line:
            return "last stdout line is not %r" % (last_line,)
        if doc is not None:
            if not out_bytes:
                return "no output document"
            return doc(json.loads(out_bytes))
        return None

    return check


def equal(label, got, want):
    return None if got == want else "%s: got %r, want %r" % (label, got,
                                                             want)


class Builder:
    """Writes input documents into a work directory and collects jobs."""

    def __init__(self, workdir):
        self.dir = workdir
        self.jobs = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def write(self, name, payload):
        data = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
        with open(self.path(name), "wb") as fh:
            fh.write(data)
        return self.path(name), data

    def cli(self, name, argv, check, out=None, source=b""):
        out_path = self.path(out) if out else None
        full = list(argv) + (["--out", out_path] if out_path else [])
        self.jobs.append(Job(name, check, argv=full, out=out_path,
                             source=source))
        return out_path

    def lib(self, name, call, args, check, out, source=b""):
        out_path = self.path(out)
        self.jobs.append(Job(name, check, call=(call, list(args) +
                                                [out_path]),
                             out=out_path, source=source))
        return out_path


def horn_check(b, seed):
    rng = random.Random("%d:horn-check" % seed)
    cases = [("z4", cyclic(4), 5), ("z5", cyclic(5), 4),
             ("s3", symmetric3(), 4), ("klein", klein(), 4),
             ("o3", ordinal(3), 5), ("o4", ordinal(4), 5)]
    for i, (n, spec, d) in enumerate([(4, "a<=b b<=a b<=c", 5),
                                      (4, "a<=b b<=a b<=c c<=b", 4),
                                      (5, "a<=b b<=a a<=c c<=d e<=d", 4)]):
        cases.append(("thin%d" % i, random_thin_like(rng, n, spec, d), d))
    for name, C, d in cases:
        cat, src = b.write(name + ".cat", C.doc())
        nondeg = trim(chain_counts(C, d))
        allc = chain_counts(C, d, degenerate=True)
        core = trim(chain_counts(C, d, arrows=C.isos()))

        def nerve_doc(doc, d=d, nondeg=nondeg):
            return equal("truncation", doc["truncation"], d) or \
                equal("cells", sset_counts(doc), nondeg)

        nerve = b.cli("nerve/" + name, ["nerve", cat, "--dim", str(d)],
                      expect(0, doc=nerve_doc), out=name + ".sset",
                      source=src)
        lines = ["horn(%d,%d): tested=%d unfillable=0 nonunique=0"
                 % (n, k, allc[n]) for n in range(2, d + 1)
                 for k in range(1, n)]
        b.cli("check-quasicategory/" + name,
              ["check-quasicategory", nerve, "--dim", str(d)],
              expect(0, lines, last_line="quasicategory up to dimension %d"
                     % d), source=src)
        if C.is_groupoid():
            kan = expect(0, last_line="Kan up to dimension %d" % d)
        else:
            kan = expect(1, doc=lambda doc: equal("kind", doc["kind"],
                                                  "horn-witness"))
        b.cli("check-kan/" + name, ["check-kan", nerve, "--dim", str(d)],
              kan, out=name + ".kan.json", source=src)

        def ho_doc(doc, C=C):
            homs = sorted(len(C.hom(x, y)) for x in C.objects
                          for y in C.objects)
            got = {}
            for a in doc["arrows"]:
                got[(a["src"], a["dst"])] = got.get((a["src"], a["dst"]),
                                                    0) + 1
            return equal("objects", sorted(doc["objects"]),
                         sorted(C.objects)) or \
                equal("hom sizes", sorted(got.get((x, y), 0)
                                          for x in C.objects
                                          for y in C.objects), homs)

        b.cli("ho/" + name, ["ho", nerve], expect(0, doc=ho_doc),
              out=name + ".ho.cat", source=src)
        n_isos = len(C.isos())
        b.cli("equivalences/" + name, ["equivalences", nerve],
              expect(0, doc=lambda doc, n=n_isos:
                     equal("equivalences", len(doc["edges"]), n)),
              out=name + ".eq.json", source=src)
        b.cli("max-kan/" + name, ["max-kan", nerve],
              expect(0, doc=lambda doc, core=core:
                     equal("cells", sset_counts(doc), core)),
              out=name + ".maxkan.sset", source=src)
        if C.is_groupoid():
            x = C.objects[0]
            b.cli("pi1/" + name, ["pi1", nerve, "--base", x],
                  expect(0, doc=lambda doc, n=len(C.hom(x, x)):
                         equal("order", doc["order"], n)),
                  out=name + ".pi1.json", source=src)
        else:
            x = C.objects[0]
            y = max(C.objects, key=lambda o: (len(C.hom(x, o)), o))
            # the right mapping space of a nerve is the discrete set C(x, y)
            b.cli("hom-space/" + name,
                  ["hom-space", nerve, x, y, "--dim", "2"],
                  expect(0, doc=lambda doc, n=len(C.hom(x, y)):
                         equal("cells", sset_counts(doc), trim([n]))),
                  out=name + ".hom.sset", source=src)


def simplex_doc(n):
    cells = {}
    faces = {}
    for k in range(n + 1):
        subsets = list(itertools.combinations(range(n + 1), k + 1))
        cells[str(k)] = ["".join(map(str, s)) for s in subsets]
        for s in subsets if k else ():
            faces["%d:%s" % (k, "".join(map(str, s)))] = [
                [list(range(k)), "".join(map(str, s[:i] + s[i + 1:]))]
                for i in range(k + 1)]
    return {"kind": "simplicial-set", "truncation": None, "cells": cells,
            "faces": faces}


def discrete_scat_doc(C, level_bound):
    """C as a simplicial category with discrete map spaces."""
    spaces = {}
    for x in C.objects:
        for y in C.objects:
            spaces[(x, y)] = C.hom(x, y)
    comps = {}
    for x in C.objects:
        for y in C.objects:
            for z in C.objects:
                if not spaces[(x, y)] or not spaces[(y, z)]:
                    continue
                entries = []
                for q in range(level_bound + 1):
                    s = [0] * (q + 1)
                    for gi, g in enumerate(spaces[(y, z)]):
                        for fi, f in enumerate(spaces[(x, y)]):
                            h = spaces[(x, z)].index(C.comp[(g, f)])
                            entries.append([[s, gi], [s, fi], [s, h]])
                comps["%s|%s|%s" % (x, y, z)] = entries
    return {"kind": "simplicial-category", "objects": C.objects,
            "level_bound": level_bound,
            "map_spaces": {"%s|%s" % k: {"kind": "simplicial-set",
                                         "truncation": None,
                                         "cells": {"0": v} if v else {},
                                         "faces": {}}
                           for k, v in spaces.items()},
            "identities": C.ident, "compositions": comps}


def construct(b, seed):
    rng = random.Random("%d:construct" % seed)
    simplices = {}
    for n in range(1, 6):
        simplices[n] = b.write("delta%d.sset" % n, simplex_doc(n))
    # both orders: the factors' roles differ in the normalizer and the
    # projections; n + m = 7 alone would double the pass time
    pairs = [(n, m) for n in range(1, 6) for m in range(1, 6) if n + m <= 6]
    for n, m in pairs:
        (pa, sa), (pb, sb) = simplices[n], simplices[m]
        b.lib("product/%d-%d" % (n, m), "product", [pa, pb],
              expect(0, doc=lambda doc, n=n, m=m:
                     equal("cells", sset_counts(doc),
                           product_poset_chains(n, m))),
              "product%d%d.sset" % (n, m), source=sa + sb)
    # Map(0, n) of frak_c(n) is the (n-1)-cube (Delta^1)^(n-1)
    b.lib("frak-cube-iso/4", "frak_cube_iso", [simplices[1][0], 4],
          expect(0, doc=lambda doc: equal("isomorphic", doc["isomorphic"],
                                          True)),
          "frakiso4.json", source=simplices[1][1])
    for n in range(1, 6):
        def frak_doc(doc, n=n):
            for i in range(n + 1):
                for j in range(n + 1):
                    want = [] if i > j else [1] if i == j else \
                        trim(boolean_lattice_chains(j - i - 1))
                    got = sset_counts(doc["map_spaces"]["%d|%d" % (i, j)])
                    if got != want:
                        return "Map(%d,%d): got %r, want %r" % (i, j, got,
                                                                want)
            return equal("level_bound", doc["level_bound"], max(1, n - 1))

        b.cli("frak-c/%d" % n, ["frak-c", str(n)], expect(0, doc=frak_doc),
              out="frak%d.scat" % n)
    # the coherent nerve of a discrete simplicial category is the nerve
    for name, C, bound, d in [("bz3", cyclic(3), 3, 4),
                              ("o3", ordinal(3), 3, 4),
                              ("thin", random_thin_like(
                                  rng, 4, "a<=b a<=c b<=d c<=d", 3), 2, 3)]:
        path, src = b.write(name + ".scat", discrete_scat_doc(C, bound))
        want = chain_counts(C, d)
        b.cli("coherent-nerve/" + name,
              ["coherent-nerve", path, "--dim", str(d)],
              expect(0, doc=lambda doc, want=want:
                     equal("cells", [len(doc["cells"].get(str(k), ()))
                                     for k in range(len(want))], want)),
              out=name + ".cn.sset", source=src)


def segal_rezk(b, seed):
    rng = random.Random("%d:segal-rezk" % seed)
    G = {"bz2": cyclic(2), "bz3": cyclic(3), "s3": symmetric3()}
    cases = [("o3-id", ordinal(3), "id", 3, 2),
             ("thin0-id", random_thin_like(rng, 4, "a<=b a<=c b<=d c<=d", 3),
              "id", 3, 2),
             ("thin1-id", random_thin_like(rng, 4, "a<=b b<=a b<=c", 3),
              "id", 3, 2),
             ("bz2-id", G["bz2"], "id", 3, 2),
             ("bz2-all", G["bz2"], "all", 3, 2),
             ("bz3-all", G["bz3"], "all", 2, 2),
             ("s3-all", G["s3"], "all", 2, 1),
             ("o2-all", ordinal(2), "all", 2, 2),
             ("o3-all", ordinal(3), "all", 2, 2)]
    for name, C, w, M, N in cases:
        weak = C.arrows if w == "all" else list(C.ident.values())
        path, src = b.write(name + ".cat", C.doc(weak=weak))
        # cells at (p, q) are functors [p]x[q] -> C with vertical legs in W
        want = {}
        for p in range(M + 1):
            for q in range(N + 1):
                if w == "id":
                    want["%d,%d" % (p, q)] = chain_counts(
                        C, p, degenerate=True)[p]
                elif C.is_groupoid() and len(C.objects) == 1:
                    want["%d,%d" % (p, q)] = \
                        len(C.arrows) ** (p + q * (p + 1))
                else:
                    want["%d,%d" % (p, q)] = monotone_grids(
                        p, q, len(C.objects) - 1)
        bis = b.cli("rezk-nerve/" + name,
                    ["rezk-nerve", path, "--dim", str(M),
                     "--dim2", str(N)],
                    expect(0, doc=lambda doc, want=want:
                           equal("cells", {k: len(v) for k, v in
                                           doc["cells"].items()}, want)),
                    out=name + ".bis", source=src)
        b.cli("segal-check/" + name, ["segal-check", bis],
              expect(0, last_line="strict Segal condition holds"),
              source=src)
        # decidable class: rows 0 and 1 nerves of groupoids, inner
        # truncation >= 2.  With W = identities the diagram is complete
        # exactly when C has no nonidentity isomorphism; with W = all
        # arrows of a groupoid it is complete (Rezk).
        if N < 2 or not all(C.is_iso(a) for a in weak):
            check = expect(2, ["not decidable"])
        elif w == "id" and len(C.isos()) > len(C.objects):
            check = expect(1, doc=lambda doc: equal(
                "kind", doc["kind"], "completeness-witness"))
        else:
            check = expect(0, ["complete: "])
        b.cli("completeness/" + name, ["completeness", bis], check,
              out=name + ".compl.json", source=src)


def algebra(b, seed):
    rng = random.Random("%d:algebra" % seed)
    # homology of conjugated block complexes, ranks growing to 40
    for i, (count, steps) in enumerate([(10, 20), (30, 60), (60, 120),
                                        (90, 200)]):
        K = BlockComplex(rng, (0, 4), random_blocks(rng, (0, 4), count,
                                                    "cx%d" % i), steps)
        path, src = b.write("cx%d.cx" % i, K.doc())
        want = {str(n): f for n, f in K.homology().items()}
        b.cli("homology/cx%d" % i, ["homology", path],
              expect(0, doc=lambda doc, want=want:
                     equal("groups", doc["groups"], want)),
              out="cx%d.h.json" % i, source=src)
    # Dold-Kan round trip: N(Gamma C) = C, so homology survives
    K = BlockComplex(rng, (0, 4), random_blocks(rng, (0, 4), 8, "dk"), 8)
    path, src = b.write("dk.cx", K.doc())
    levels = [sum(comb(n, k) * K.rank[k] for k in range(n + 1))
              for n in range(5)]
    sab = b.cli("dold-kan/dk", ["dold-kan", path, "--dim", "4"],
                expect(0, doc=lambda doc: equal(
                    "ranks", [len(doc["coefficients"][str(n)])
                              for n in range(5)], levels)),
                out="dk.sab", source=src)
    nc = b.cli("normalized-chains/dk", ["normalized-chains", sab],
               expect(0, doc=lambda doc: equal("window", doc["window"],
                                               [0, 4])),
               out="dk.nc.cx", source=src)
    want = {str(n): f for n, f in K.homology().items()}
    b.cli("homology/dk", ["homology", nc],
          expect(0, doc=lambda doc: equal("groups", doc["groups"], want)),
          out="dk.h.json", source=src)
    # chain maps on one conjugated complex Y = P X P^-1 with X plain:
    # P is a chain isomorphism, k.id on free homology is not for |k| > 1,
    # and the zero map kills the free class in degree 2
    blocks = random_blocks(rng, (0, 4), 6, "maps") + [("free", 2)]
    K = BlockComplex(rng, (0, 4), blocks, 12)
    X, Y = K.doc(plain=True), K.doc()
    k = rng.choice((-1, 2, 3))
    maps = {"iso": (X, Y, K.P, 0),
            "scale": (Y, Y, {n: [[k * int(i == j) for j in range(r)]
                                 for i in range(r)]
                             for n, r in K.rank.items()},
                      0 if k == -1 else 1),
            "zero": (Y, Y, {n: zero_matrix(r, r)
                            for n, r in K.rank.items()}, 1)}
    for name, (S, T, comps, verdict) in maps.items():
        path, src = b.write("f-%s.cm" % name, chain_map_doc(S, T, comps))
        b.cli("quasi-iso/" + name, ["quasi-iso", path],
              expect(verdict, doc=lambda doc, v=verdict:
                     equal("verdict", doc["verdict"], v == 0)),
              out="f-%s.qi.json" % name, source=src)
        # one acyclic two-term summand per target generator, window
        # grown one step down
        ranks = {n: K.rank.get(n, 0) + K.rank.get(n, 0)
                 + K.rank.get(n + 1, 0) for n in range(-1, 5)}
        b.cli("factor-4a/" + name, ["factor-4a", path],
              expect(0, doc=lambda doc, ranks=ranks: equal(
                  "middle ranks", doc["middle"]["ranks"],
                  {str(n): r for n, r in ranks.items()}) or equal(
                  "checks", all(doc["checks"].values()), True)),
              out="f-%s.4a.json" % name, source=src)
    # 0 -> (torsion in degrees 0..2): one killing round builds the
    # resolutions and a second confirms, so fuel 1 must refuse
    tors = [rng.choice((2, 3, 4, 5)) for _ in range(3)]
    zero_src = {"kind": "chain-complex", "ring": "Z", "window": [0, 3],
                "ranks": {str(n): 0 for n in range(4)}, "differentials": {}}
    target = {"kind": "chain-complex", "ring": "Z", "window": [0, 3],
              "coefficients": {"0": [tors[0]], "1": [tors[1]],
                               "2": [tors[2]], "3": []},
              "differentials": {}}
    comps = {n: zero_matrix(1 if n < 3 else 0, 0) for n in range(4)}
    path, src = b.write("tors.cm", chain_map_doc(zero_src, target, comps))
    b.cli("factor-4b/tors-fuel2", ["factor-4b", path, "--fuel", "2"],
          expect(0, doc=lambda doc: equal(
              "checks", all(doc["checks"].values()), True)),
          out="tors.4b.json", source=src)
    b.cli("factor-4b/tors-fuel1", ["factor-4b", path, "--fuel", "1"],
          expect(2, ["fuel exhausted"]), source=src)
    # localization: [n] at all arrows is the contractible groupoid
    for n in (2, 3):
        C = ordinal(n)
        path, src = b.write("o%d.rel" % n, C.doc(weak=C.arrows))
        b.cli("localize/o%d" % n, ["localize", path, "--fuel", "8"],
              expect(0, doc=lambda doc, n=n: equal(
                  "arrows", len(doc["arrows"]), (n + 1) ** 2)),
              out="o%d.loc.cat" % n, source=src)
    C = free_endo_category()
    path, src = b.write("free.rel", C.doc(weak=["ix", "iy", "f"]))
    b.cli("localize/free-endo", ["localize", path, "--fuel", "4"],
          expect(2, ["fuel exhausted"]), source=src)
    # twisted arrows: Tw(C) -> C^op x C is a discrete left fibration,
    # hence a cocartesian fibration
    for name, C in [("thin", random_thin_like(rng, 4, "a<=c b<=c b<=d", 3)),
                    ("bz3", cyclic(3))]:
        path, src = b.write("tw-%s.cat" % name, C.doc())
        n_arrows = sum(sum(1 for u in C.arrows if C.dst[u] == C.src[f])
                       * sum(1 for v in C.arrows if C.src[v] == C.dst[f])
                       for f in C.arrows)
        tw = b.cli("twisted-arrows/" + name, ["twisted-arrows", path],
                   expect(0, doc=lambda doc, C=C, n=n_arrows: equal(
                       "objects", len(doc["source"]["objects"]),
                       len(C.arrows)) or equal(
                       "arrows", len(doc["source"]["arrows"]), n)),
                   out="tw-%s.fun" % name, source=src)
        b.cli("left-fibration/tw-" + name, ["left-fibration", tw],
              expect(0, last_line="left fibration"), source=src)
        b.cli("cocart-analyze/tw-" + name, ["cocart-analyze", tw],
              expect(0, doc=lambda doc: equal(
                  "verdicts", all(doc["verdicts"].values()), True)),
              out="tw-%s.cocart.json" % name, source=src)
    # group homomorphisms: onto Z/2 lifts every arrow; from the trivial
    # group the generator has no lift
    z4, z2, one = cyclic(4), cyclic(2), cyclic(1)
    for name, S, amap, rc in [
            ("z4-z2", z4, {g: "g%d" % (int(g[1:]) % 2) for g in z4.arrows},
             0),
            ("one-z2", one, {"g0": "g0"}, 1)]:
        path, src = b.write("hom-%s.fun" % name, {
            "kind": "functor", "source": S.doc(), "target": z2.doc(),
            "objects": {"*": "*"}, "arrows": amap})
        b.cli("left-fibration/" + name, ["left-fibration", path],
              expect(rc, last_line="left fibration" if rc == 0 else None),
              out=None if rc == 0 else "hom-%s.lf.json" % name, source=src)
        b.cli("cocart-analyze/" + name, ["cocart-analyze", path],
              expect(rc, doc=lambda doc, rc=rc: equal(
                  "cocartesian", doc["verdicts"]["is_cocartesian_fibration"],
                  rc == 0)),
              out="hom-%s.cocart.json" % name, source=src)


BUILDERS = {"horn-check": horn_check, "construct": construct,
            "segal-rezk": segal_rezk, "algebra": algebra}


def build(workload, seed, workdir):
    """Write the workload's inputs for this seed; return its jobs in pass
    order.  Depends only on (workload, seed)."""
    b = Builder(workdir)
    BUILDERS[workload](b, seed)
    return b.jobs
