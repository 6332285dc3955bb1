"""The library is safe to use from concurrent callers: jobs run from a
thread pool on shared objects write the same bytes as a sequential run.
The simplicial sets are shared, so their per-object tables
(SimplicialSet.memo) are filled from several threads at once.  The
CLI's pause of the cyclic collector is shared by overlapping commands
and undone on every exit."""

import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from simpcat import cli, formats, hcnerve, quasicat, segal, sset
from simpcat.doldkan import free_complex, homology
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import RelativeCategory, bg, nerve, ordinal_category

from families import cyclic_table, iso_pair_category, symmetric3_table
from test_formats_cli import write


def _objects():
    """Fresh objects, none of their tables filled yet."""
    C = iso_pair_category()
    return {
        "bz5": nerve(bg(cyclic_table(5)), 3),
        "bs3": nerve(bg(symmetric3_table()), 3),
        "o4": nerve(ordinal_category(4), 4),
        "iso": nerve(C, 3),
        "rel": RelativeCategory(C, {a for a in C.arrows if C.is_iso(a)}),
        "cube": sset.product(sset.standard_simplex(1),
                             sset.standard_simplex(1))[0],
        "gadget": hcnerve.frak_c(3).mapspaces[("0", "3")],
        "z3": hcnerve.one_object_from_abelian_group(cyclic_table(3), 3),
        "bis": segal.rezk_nerve(RelativeCategory(
            ordinal_category(2), set(ordinal_category(2).arrows)), 2, 1),
        "iso-bis": segal.rezk_nerve(RelativeCategory(
            C, {a for a in C.arrows if C.is_iso(a)}), 3, 2),
        "cx": free_complex("Z", (0, 2), {0: 2, 1: 3, 2: 1},
                           {1: Mat(2, 3, [[2, 0, 4], [0, 3, 0]]),
                            2: Mat(3, 1, [[2], [0], [-1]])}),
    }


def _jobs(obj):
    """(name, thunk returning the job's output document) per job."""
    jobs = []
    for x in ("bz5", "bs3", "o4", "iso"):
        X = obj[x]
        for mode in ("inner", "kan"):
            jobs.append(("classify/%s/%s" % (x, mode),
                         lambda X=X, mode=mode:
                         quasicat.classify(X, 3, mode).as_dict()))
        jobs.append(("ho/" + x, lambda X=X: formats.category_to_dict(
            quasicat.homotopy_category(X))))
        jobs.append(("max-kan/" + x, lambda X=X: formats.sset_to_dict(
            quasicat.max_kan_subset(X))))
    # the map searches read the targets' face_index, block bases and rank
    # tables, which each object builds on first use and keeps
    for x in ("bz5", "iso"):
        jobs.append(("maps/" + x, lambda X=obj[x]: [
            m.assignment for m in sset.enumerate_maps(sset.horn(3, 1), X)]))
    jobs.append(("find-isomorphism", lambda: sset.find_isomorphism(
        obj["gadget"], obj["cube"]).assignment))
    jobs.append(("coherent-nerve", lambda: formats.sset_to_dict(
        hcnerve.coherent_nerve(obj["z3"], 3))))
    jobs.append(("rezk-nerve", lambda: formats.bisimplicial_to_dict(
        segal.rezk_nerve(obj["rel"], 2, 2))))
    jobs.append(("segal-check", lambda: vars(
        segal.strict_segal_check(obj["bis"]))))
    # reads the index tables of the shared nerve and builds its rows
    jobs.append(("completeness", lambda: vars(
        segal.completeness_check(obj["iso-bis"]))))
    jobs.append(("homology", lambda: {
        str(n): list(H.invariant_factors)
        for n, H in homology(obj["cx"]).items()}))
    return jobs


def test_threads_on_shared_objects_match_a_sequential_run():
    want = {name: formats.dumps(job()) for name, job in _jobs(_objects())}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the jobs
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(4):  # fresh objects, so fresh tables, each round
                futures = [(name, pool.submit(job))
                           for name, job in _jobs(_objects()) * 2]
                for name, f in futures:
                    assert formats.dumps(f.result(timeout=60)) == \
                        want[name], name
    finally:
        sys.setswitchinterval(switch)


def test_main_restores_the_collector(tmp_path, monkeypatch):
    kan = write(tmp_path, "bz2.sset",
                formats.sset_to_dict(nerve(bg(cyclic_table(2)), 3)))
    arrow = write(tmp_path, "o1.sset",
                  formats.sset_to_dict(nerve(ordinal_category(1), 3)))
    bad = write(tmp_path, "bad.sset", {"kind": "simplicial-set"})
    cases = [(["check-kan", kan], 0), (["check-kan", arrow], 1),
             (["check-kan", bad], 3), (["check-kan"], 3)]
    inside = []  # whether the collector was on inside a command

    def raising(error):
        def broken(*args):
            inside.append(gc.isenabled())
            raise error("stop")
        return broken
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in cases:
                assert cli.main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
            with monkeypatch.context() as m:
                m.setattr(quasicat, "classify", raising(RuntimeError))
                assert cli.main(["check-kan", kan]) == 4
                assert gc.isenabled() is enabled
                m.setattr(quasicat, "classify", raising(KeyboardInterrupt))
                with pytest.raises(KeyboardInterrupt):
                    cli.main(["check-kan", kan])
                assert gc.isenabled() is enabled
        assert inside == [False] * 4

        # eight overlapping commands: the collector stays off until the
        # last one ends, and each writes the bytes of a sequential run
        gc.enable()
        path = write(tmp_path, "bz5.sset",
                     formats.sset_to_dict(nerve(bg(cyclic_table(5)), 3)))
        want = tmp_path / "want.json"
        assert cli.main(["ho", path, "--out", str(want)]) == 0
        load = formats.load_object

        def load_object(*args):
            inside.append(gc.isenabled())
            return load(*args)
        monkeypatch.setattr(formats, "load_object", load_object)
        start = threading.Barrier(8)

        def run(i):
            start.wait(timeout=60)
            out = tmp_path / ("out%d.json" % i)
            return cli.main(["ho", path, "--out", str(out)]), out
        del inside[:]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside main
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(8), timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert gc.isenabled() and inside == [False] * 8
        for code, out in results:
            assert code == 0 and out.read_bytes() == want.read_bytes(), out
    finally:
        (gc.enable if was_enabled else gc.disable)()
