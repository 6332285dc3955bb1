import json
import subprocess
import sys

import pytest

from simpcat import formats, quasicat, sset
from simpcat.chain_model import ChainMap, identity_chain_map
from simpcat.doldkan import free_complex, free_simplicial_abelian_group
from simpcat.hcnerve import frak_c
from simpcat.intlinalg import Mat
from simpcat.nerve_cat import (RelativeCategory, bg, cyclic_table, nerve,
                               ordinal_category)
from simpcat.segal import embed, rezk_nerve

from test_nerve_cat import iso_pair_category


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


def test_cli_pi1(tmp_path):
    N = nerve(bg(cyclic_table(3)), 3)
    path = write(tmp_path, "bz3.sset", formats.sset_to_dict(N))
    out = str(tmp_path / "pi1.json")
    assert run_cli(tmp_path, "pi1", path, "--base", "*",
                   "--out", out) == 0
    d = json.loads(open(out).read())
    assert d["order"] == 3
    assert d["structure"] == "cyclic order 3"


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


def test_cli_factorizations(tmp_path):
    X = free_complex("Z", (0, 1), {}, {})
    Y = free_complex("Z", (0, 1), {0: 1}, {})
    f = ChainMap(X, Y, {0: Mat(1, 0), 1: Mat(0, 0)})
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


def test_cli_determinism(tmp_path):
    C = iso_pair_category()
    cpath = write(tmp_path, "c.cat", formats.category_to_dict(C))
    out1 = str(tmp_path / "n1.sset")
    out2 = str(tmp_path / "n2.sset")
    run_cli(tmp_path, "nerve", cpath, "--dim", "3", "--out", out1)
    run_cli(tmp_path, "nerve", cpath, "--dim", "3", "--out", out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_run_job_api(tmp_path):
    from simpcat.cli import run
    N = nerve(ordinal_category(2), 3)
    path = write(tmp_path, "n2.sset", formats.sset_to_dict(N))
    assert run({"command": "check-quasicategory", "inputs": [path],
                "parameters": {"dim": 3}}) == 0
    assert run({"command": "no-such-command", "inputs": []}) == 3
    assert run({"command": "localize", "inputs": [path],
                "parameters": {"fuel": 0}}) == 3
    assert run({"command": "check-quasicategory", "inputs": [path],
                "parameters": {"dim": "2"}}) == 0
    assert run({"command": "check-quasicategory", "inputs": [path],
                "parameters": {"dim": -1}}) == 3
    assert run({"command": "nerve", "inputs": []}) == 3


def test_cli_entrypoint_subprocess(tmp_path):
    # the installed console script runs end to end
    N = nerve(ordinal_category(2), 3)
    path = write(tmp_path, "n2.sset", formats.sset_to_dict(N))
    proc = subprocess.run(
        [sys.executable, "-m", "simpcat.cli", "check-quasicategory",
         path, "--dim", "3"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quasicategory" in proc.stdout
