import json
from dataclasses import replace

import pytest

from annkh.cli import main, parse_ring
from annkh import complexes, tqft
from annkh.corpus import write_corpus
from annkh.diagram import dumps_diagram
from annkh.ring import QH, alpha_eval


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_parsing():
    assert parse_ring("int").kind == "INT"
    assert parse_ring("gf2").p == 2
    assert parse_ring("gf7").p == 7
    assert parse_ring("qh") is QH
    r = parse_ring("alpha:1/2,3")
    assert (r.q0, r.q1) == (alpha_eval("1/2", 3).q0, alpha_eval("1/2", 3).q1)
    # the localized theory defaults to the simplest distinct values
    assert parse_ring("alpha").alpha_images() == (0, 1)


@pytest.mark.parametrize("position", [0, 1])
def test_alpha_ring_with_a_zero_denominator(capsys, corpus_dir, position):
    values = ["1", "1"]
    values[position] = "1/0"
    ring = "alpha:" + ",".join(values)
    code, out, err = run(
        capsys, "homology", corpus_dir / "trefoil_right.json", "--ring", ring
    )
    assert (code, out) == (2, "")
    assert err == f"error: bad alpha values: a zero denominator in {ring!r}\n"


def test_equal_alpha_parameters_point_to_the_planar_variant(capsys, corpus_dir):
    trefoil = corpus_dir / "trefoil_right.json"
    for argv in (
        ("homology", trefoil),
        ("verify", trefoil),
        ("invariance", trefoil, trefoil),
        ("tl-eval", "[(1,2)]", "--n", 2, "--m", 0),
    ):
        code, out, err = run(capsys, *argv, "--ring", "alpha:2,2")
        assert (code, out) == (2, ""), argv
        assert "equal parameters" in err and "--variant planar" in err, argv
        assert "ANNULAR_D" not in err, argv
    code, out, _ = run(
        capsys, "homology", trefoil, "--ring", "alpha:2,2", "--variant", "planar"
    )
    assert code == 0 and out.startswith("i\tq\ta\trank\ttorsion\n")


def test_homology_tsv(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "homology", corpus_dir / "essential_unknot_ccw.json",
        "--ring", "int",
    )
    assert code == 0
    assert out.splitlines() == [
        "i\tq\ta\trank\ttorsion",
        "0\t-1\t-1\t1\t-",
        "0\t1\t1\t1\t-",
    ]


def test_homology_json_mirror(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "homology", corpus_dir / "trefoil_right.json",
        "--ring", "int", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["i", "q", "a", "rank", "torsion"]
    assert all(len(r) == 5 for r in data["rows"])


def test_determinism(capsys, corpus_dir):
    args = ("homology", corpus_dir / "hopf_essential.json", "--ring", "qh")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_generic(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "verify", corpus_dir / "trefoil_right.json",
        "--ring", "generic",
    )
    assert code == 0
    lines = out.splitlines()
    assert "d_squared PASS" in lines
    assert "splitting PASS" in lines
    assert "functoriality PASS" in lines
    assert "beta PASS" in lines


def test_verify_whole_corpus_every_ring(capsys, corpus_dir):
    names = sorted(p.name for p in corpus_dir.glob("*.json"))
    assert len(names) == 13
    for name in names:
        for ring in ("generic", "int", "rat", "gf2", "qh", "alpha"):
            for variant in ("annular", "planar"):
                code, out, _ = run(
                    capsys, "verify", corpus_dir / name,
                    "--ring", ring, "--variant", variant,
                )
                assert code == 0, (name, ring, variant, out)
                assert "FAIL" not in out


def test_planar_homology_table(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "homology", corpus_dir / "trefoil_right.json",
        "--ring", "int", "--variant", "planar",
    )
    assert code == 0
    assert out.splitlines() == [
        "i\tq\ta\trank\ttorsion",
        "0\t-3\t*\t1\t-",
        "0\t-1\t*\t1\t-",
        "2\t-5\t*\t1\t-",
        "3\t-9\t*\t1\t-",
        "3\t-7\t*\t0\t2",
    ]


def test_invariance_r3(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        "invariance",
        corpus_dir / "braid3_r3_a.json",
        corpus_dir / "braid3_r3_b.json",
        "--ring", "gf2",
    )
    assert code == 0 and out.strip() == "EQUAL"


def test_invariance_detects_difference(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        "invariance",
        corpus_dir / "trefoil_right.json",
        corpus_dir / "trefoil_left.json",
        "--ring", "int",
    )
    assert code == 1 and out.strip() == "DIFFER"


def test_lee_rank_verb(capsys, corpus_dir):
    code, out, _ = run(capsys, "lee-rank", corpus_dir / "hopf_null.json")
    assert code == 0 and out.strip() == "4 PASS"


def test_canonical_verb(capsys, corpus_dir):
    code, out, _ = run(capsys, "canonical", corpus_dir / "trefoil_left.json")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("span 2 expected 2 PASS")


@pytest.mark.parametrize(
    "verb, ignored",
    [
        ("lee-rank", ("--ring", "gf2")),
        ("lee-rank", ("--variant", "planar")),
        ("lee-rank", ("--format", "json")),
        ("canonical", ("--ring", "gf2")),
        ("canonical", ("--variant", "planar")),
        ("verify", ("--format", "json")),
    ],
)
def test_verbs_reject_options_they_do_not_read(capsys, corpus_dir, verb, ignored):
    with pytest.raises(SystemExit) as exc:
        main([verb, str(corpus_dir / "hopf_null.json"), *ignored])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(ignored)}" in err


def test_invariance_rejects_format(capsys, corpus_dir):
    path = str(corpus_dir / "hopf_null.json")
    with pytest.raises(SystemExit) as exc:
        main(["invariance", path, path, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_canonical_reads_format(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "canonical", corpus_dir / "hopf_null.json", "--format", "json"
    )
    assert code == 0
    data = json.loads(out.splitlines()[0])
    assert data["columns"] == ["orientation", "adeg", "expected", "cycle", "verdict"]
    assert out.splitlines()[1] == "span 4 expected 4 PASS"


def test_tl_eval_verb(capsys):
    code, out, _ = run(
        capsys, "tl-eval", "[(1,2)]", "--n", "1", "--m", "1",
        "--dots", "1", "--ring", "generic",
    )
    assert code == 0
    assert out.splitlines() == ["row\tcol\tvalue", "0\t0\ta0", "1\t1\ta1"]


def test_tl_rank_verb(capsys):
    code, out, _ = run(capsys, "tl-rank", "--n", "2", "--m", "2")
    assert code == 0 and out.strip() == "tangles 8 rank 6 kernel 2"


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "homology", bad)
    assert code == 2 and "error" in err


def test_homology_rejects_generic_before_building(capsys, corpus_dir, monkeypatch):
    from annkh import complexes

    def refuse(*args, **kwargs):
        raise AssertionError("the complex must not be built")

    monkeypatch.setattr(complexes, "build_complex", refuse)
    code, out, err = run(
        capsys, "homology", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert code == 2 and out == ""
    assert err == (
        "error: homology needs a Euclidean ring; use verify for generic checks\n"
    )


def test_missing_file(capsys):
    code, _, err = run(capsys, "lee-rank", "no_such_file.json")
    assert code == 2 and "error" in err


def test_nudge_flag(capsys, tmp_path):
    from annkh.diagram import AnnularDiagram

    diamond = [(3, 0), (0, 3), (-3, 0), (0, -3), (3, 0)]
    d = AnnularDiagram([], {"e0": diamond}, [["e0"]], [False])
    path = tmp_path / "tangent.json"
    path.write_text(dumps_diagram(d))
    code, _, err = run(capsys, "lee-rank", path)
    assert code == 2 and "RAY_TANGENCY" in err
    code, out, _ = run(capsys, "lee-rank", path, "--nudge")
    assert code == 0 and out.strip() == "2 PASS"


def test_tangle_parse_error(capsys):
    code, _, err = run(
        capsys, "tl-eval", "[(1,", "--n", "1", "--m", "1"
    )
    assert code == 2 and "error" in err


def tl_eval_dots(capsys, tangle, n, m, dots):
    return run(
        capsys, "tl-eval", tangle, "--n", n, "--m", m, "--dots", dots
    )


def test_tl_eval_refuses_too_few_dot_counts(capsys):
    code, out, err = tl_eval_dots(capsys, "[(1,4),(2,3)]", 2, 2, "1")
    assert (code, out) == (2, "")
    assert err == "error: 2 strands need 2 dot counts, not 1\n"


def test_tl_eval_refuses_too_many_dot_counts(capsys):
    code, out, err = tl_eval_dots(capsys, "[(1,4),(2,3)]", 2, 2, "1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: 2 strands need 2 dot counts, not 3\n"


def test_tl_eval_refuses_a_negative_dot_count(capsys):
    code, out, err = tl_eval_dots(capsys, "[(1,2)]", 1, 1, "-1")
    assert (code, out) == (2, "")
    assert err == "error: dot counts [-1] must not be negative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tl-rank", "--n", "-1", "--m", "1"),
        ("tl-eval", "[(1,2)]", "--n", "-1", "--m", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_tl_verbs_refuse_a_negative_count(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: -1 is negative" in err and "spun" not in err


def test_tl_eval_refuses_the_planar_variant(capsys):
    code, out, err = run(
        capsys, "tl-eval", "[(1,2)]", "--n", "1", "--m", "1", "--variant", "planar"
    )
    assert (code, out) == (2, "")
    assert err == "error: tangles evaluate through the annular theory\n"


def test_verify_generic_fails_on_a_corrupted_merge_table(
    capsys, corpus_dir, corrupted_merge
):
    # with m(1 (x) 1) = 2 instead of 1, some squares of the trefoil_left
    # cube stop commuting: d0.d0 and the d_beta identities must fail,
    # while every map still splits into adeg 0 and +2 parts (exit 1, not
    # 2).  trefoil_right would not do: each of its squares runs the same
    # merge, then the same split, along both paths, so any change to the
    # merge table cancels.
    code, out, _ = run(
        capsys, "verify", corpus_dir / "trefoil_left.json", "--ring", "generic"
    )
    assert code == 1
    lines = out.splitlines()
    assert "d_squared FAIL" in lines and "beta FAIL" in lines


def test_verify_generic_fails_beta_alone_on_a_doubled_d2(
    capsys, corpus_dir, monkeypatch
):
    # doubling the adeg +2 part of the maps at crossing 0 leaves d0 and
    # every truncation alone, so only the d_beta identities can see it
    original = complexes.build_cube

    def doubled(*args, **kwargs):
        cube = original(*args, **kwargs)
        edges = [
            replace(e, map=e.map.add(tqft.annular_parts(e.map)[1]))
            if e.coordinate == 0
            else e
            for e in cube.edges
        ]
        return replace(cube, edges=edges)

    monkeypatch.setattr(complexes, "build_cube", doubled)
    code, out, err = run(
        capsys, "verify", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert (code, err) == (1, "")
    assert out == (
        "d_squared PASS\ngrading PASS\nsplitting PASS\n"
        "functoriality PASS\nbeta FAIL\n"
    )


def test_verify_generic_rejects_an_odd_adeg_shift(capsys, corpus_dir, monkeypatch):
    # one more essential codomain circle makes every adeg shift odd
    original = tqft._saddle

    def shifted(*args, **kwargs):
        m = original(*args, **kwargs)
        cod = m.codomain
        slots = cod.slots + (tqft.Slot(True, "V", 1),)
        extra = tqft.StateSpace(cod.ring, cod.planar, slots)
        return tqft.LinearMap.wrap(m.domain, extra, dict(m.entries), m.declared_bidegree)

    monkeypatch.setattr(tqft, "_saddle", shifted)
    code, out, err = run(
        capsys, "verify", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: saddle map shifts adeg by [")
