import json
import random
import time
from fractions import Fraction

import pytest

from annkh.cli import InputError, main, parse_ring
from annkh import complexes, tqft
from annkh.corpus import braid_closure, write_corpus
from annkh.diagram import AnnularDiagram, dumps_diagram
from annkh.errors import AnnkhError
from annkh.ring import PRIME_TEST_BOUND, QH, alpha_eval



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


def test_an_input_error_is_an_annkh_error():
    # so the CLI turns both into exit 2 with one handler
    assert issubclass(InputError, AnnkhError)
    with pytest.raises(AnnkhError, match="unknown ring 'z'"):
        parse_ring("z")


def test_a_large_prime_field_parses_at_once():
    start = time.perf_counter()
    assert parse_ring("gf1000000000000000003").p == 10**18 + 3
    assert time.perf_counter() - start < 0.1


def test_a_prime_field_beyond_the_prime_test_bound(capsys, corpus_dir):
    ring = f"gf{PRIME_TEST_BOUND + 2}"
    code, out, err = run(
        capsys, "homology", corpus_dir / "trefoil_right.json", "--ring", ring
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad prime field {ring!r}")
    assert str(PRIME_TEST_BOUND) in err


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


@pytest.mark.parametrize(
    "ring, reason",
    [
        ("alpha:1e99999999,0", "an exponent beyond 4000"),
        ("alpha:0,-1e-4001", "an exponent beyond 4000"),
        ("alpha:1" + "0" * 4001 + ",0", "a value of over 4001 digits"),
    ],
    ids=["exponent", "negative_exponent", "digits"],
)
def test_alpha_values_beyond_the_cap_are_refused_at_once(capsys, ring, reason):
    start = time.perf_counter()
    code, out, err = run(capsys, "tl-rank", "--n", "1", "--m", "1", "--ring", ring)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: bad alpha values: {reason}\n"


def test_an_alpha_exponent_of_4000_is_a_value(capsys):
    ring = "alpha:1e4000,0"
    assert parse_ring(ring).alpha_images() == (10**4000, 0)
    code, out, err = run(capsys, "tl-rank", "--n", "1", "--m", "1", "--ring", ring)
    assert (code, out, err) == (0, "tangles 2 rank 2 kernel 0\n", "")


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


@pytest.fixture(scope="module")
def kink_by_the_puncture(corpus_dir, tmp_path_factory):
    """The Reidemeister I kink moved right by 29/10: its crossing then
    sits at (-1/10, 0), just left of the puncture."""
    data = json.loads((corpus_dir / "essential_unknot_r1.json").read_text())
    data["edges"] = {
        eid: [[str(Fraction(x) + Fraction(29, 10)), y] for x, y in pts]
        for eid, pts in data["edges"].items()
    }
    path = tmp_path_factory.mktemp("kink") / "kink_by_the_puncture.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("ring", ["int", "gf2", "alpha:1,3"])
def test_a_kink_by_the_puncture_is_an_essential_unknot(
    capsys, corpus_dir, kink_by_the_puncture, ring
):
    unknot = corpus_dir / "essential_unknot_ccw.json"
    code, out, err = run(capsys, "homology", kink_by_the_puncture, "--ring", ring)
    assert (code, err) == (0, "")
    assert out == run(capsys, "homology", unknot, "--ring", ring)[1]
    if ring != "alpha:1,3":
        code, out, _ = run(
            capsys, "invariance", unknot, kink_by_the_puncture, "--ring", ring
        )
        assert (code, out) == (0, "EQUAL\n")


def test_a_kink_by_the_puncture_verifies(capsys, kink_by_the_puncture):
    code, out, _ = run(capsys, "verify", kink_by_the_puncture, "--ring", "generic")
    assert code == 0 and "FAIL" not in out, out


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


def test_canonical_traces_each_orientation_once(capsys, corpus_dir, monkeypatch):
    # the cube resolves each smoothing once, each orientation's report
    # its oriented smoothing once, and the span reuses their generators
    calls = []
    resolve = AnnularDiagram.resolve
    monkeypatch.setattr(
        AnnularDiagram, "resolve", lambda d, u: calls.append(u) or resolve(d, u)
    )
    for name, crossings, orientations in (("hopf_null", 2, 4), ("braid3_r3_a", 3, 4)):
        calls.clear()
        code, _, _ = run(capsys, "canonical", corpus_dir / f"{name}.json")
        assert code == 0
        assert len(calls) == 2**crossings + orientations, name


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


@pytest.mark.parametrize("text", ["{not json", "[]", '"x"', "3"])
def test_input_error_exit_code(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "homology", bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: "), err


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("point", '["1/0", "1"]', "edge e0: bad point"),
        ("point", "null", "edge e0: bad point"),
        ("point", '[1e400, "1"]', "edge e0: bad point"),
        # a string of two characters is not a point
        ("point", '"12"', "edge e0: bad point"),
        # JSON booleans are not coordinates, though Fraction(True) is 1
        ("point", '[true, "1"]', "edge e0: bad point"),
        ("edges", "[]", "edges must map"),
    ],
)
def test_malformed_coordinates_are_input_errors(
    capsys, corpus_dir, tmp_path, key, value, named
):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    if key == "point":
        data["edges"]["e0"][1] = "@"
    else:
        data["edges"] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"@"', value))
    code, out, err = run(capsys, "homology", bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: {named}"), err


@pytest.mark.parametrize(
    "point",
    [
        # parses, but only after seconds
        ["1e10000000", "1"],
        # on the reference ray: a violation naming a point of 10^6 digits
        ["1e1000000", "0"],
        ["1", "-1e4001"],
    ],
)
def test_huge_exponents_are_refused_at_once(capsys, corpus_dir, tmp_path, point):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data["edges"]["e0"][1] = point
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", bad)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: edge e0: bad point"), err
    assert "an exponent beyond 4000" in err


def test_an_exponent_of_4000_is_a_coordinate(capsys, corpus_dir, tmp_path):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data["edges"]["e0"][1] = ["1e-4000", "7"]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "lee-rank", path)[:2] == (0, "2 PASS\n")


@pytest.mark.parametrize(
    "point",
    [
        # 8,000 digits on the reference ray: the violation naming it
        # could not be printed
        ["9" * 4000 + "e4000", "0"],
        ["1" + "0" * 4001, "7"],
        # a denominator of 10**4001
        ["1", "0." + "0" * 4000 + "1"],
    ],
    ids=["on_the_ray", "numerator", "denominator"],
)
def test_long_mantissas_are_refused(capsys, corpus_dir, tmp_path, point):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data["edges"]["e0"][1] = point
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: edge e0: bad point"), err
    assert "a coordinate of over 4001 digits" in err


@pytest.mark.parametrize(
    "scale, detail",
    [
        (1, "meet at (Fraction(0, 1), Fraction(6, 1))"),
        (10**4000, "meet at a point whose coordinates are too long to print"),
    ],
    ids=["small", "huge"],
)
def test_a_bow_tie_is_refused_however_long_its_meeting_point(
    capsys, corpus_dir, tmp_path, scale, detail
):
    # the middle segments cross away from any crossing point; at the
    # huge scale every coordinate is within the cap, but their meeting
    # point has over 4,300 digits, more than Python prints
    rng = random.Random(60)
    offset = 10**3998 if scale > 1 else 1
    corners = [
        [str(c * scale + rng.randrange(offset)) for c in xy]
        for xy in ((1, 5), (-1, 7), (-1, 5), (1, 7))
    ]
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data["edges"]["e0"] = corners + [corners[0]]
    bad = tmp_path / "bow_tie.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", bad)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: SELF_INTERSECTION at edges e0/e0: {detail}\n"


@pytest.mark.parametrize(
    "x",
    ["1e4000", "9" * 4001, "9" * 4001 + "e-4000"],
    ids=["1e4000", "nines", "nines_e-4000"],
)
def test_the_largest_coordinates_parse(capsys, corpus_dir, tmp_path, x):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data["edges"]["e0"][1] = [x, "7"]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "lee-rank", path)[:2] == (0, "2 PASS\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("crossings", "null"),
        ("crossings", "[5]"),
        ("components", "null"),
        ("components", "[null]"),
        ("orientations", "null"),
        # entries are JSON booleans and arrays, never coerced
        ("orientations", '["false"]'),
        ("orientations", "[0]"),
        ("crossings", '["abcd"]'),
        # a crossing record names edges by their string ids
        ("crossings", '[[["x"], "b", "c", "d"]]'),
        ("crossings", '[[{}, "b", "c", "d"]]'),
        ("components", '["e0"]'),
        # a component names edges by their string ids, as a crossing does
        ("components", "[[0]]"),
    ],
)
def test_malformed_fields_are_input_errors(
    capsys, corpus_dir, tmp_path, key, value
):
    data = json.loads((corpus_dir / "trivial_unknot.json").read_text())
    data[key] = json.loads(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: {key}: malformed field"), err


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


def test_a_nudge_past_the_coordinate_cap_is_an_input_error(capsys, tmp_path):
    # every rotation of this square moves a coordinate of 4,001 digits
    # past the cap, which parsing the rotated diagram refuses
    square = [["1e4000", "0"], ["2e4000", "1e4000"], ["1e4000", "2e4000"],
              ["0", "1e4000"], ["1e4000", "0"]]
    data = {"crossings": [], "edges": {"e0": square}, "components": [["e0"]],
            "orientations": [False]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", path)
    assert (code, out) == (2, "") and "RAY_TANGENCY" in err
    code, out, err = run(capsys, "homology", path, "--nudge")
    assert (code, out) == (2, "") and "RAY_TANGENCY" in err
    assert "--nudge cannot rotate it" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "tangle, n, m",
    [
        ("[(1,", "1", "1"),
        ("5", "2", "0"),
        ("[(1,2),3]", "2", "0"),
        ("[(1,None)]", "2", "0"),
        ("{1:2}", "2", "0"),
    ],
)
def test_tangle_parse_error(capsys, tangle, n, m):
    code, out, err = run(capsys, "tl-eval", tangle, "--n", n, "--m", m)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad tangle notation {tangle!r}"), err


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
    # doubling the adeg +2 part of the edges at crossing 0 leaves d0 and
    # every truncation alone, so only the d_beta identities can see it
    original = complexes.build_complex

    def doubled(*args, **kwargs):
        c = original(*args, **kwargs)
        vertex = {(i, off): u for (i, u), off in c.offsets.items()}
        for i, rows in c.blocks.items():
            src, dst = c.bigrade[i], c.bigrade[i + 1]
            for n, (rof, cof, items) in enumerate(rows):
                if vertex[(i, cof)][0] == vertex[(i + 1, rof)][0]:
                    continue  # not an edge at crossing 0
                rows[n] = (rof, cof, [
                    ((r, col), 2 * v if dst[rof + r][1] - src[cof + col][1] == 2 else v)
                    for (r, col), v in items
                ])
        return c

    monkeypatch.setattr(complexes, "build_complex", doubled)
    code, out, err = run(
        capsys, "verify", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert (code, err) == (1, "")
    assert out == (
        "d_squared PASS\ngrading PASS\nsplitting PASS\n"
        "functoriality PASS\nbeta FAIL\n"
    )


def test_verify_generic_fails_functoriality_on_a_mutated_annular_table(
    capsys, corpus_dir, mutated_annular_table
):
    # the planar cube is untouched, so only functoriality, which places
    # the annular table on every edge, can see the mutation
    code, out, err = run(
        capsys, "verify", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert (code, err) == (1, "")
    assert out == (
        "d_squared PASS\ngrading PASS\nsplitting PASS\n"
        "functoriality FAIL\nbeta PASS\n"
    )


def test_verify_generic_fails_functoriality_on_t27_with_shared_maps(
    capsys, tmp_path, mutated_annular_table
):
    # T(2,7) has 448 edges of 27 shapes: the check runs once per
    # distinct map and must still see the mutation
    path = tmp_path / "t27.json"
    path.write_text(dumps_diagram(braid_closure([1] * 7, 2)))
    code, out, err = run(capsys, "verify", path, "--ring", "generic")
    assert (code, err) == (1, "")
    assert out == (
        "d_squared PASS\ngrading PASS\nsplitting PASS\n"
        "functoriality FAIL\nbeta PASS\n"
    )


def test_verify_generic_rejects_an_odd_adeg_shift(capsys, corpus_dir, monkeypatch):
    # one more essential codomain circle makes every adeg shift odd; the
    # maps ``_embed`` places are built through the module's ``LinearMap``
    class Shifted(tqft.LinearMap):
        def __init__(self, domain, codomain, entries):
            slots = codomain.slots + (tqft.Slot(True, "V", 1),)
            extra = tqft.StateSpace(codomain.ring, codomain.planar, slots)
            super().__init__(domain, extra, entries)

    monkeypatch.setattr(tqft, "LinearMap", Shifted)
    code, out, err = run(
        capsys, "verify", corpus_dir / "trefoil_right.json", "--ring", "generic"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: saddle map shifts adeg by [")
