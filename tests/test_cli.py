import json

import pytest

from ramseykit.cli import main
from ramseykit.coloring import EdgeColoring, read_coloring_file, write_coloring_file


def test_formula_command(capsys):
    assert main(["formula", "--id", "bk-path", "--k", "3", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "exact 8"

    assert main(["formula", "--id", "gr3-k13-kipas", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "interval 14 15"

    assert main(["formula", "--id", "path-star", "--m", "4", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "interval 5 6" in out and "caveat:" in out

    assert main(["formula", "--id", "nope", "--n", "3"]) == 2
    assert main(["formula", "--id", "bk-path", "--n", "6"]) == 2  # missing --k


def test_formula_json(capsys):
    assert main(["formula", "--id", "t-path", "--n", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"id": "t-path", "lo": 7, "hi": 7, "exact": True}


def test_generate_then_detect_pipeline(tmp_path, capsys):
    out = tmp_path / "w.ecg"
    assert main(["generate", "--family", "t-path-witness", "--n", "5", "-o", str(out)]) == 0
    capsys.readouterr()
    code = main(["detect", "--input", str(out), "--pattern", "mono:path:5", "--any-color"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "absent"
    code = main(["detect", "--input", str(out), "--pattern", "mono:path:4", "--any-color"])
    assert code == 0
    assert capsys.readouterr().out.startswith("present color=")


def test_detect_forest_and_rainbow(tmp_path, capsys):
    out = tmp_path / "g3.ecg"
    main(["generate", "--family", "g3", "--n", "6", "-o", str(out)])
    capsys.readouterr()
    assert main(["detect", "--input", str(out), "--pattern", "rainbow:k:3"]) == 0
    # g3 is one of the structures without a rainbow p4plus
    assert main(["detect", "--input", str(out), "--pattern", "rainbow:p4plus"]) == 1
    assert (
        main(["detect", "--input", str(out), "--pattern", "mono:lf:minedges=3,minorder=2", "--color", "1"])
        == 0
    )
    assert (
        main(["detect", "--input", str(out), "--pattern", "mono:path:3", "--color", "2"])
        == 1
    )
    assert main(["detect", "--input", str(out), "--pattern", "mono:path:3"]) == 2


def test_generate_parts_families(tmp_path, capsys):
    out = tmp_path / "bk.ecg"
    assert main(["generate", "--family", "bk", "--parts", "2,3", "-o", str(out)]) == 0
    coloring = read_coloring_file(out)
    assert coloring.n_vertices == 5 and coloring.n_colors == 3
    assert main(["generate", "--family", "t", "--parts", "2,2,2", "-o", str(out)]) == 0
    coloring = read_coloring_file(out)
    assert coloring.n_vertices == 6
    assert main(["generate", "--family", "bk"]) == 2  # missing --parts


def test_compute_command(tmp_path, capsys):
    witness = tmp_path / "ext.ecg"
    code = main(
        [
            "compute", "--quantity", "ramsey", "--red", "path:3", "--blue", "path:3",
            "--max-n", "6", "--witness-out", str(witness),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "exact 3"
    assert read_coloring_file(witness).n_vertices == 2

    code = main(["compute", "--quantity", "t", "--target", "path:4", "--max-n", "9", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lo"] == payload["hi"] == 5

    # not reached within max_n: interval result, exit 2
    code = main(["compute", "--quantity", "ramsey", "--red", "path:6", "--blue", "path:6", "--max-n", "6"])
    assert code == 2


def test_check_command(tmp_path, capsys):
    assert main(["check", "--lemma", "3.1i", "--n", "5"]) == 0
    assert main(["check", "--lemma", "3.1ii", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "holds" in out
    assert (
        main(["check", "--lemma", "3.2", "--n", "12", "--a", "3", "--samples", "500"]) == 0
    )
    out = capsys.readouterr().out
    assert "not a proof" in out
    assert main(["check", "--lemma", "3.2", "--n", "12", "--a", "2", "--samples", "10"]) == 2
    assert main(["check", "--lemma", "9.9", "--n", "5"]) == 2


def test_grverify_command(tmp_path, capsys):
    assert main(["grverify", "--k", "4", "--rainbow", "p5", "--target", "path:6", "--N", "7"]) == 0
    witness = tmp_path / "cex.ecg"
    code = main(
        [
            "grverify", "--k", "4", "--rainbow", "p5", "--target", "path:6",
            "--N", "6", "--witness-out", str(witness),
        ]
    )
    assert code == 1
    assert read_coloring_file(witness).n_vertices == 6
    assert main(["grverify", "--k", "3", "--rainbow", "k13", "--target", "path:4", "--N", "5", "--mode", "full"]) == 0


def test_budget_aborts_emit_json(capsys):
    code = main(
        [
            "grverify", "--k", "3", "--rainbow", "k13", "--target", "path:4", "--N", "5",
            "--mode", "full", "--budget", "10", "--json",
        ]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 11 and "10 nodes" in payload["error"]
    assert "aborted on budget; no conclusion" in payload["notes"]

    code = main(
        [
            "compute", "--quantity", "ramsey", "--red", "path:5", "--blue", "path:4",
            "--max-n", "6", "--budget", "50", "--json",
        ]
    )
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == 51 and payload["exact"] is False and payload["lo"] >= 1


def test_check_abort_emits_json(monkeypatch, capsys):
    from ramseykit import search
    from ramseykit.errors import BudgetExceeded

    def aborts(n, forbidden, required, node_budget=search.DEFAULT_NODE_BUDGET):
        partial = search.CheckReport("universal", False, None, 7, 0.0, notes=("aborted on budget; no conclusion",))
        raise BudgetExceeded("search exceeded 6 nodes", partial=partial)

    monkeypatch.setattr(search, "universal_check", aborts)
    assert main(["check", "--lemma", "3.1ii", "--n", "5", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "error": "search exceeded 6 nodes",
        "quantity": "universal",
        "nodes": 7,
        "notes": ["aborted on budget; no conclusion"],
    }
    assert main(["check", "--lemma", "3.1i", "--n", "5"]) == 2
    assert capsys.readouterr().out.startswith("budget exceeded: search exceeded 6 nodes")


def test_capability_abort_is_not_a_budget_abort(capsys):
    # no case list exists for a rainbow K_{1,4}: a capability limit, not a budget
    argv = ["grverify", "--k", "4", "--rainbow", "star:4", "--target", "path:5", "--N", "6"]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("capability limit: no structure case list for rainbow star:4")
    assert "budget" not in out
    assert main(argv + ["--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"error": "no structure case list for rainbow star:4; use full enumeration"}


def test_detect_capability_limit_emits_json(tmp_path, capsys):
    big = tmp_path / "k21.ecg"
    write_coloring_file(EdgeColoring.constant(21, 1), big)
    small = tmp_path / "k7.ecg"
    write_coloring_file(EdgeColoring.constant(7, 1, n_colors=3), small)
    cases = [
        (big, "mono:lf:minedges=5,minorder=3", "linear forest search supports at most 20 vertices"),
        (small, "rainbow:path:6", "rainbow detection supports patterns on at most 5 vertices"),
    ]
    for path, pattern, error in cases:
        argv = ["detect", "--input", str(path), "--pattern", pattern, "--any-color"]
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": error}
        assert captured.err == ""
        assert main(argv) == 2
        assert capsys.readouterr().out == f"capability limit: {error}\n"


def test_classify_command(tmp_path, capsys):
    ecg = tmp_path / "w.ecg"
    main(["generate", "--family", "gamma1", "-o", str(ecg)])
    capsys.readouterr()
    assert main(["classify", "--input", str(ecg), "--context", "k13"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("case dominant")

    main(["generate", "--family", "g2", "--n", "6", "-o", str(ecg)])
    capsys.readouterr()
    assert main(["classify", "--input", str(ecg), "--context", "p4plus", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "g2" and payload["special"] == [0, 1]


def test_classify_unclassified_exit(tmp_path, capsys):
    ecg = tmp_path / "proper.ecg"
    lines = ["ecg 1", "4 3 1", "0 1 1", "0 2 2", "0 3 3", "1 2 3", "1 3 2", "2 3 1"]
    ecg.write_text("\n".join(lines) + "\n")
    assert main(["classify", "--input", str(ecg), "--context", "k13"]) == 1
    assert capsys.readouterr().out.strip() == "case unclassified"


def test_selftest_filter(capsys):
    assert main(["selftest", "--only", "formula-reductions"]) == 0
    out = capsys.readouterr().out
    assert "PASS formula-reductions" in out
    assert main(["selftest", "--only", "zzz"]) == 2


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert main(["compute", "--quantity", "ramsey", "--max-n", "6"]) == 2


def test_unreadable_input_exits_two(tmp_path, capsys):
    # exit 1 means "absent" or "unclassified", so a missing file must not end there
    missing = str(tmp_path / "missing.ecg")
    for argv in (
        ["detect", "--input", missing, "--pattern", "mono:path:3", "--any-color"],
        ["classify", "--input", missing, "--context", "k13"],
        ["classify", "--input", str(tmp_path), "--context", "k13"],  # a directory
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and argv[2] in captured.err


def test_errors_emit_json(tmp_path, capsys):
    bad = tmp_path / "bad.ecg"
    bad.write_text("ecg 2\n")
    cases = [
        (["detect", "--input", str(bad), "--pattern", "mono:path:3", "--any-color"],
         "line 1: expected 'ecg 1' header, got 'ecg 2'"),
        (["compute", "--quantity", "ramsey", "--max-n", "6"],
         "ramsey needs --red and --blue patterns"),
        (["classify", "--input", str(tmp_path / "missing.ecg"), "--context", "k13"], None),
    ]
    for argv, error in cases:
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert list(payload) == ["error"] and captured.err == ""
        if error is not None:
            assert payload["error"] == error
        else:
            assert "missing.ecg" in payload["error"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_selftest_catches_a_broken_path_search(monkeypatch, capsys):
    import ramseykit.patterns as patterns
    from ramseykit.acceptance import run_criterion

    real = patterns.longest_path_order

    def broken(n, adj):
        value = real(n, adj)
        return value - 1 if value > 1 else value

    monkeypatch.setattr(patterns, "longest_path_order", broken)
    result = run_criterion("oracle-equivalence", seed=0)
    assert not result.passed
    assert "longest path disagrees" in result.detail
