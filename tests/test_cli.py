import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogmagog import cli, enumeration
from gogmagog.cli import main
from gogmagog.triangles import format_triangle, triangle_to_json

from conftest import FIXTURES, drawn_gt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_gog_5(capsys):
    code, out, _ = run(capsys, "count", "--kind", "gog", "--n", "5")
    assert code == 0 and out.strip() == "429"


def test_count_asm(capsys):
    code, out, _ = run(capsys, "count", "--kind", "asm", "--n", "4")
    assert code == 0 and out.strip() == "42"


def test_count_of_a_deep_family_recurses_nowhere(capsys):
    # the one GT triangle of size 1100 with entries <= 1
    code, out, err = run(capsys, "count", "--kind", "gt", "--n", "1100", "--bound", "1")
    assert (code, out, err) == (0, "1\n", "")


def test_count_magog_8_counts_without_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "_fill_below", None)
    code, out, _ = run(capsys, "count", "--kind", "magog", "--n", "8")
    assert code == 0 and out == "10850216\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--kind", "gog", "--n", "1100"),
        ("stats", "--n", "1100"),
        ("count", "--kind", "asm", "--n", "40"),
    ],
    ids=["enumerate-gog", "stats", "count-asm"],
)
def test_size_past_the_recursion_limit_is_a_usage_error(capsys, argv):
    # one stderr line, no traceback, nothing on stdout
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"size too large for {argv[0]}: recursion limit reached\n"


def test_validate_gog_ok(capsys):
    code, _, err = run(capsys, "validate", "--kind", "gog", str(FIXTURES / "gog_52.txt"))
    assert code == 0 and err == ""


def test_validate_gt_example_as_gog_fails(capsys, tmp_path):
    f = tmp_path / "gt.txt"
    f.write_text("5\n1 2 2 3 6\n1 2 2 5\n2 2 4\n2 4\n3\n")
    code, _, err = run(capsys, "validate", "--kind", "gog", str(f))
    assert code == 1 and "Gog" in err


def test_validate_asm(capsys):
    code, _, _ = run(capsys, "validate", "--kind", "asm", str(FIXTURES / "asm_5.txt"))
    assert code == 0


def test_convert_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "convert", "--from", "gog", "--to", "gogam", "--trapezoid", "2",
        str(FIXTURES / "gog_52.txt"),
    )
    assert code == 0
    assert out == (FIXTURES / "gogam_52.txt").read_text()


def test_convert_round_trip_is_byte_identical(capsys):
    # `test_convert_worked_example` takes gog_52.txt to gogam_52.txt
    code, back, _ = run(
        capsys,
        "convert", "--from", "gogam", "--to", "gog", "--trapezoid", "2",
        str(FIXTURES / "gogam_52.txt"),
    )
    assert code == 0
    assert back == (FIXTURES / "gog_52.txt").read_text()


@pytest.mark.parametrize(
    "src, dst, message",
    [("gog", "gogam", "not a (n,2) Gog trapezoid"),
     ("gogam", "gog", "not a (n,2) GOGAm trapezoid")],
    ids=["gog-gogam", "gogam-gog"],
)
def test_convert_trapezoid_rejects_size1_other_than_one(capsys, tmp_path, src, dst, message):
    f = tmp_path / "two.txt"
    f.write_text("1\n2\n")
    code, out, err = run(capsys, "convert", "--from", src, "--to", dst, "--trapezoid", "2",
                         str(f))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_convert_gog_asm_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "convert", "--from", "gog", "--to", "asm", str(FIXTURES / "gog_52.txt")
    )
    assert code == 0
    mid = tmp_path / "asm.txt"
    mid.write_text(out)
    code, back, _ = run(capsys, "convert", "--from", "asm", "--to", "gog", str(mid))
    assert code == 0
    assert back == (FIXTURES / "gog_52.txt").read_text()


@pytest.mark.parametrize(
    "src, dst, text",
    [
        ("gog", "asm", "5\n1 2 2 3 6\n1 2 2 5\n2 2 4\n2 4\n3\n"),
        ("magog", "gogam", "5\n1 2 2 3 6\n1 2 2 5\n2 2 4\n2 4\n3\n"),
        ("magog", "gogam", "2\n1 2\n3\n"),
        ("gogam", "magog", "3\n1 1 4\n1 4\n4\n"),
        ("gt", "ssyt", "2\n1 2\n3\n"),
        ("asm", "gog", "2\n1 1\n0 0\n"),
    ],
    ids=["gog-asm", "magog-gogam", "magog-gogam-not-gt", "gogam-magog", "gt-ssyt", "asm-gog"],
)
def test_convert_rejects_source_of_another_kind(capsys, tmp_path, src, dst, text):
    f = tmp_path / "source.txt"
    f.write_text(text)
    code, out, err = run(capsys, "convert", "--from", src, "--to", dst, str(f))
    assert code == 1 and out == "" and err


@pytest.mark.parametrize(
    "kind, text",
    [
        ("gt", '{"n": 2, "rows_top_down": [[1.9, 2.5], [true]]}'),
        ("gog", '{"n": 2}'),
        ("asm", '{"n": 2, "rows": [[0, 1], [1.5, 0]]}'),
        ("asm", '{"n": 2}'),
    ],
    ids=["gt-coerced", "gog-no-rows", "asm-coerced", "asm-no-rows"],
)
def test_malformed_json_is_a_usage_error(capsys, tmp_path, kind, text):
    f = tmp_path / "source.json"
    f.write_text(text)
    code, out, err = run(capsys, "validate", "--kind", kind, str(f))
    assert code == 2 and out == "" and err


def test_convert_needs_trapezoid_flag(capsys):
    code, _, err = run(
        capsys, "convert", "--from", "gog", "--to", "gogam", str(FIXTURES / "gog_52.txt")
    )
    assert code == 2 and "--trapezoid" in err


def test_convert_unsupported_pair(capsys):
    code, _, _ = run(
        capsys, "convert", "--from", "magog", "--to", "asm", str(FIXTURES / "gog_52.txt")
    )
    assert code == 2


def test_schutzenberger_command_is_involutive(capsys, tmp_path):
    code, out, _ = run(capsys, "schutzenberger", str(FIXTURES / "gogam_52.txt"))
    assert code == 0
    mid = tmp_path / "image.txt"
    mid.write_text(out)
    code, back, _ = run(capsys, "schutzenberger", str(mid))
    assert code == 0
    assert back == (FIXTURES / "gogam_52.txt").read_text()


def test_enumerate_streams_blocks(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "gog", "--n", "2")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "magog", "--n", "3", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 7
    assert all(obj["n"] == 3 for obj in lines)


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "involution", "--n", "3", "--threads", "2"),
        ("enumerate", "--kind", "gog", "--n", "2", "--threads", "2"),
    ],
    ids=["verify", "enumerate"],
)
def test_threads_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_verify_rejects_empty_range(capsys):
    code, out, err = run(capsys, "verify", "--suite", "counts", "--n", "0")
    assert code == 2 and out == "" and err


def test_stats_table(capsys):
    code, out, _ = run(capsys, "stats", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rules"]["base"] == 35
    table = data["bottom_entry"]
    assert all(row["count"] == row["preserved"] == row["row_statistic"]
               for row in table.values())


@pytest.mark.parametrize(
    "extra, digest",
    [
        ((), "82ae0f27e8ad0771e5bf2302a3f25980348938c94893bf8093c19c7d2ea47147"),
        (("--json",), "b980ea867c0fdffc757bff615a9b3ff4ca4d188f7865e5c1676e489f6b9f81b3"),
    ],
    ids=["text", "json"],
)
def test_stats_output_is_pinned(capsys, extra, digest):
    # the bytes a per-trapezoid `gog_to_gogam_n2` fold gives; the walk keeps them
    code, out, _ = run(capsys, "stats", "--n", "6", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stats_reads_the_walk_not_the_public_map(capsys, monkeypatch):
    def unreachable(t):
        raise AssertionError("the public map must not run")

    monkeypatch.setattr(cli, "gog_to_gogam_n2", unreachable)
    monkeypatch.setattr(enumeration, "gog_to_gogam_n2", unreachable)
    code, out, _ = run(capsys, "stats", "--n", "5", "--json")
    assert code == 0
    assert sum(json.loads(out)["rules"].values()) == 4 * 219


@pytest.mark.parametrize("n", ["0", "-1"])
def test_stats_rejects_bad_size(capsys, n):
    code, out, err = run(capsys, "stats", "--n", n)
    assert code == 2 and out == ""
    assert err.strip() and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--kind", "gog", "--n", "3", "--bound", "9"),
        ("count", "--kind", "asm", "--n", "3", "--k", "2"),
        ("count", "--kind", "asm", "--n", "3", "--bound", "3"),
        ("enumerate", "--kind", "asm", "--n", "2", "--k", "1"),
        ("enumerate", "--kind", "magog", "--n", "2", "--bound", "2"),
    ],
    ids=["gog-bound", "asm-k", "asm-bound", "enumerate-asm-k", "enumerate-magog-bound"],
)
def test_family_options_that_do_not_apply_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() and len(err.strip().splitlines()) == 1


def test_usage_error_status(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--kind", "nonsense", "--n", "3"])
    assert exc.value.code == 2


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "validate", "--kind", "gog", "/nonexistent/file.txt")
    assert code == 2 and err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--kind", "gog"],
        ["convert", "--from", "gog", "--to", "gogam", "--trapezoid", "2"],
        ["schutzenberger"],
    ],
    ids=["validate", "convert", "schutzenberger"],
)
def test_unreadable_path_is_a_usage_error(capsys, tmp_path, argv):
    # a directory cannot be read as a file: one stderr line, no traceback
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and str(tmp_path) in lines[0]


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_asm_family_rejects_bad_size(capsys, command, n):
    code, out, err = run(capsys, command, "--kind", "asm", "--n", n)
    assert code == 2 and out == ""
    assert err.strip() and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind", ["gt", "asm"])
@pytest.mark.parametrize("size", [0, -1])
def test_size_line_below_one_is_named(capsys, tmp_path, kind, size):
    f = tmp_path / "source.txt"
    f.write_text(f"{size}\n")
    code, out, err = run(capsys, "validate", "--kind", kind, str(f))
    assert code == 2 and out == ""
    assert err == f"size must be at least 1, got {size}\n"


@pytest.mark.parametrize(
    "text",
    ["1\n1000000000000\n", '{"n": 1, "rows_top_down": [[1000000000000]]}'],
    ids=["text", "json"],
)
def test_convert_to_ssyt_refuses_a_huge_tableau(capsys, tmp_path, monkeypatch, text):
    def never_built(t):
        raise AssertionError("the tableau was built")

    monkeypatch.setattr(cli, "triangle_to_tableau", never_built)
    f = tmp_path / "source.txt"
    f.write_text(text)
    code, out, err = run(capsys, "convert", "--from", "gt", "--to", "ssyt", str(f))
    assert code == 2 and out == ""
    assert err == "tableau would hold 1000000000000 letters, over the limit of 100000\n"


def test_convert_to_ssyt_takes_a_tableau_at_the_limit(capsys, tmp_path):
    # the letter count is the top-row sum: 40,000 + 60,000
    f = tmp_path / "source.txt"
    f.write_text("2\n40000 60000\n50000\n")
    code, out, _ = run(capsys, "convert", "--from", "gt", "--to", "ssyt", str(f))
    assert code == 0
    assert sum(len(line.split()) for line in out.splitlines()) == cli.MAX_TABLEAU_LETTERS
    f.write_text("2\n40000 60001\n50000\n")
    code, out, err = run(capsys, "convert", "--from", "gt", "--to", "ssyt", str(f))
    assert code == 2 and out == "" and "100001 letters" in err


@pytest.mark.parametrize("kind", ["gt", "asm"])
@pytest.mark.parametrize(
    "text",
    ["2\n1 2\n1_0\n", "2\n1 2\n\u0663\n", "\u0662\n1 2\n1\n", "2\n1 +2\n1\n"],
    ids=["underscore", "arabic-indic-entry", "arabic-indic-size", "plus-sign"],
)
def test_text_entries_must_be_ascii_decimal(capsys, tmp_path, kind, text):
    f = tmp_path / "source.txt"
    f.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--kind", kind, str(f))
    assert code == 2 and out == "" and err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--kind", "gt", "--trapezoid", "2", str(FIXTURES / "gog_52.txt")),
        ("validate", "--kind", "asm", "--trapezoid", "2", str(FIXTURES / "asm_5.txt")),
        ("convert", "--from", "gog", "--to", "asm", "--trapezoid", "7",
         str(FIXTURES / "gog_52.txt")),
        ("convert", "--from", "gt", "--to", "ssyt", "--json", str(FIXTURES / "gog_52.txt")),
    ],
    ids=["validate-gt-trapezoid", "validate-asm-trapezoid", "convert-asm-trapezoid",
         "convert-ssyt-json"],
)
def test_options_that_do_not_apply_are_rejected(capsys, argv):
    # each file is valid: the option must not be dropped silently
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1


def _nested(key, depth):
    return '{"n": 2, "%s": %s1%s}' % (key, "[" * depth, "]" * depth)


@pytest.mark.parametrize(
    "argv, key",
    [
        (("validate", "--kind", "gog"), "rows_top_down"),
        (("convert", "--from", "gog", "--to", "asm"), "rows_top_down"),
        (("schutzenberger",), "rows_top_down"),
        (("validate", "--kind", "asm"), "rows"),
        (("convert", "--from", "asm", "--to", "gog"), "rows"),
    ],
    ids=["validate-triangle", "convert-triangle", "schutzenberger", "validate-asm",
         "convert-asm"],
)
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, argv, key):
    f = tmp_path / "deep.json"
    f.write_text(_nested(key, 1000))
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2 and out == ""
    assert err.splitlines() == ["JSON input is nested too deeply"]


_FUZZ_COMMANDS = (
    [["validate", "--kind", kind] for kind in cli.KINDS]
    + [["validate", "--kind", kind, "--trapezoid", "2"] for kind in ("gog", "magog", "gogam")]
    + [
        ["convert", "--from", src, "--to", dst]
        + (["--trapezoid", "2"] if (src, dst) in cli._TRAPEZOID_CONVERSIONS else [])
        + (["--json"] if dst != "ssyt" else [])
        for src, dst in [
            ("gog", "gogam"), ("gogam", "gog"), ("gog", "asm"), ("asm", "gog"),
            ("magog", "gogam"), ("gogam", "magog"), ("gt", "ssyt"),
        ]
    ]
    + [["schutzenberger"], ["schutzenberger", "--json"]]
)
_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "-1", "1000000000000", "1_0", "+2", "1.5", "x", "\u0663"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "rows", "rows_top_down"]), inner, max_size=3),
    max_leaves=20,
)
_INPUTS = st.one_of(
    drawn_gt(n_max=5).map(format_triangle),
    drawn_gt(n_max=5).map(triangle_to_json),
    st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=7).map("\n".join),
    st.dictionaries(st.sampled_from(["n", "rows", "rows_top_down"]), _JSON_VALUES,
                    max_size=3).map(json.dumps),
    st.builds(_nested, st.sampled_from(["rows", "rows_top_down"]), st.integers(500, 5000)),
)


@settings(max_examples=200)
@given(st.sampled_from(_FUZZ_COMMANDS), _INPUTS)
def test_cli_fuzz_exits_with_a_documented_status(command, text):
    # read from stdin ("-"): function-scoped fixtures do not mix with @given
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([*command, "-"])
    assert code in (0, 1, 2)
