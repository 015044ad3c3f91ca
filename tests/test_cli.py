import json

import pytest

from gogmagog.cli import main

from conftest import FIXTURES


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


def test_convert_round_trip_is_byte_identical(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "convert", "--from", "gog", "--to", "gogam", "--trapezoid", "2",
        str(FIXTURES / "gog_52.txt"),
    )
    assert code == 0
    middle = tmp_path / "middle.txt"
    middle.write_text(out)
    code, back, _ = run(
        capsys,
        "convert", "--from", "gogam", "--to", "gog", "--trapezoid", "2", str(middle)
    )
    assert code == 0
    assert back == (FIXTURES / "gog_52.txt").read_text()


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


def test_usage_error_status(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--kind", "nonsense", "--n", "3"])
    assert exc.value.code == 2


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "validate", "--kind", "gog", "/nonexistent/file.txt")
    assert code == 2 and err


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_asm_family_rejects_bad_size(capsys, command, n):
    code, out, err = run(capsys, command, "--kind", "asm", "--n", n)
    assert code == 2 and out == ""
    assert err.strip() and len(err.strip().splitlines()) == 1


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
