import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import wproj.cli
from wproj import vojtalab
from wproj.cli import _jobs, main
from wproj.exactnum import DomainError
from wproj.wpoly import SubschemeSpec, parse_wpoly_file
from wproj.wspace import classify

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "wgcd", "--weights", "2,4", "--tuple", "8:16")
        assert code == 0
        assert out.strip() == "2"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "normalize", "--weights", "2,4", "--tuple", "0:0")
        assert code == 1
        assert "all-zero" in err

    def test_usage_error_malformed_tuple(self, capsys):
        code, _, err = run(capsys, "wgcd", "--weights", "2,4", "--tuple", "a:b")
        assert code == 2
        assert "usage error" in err

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "wgcd", "--weights", "2,4", "--nope", "1")
        assert code == 2

    def test_usage_error_length_mismatch(self, capsys):
        code, _, _ = run(capsys, "wgcd", "--weights", "2,4", "--tuple", "1:2:3")
        assert code == 2

    def test_one_wording_for_a_coordinate_count_mismatch(self, capsys):
        errors = set()
        for argv in (
            ["wgcd", "--weights", "2,4", "--tuple", "1:2:3"],
            ["hwgcd", "--weights", "2,4", "--tuple", "1:2:3"],
            ["height", "--weights", "2,4", "--point", "1:2:3"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            errors.add(err.splitlines()[-1])
        assert errors == {"usage error: '1:2:3' has 3 coordinates but the weights have 2"}

    def test_parser_errors_are_usage_errors(self, capsys):
        for argv in (
            ["height", "--weights", "1,2,x", "--point", "1:2:3"],
            ["height", "--weights", "1,2,3", "--point", "1/0:1:1"],
            ["height", "--weights", "1,2,3", "--point", "1:2"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "usage error" in err

    def test_parsed_domain_failures_are_domain_errors(self, capsys):
        for argv in (
            ["height", "--weights", "1,0,3", "--point", "1:2:3"],
            ["height", "--weights", "1,2,3", "--point", "0:0:0"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.splitlines()[-1].startswith("error:")

    @pytest.mark.parametrize("existing", [False, True])
    def test_out_of_memory_is_an_error_not_a_traceback(
        self, capsys, monkeypatch, tmp_path, existing
    ):
        # search --weights 2,3 --bound 1e3 asks _phase1_ranges for a list of
        # 2*10^9 ints; the patched ranges raise without allocating
        def too_large(w, B):
            raise MemoryError

        monkeypatch.setattr(sys.modules["wproj.search"], "_phase1_ranges", too_large)
        argv = ["search", "--weights", "2,3", "--bound", "1e3", "--format", "plain"]
        report = tmp_path / "old.txt"
        if existing:
            report.write_bytes(b"an earlier report\n")
            argv += ["--out", str(report)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: out of memory"
        assert "Traceback" not in err
        if existing:
            assert report.read_bytes() == b"an earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["old.txt"] if existing else [])


class TestJobs:
    SEARCH = ["search", "--weights", "2,3", "--bound", "1"]

    def test_env_value_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("WPROJ_JOBS", "abc")
        code, out, err = run(capsys, *self.SEARCH)
        assert code == 2
        assert "WPROJ_JOBS" in err and "'abc'" in err
        assert "Traceback" not in err and out == ""

    def test_values_not_positive_integers(self, capsys, monkeypatch):
        for value in ("0", "-3", "x"):
            code, out, err = run(capsys, *self.SEARCH, "--jobs", value)
            assert code == 2, value
            assert "positive integer" in err and "Traceback" not in err
        monkeypatch.setenv("WPROJ_JOBS", "0")
        code, _, err = run(capsys, *self.SEARCH)
        assert code == 2 and "positive integer" in err

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [_jobs(v) for v in ("1", "3", "4", "1000")] == [1, 3, 3, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _jobs("8") == 1

    def test_pool_size_is_chunk_count(self, capsys, monkeypatch, tmp_path):
        sizes = []

        class RecordingPool:
            """Runs the work in this process, recording the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        # with no hypersurface the search runs in process
        code, _, _ = run(capsys, "search", "--weights", "1,1", "--bound", "1", "--jobs", "8")
        assert (code, sizes) == (0, [])
        # the work unit is a run of the first axis of a support's half box:
        # the root half box of P(1,1) at B = 1 has x0 in {-1, 1} and x1 = 1
        line = tmp_path / "line.wpoly"
        line.write_text("weights: x0=1 x1=1\n\nx0 - x1\n")
        code, _, _ = run(
            capsys, "search", "--weights", "1,1", "--bound", "1", "--poly", str(line),
            "--jobs", "8",
        )
        assert (code, sizes) == (0, [2])
        sizes.clear()
        poly = tmp_path / "z.wpoly"
        poly.write_text("weights: x0=1 x1=2 x2=3\n\nx1\n\nx2\n")
        code, _, _ = run(
            capsys, "vojta-scan", "--weights", "1,2,3", "--poly", str(poly),
            "--codim", "2", "--eps", "1/2", "--delta", "1/2", "--samples", "3",
            "--box", "5,5,5", "--seed", "1", "--jobs", "8",
        )
        assert (code, sizes) == (0, [3])


class TestReadme:
    def test_wpoly_example_passes_poly_check(self, capsys, tmp_path):
        blocks = re.findall(r"```\n(weights:.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.wpoly"
        path.write_text(blocks[0])
        code, out, _ = run(capsys, "poly-check", "--poly", str(path))
        assert code == 0
        assert out.splitlines()[1].startswith("degree 6: ")


class TestOutputExamples:
    def test_height_exact_then_decimal(self, capsys):
        code, out, _ = run(capsys, "height", "--weights", "2,4", "--point", "4:8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(1/4)*log(2)"
        assert lines[1].startswith("0.173286795139986")

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "-60")
        assert code == 0
        assert out.strip() == "-2^2 * 3 * 5"

    def test_canonical_and_equals(self, capsys):
        code, out, _ = run(
            capsys, "canonical", "--weights", "2,4,6,10", "--tuple", "3:9:27:243"
        )
        assert (code, out.strip()) == (0, "1:1:1:1")
        code, out, _ = run(
            capsys,
            "equals",
            "--weights",
            "2,4,6,10",
            "--left",
            "3:9:27:243",
            "--right",
            "1:1:1:1",
        )
        assert (code, out.strip()) == (0, "true")

    def test_hgcd(self, capsys):
        code, out, _ = run(capsys, "hgcd", "--a", "12", "--b", "18")
        assert code == 0
        assert out.splitlines()[0] == "log(2) + log(3)"

    def test_singular(self, capsys):
        code, out, _ = run(
            capsys, "singular", "--weights", "1,2,3", "--tuple", "0:1:0"
        )
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(
            capsys, "singular", "--weights", "1,2,3", "--tuple", "1:1:1"
        )
        assert (code, out.strip()) == (0, "false")

    def test_reduce_weights(self, capsys):
        code, out, _ = run(capsys, "reduce-weights", "--weights", "2,4,6")
        assert code == 0
        assert "1" in out and "d: 2" in out

    def test_version_echo_on_stderr(self, capsys):
        code, out, err = run(capsys, "wgcd", "--weights", "2,4", "--tuple", "8:16")
        assert err.startswith("# wproj ")
        assert "wgcd" in err


class TestFormats:
    def test_json_same_information(self, capsys):
        code, out, _ = run(
            capsys,
            "height",
            "--weights",
            "2,4",
            "--point",
            "4:8",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["lwh"]["exact"] == "(1/4)*log(2)"
        assert doc["lwh"]["decimal"].startswith("0.173286795139986")
        assert doc["wh_m_power"] == 2
        assert doc["m"] == 4

    def test_csv_same_information(self, capsys):
        code, out, _ = run(
            capsys, "wgcd", "--weights", "2,4", "--tuple", "8:16", "--format", "csv"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"key": "wgcd", "value": "2"} in rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["height", "--weights", "2,3", "--point", "4:8"],
            ["wgcd", "--weights", "2,4", "--tuple", "8:16"],
            ["search", "--weights", "2,3", "--bound", "1"],
        ],
    )
    def test_csv_rows_have_two_fields(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        if argv[0] == "search":
            _, doc, _ = run(capsys, *argv, "--format", "json")
            assert json.loads(dict(rows)["points"]) == json.loads(doc)["points"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "wgcd",
            "--weights",
            "2,4",
            "--tuple",
            "8:16",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["wgcd"] == 2


class TestRoundTrip:
    def test_normalize_output_reparses(self, capsys):
        _, out, _ = run(capsys, "normalize", "--weights", "2,4", "--tuple", "8:16")
        again_code, again, _ = run(
            capsys, "normalize", "--weights", "2,4", "--tuple", out.strip()
        )
        assert again_code == 0 and again == out

    def test_rational_point_integralized(self, capsys):
        _, out, _ = run(capsys, "height", "--weights", "2,4", "--point", "1/2:1/4")
        _, out2, _ = run(capsys, "height", "--weights", "2,4", "--point", "2:4")
        assert out == out2


class TestPolyCommands:
    @pytest.fixture()
    def poly_file(self, tmp_path):
        path = tmp_path / "f.wpoly"
        path.write_text("weights: x0=1 x1=2\n\nx0^2 - x1\n")
        return str(path)

    def test_poly_check(self, capsys, poly_file):
        code, out, _ = run(capsys, "poly-check", "--poly", poly_file)
        assert code == 0
        assert "degree 2" in out

    def test_poly_check_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.wpoly"
        path.write_text("weights: x0=1\n\nx0 + %\n")
        code, _, err = run(capsys, "poly-check", "--poly", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["poly-check", "poly-eval", "subscheme-height"])
    def test_header_with_one_variable(self, capsys, tmp_path, command):
        path = tmp_path / "one.wpoly"
        path.write_text("weights: x=1\n\nx\n")
        extra = {
            "poly-eval": ["--point", "1"],
            "subscheme-height": ["--point", "1", "--codim", "1"],
        }
        code, out, err = run(capsys, command, "--poly", str(path), *extra.get(command, []))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: need at least two weights"

    def test_poly_check_bad_weights_header(self, capsys, tmp_path):
        path = tmp_path / "bad.wpoly"
        for header, expected in (("x=1 x=2", 2), ("x=0 y=0", 1), ("x=1 y=-2", 1)):
            path.write_text(f"weights: {header}\n\nx\n")
            code, out, err = run(capsys, "poly-check", "--poly", str(path))
            assert (code, out) == (expected, ""), header
            assert "Traceback" not in err

    def test_poly_check_header_name_not_an_identifier(self, capsys, tmp_path):
        path = tmp_path / "bad.wpoly"
        for header in ("=1 y=1", "1x=1 y=1", "x-y=1 y=1"):
            path.write_text(f"weights: {header}\n\ny\n")
            code, out, err = run(capsys, "poly-check", "--poly", str(path))
            assert (code, out) == (2, ""), header
            assert "not an identifier" in err and "Traceback" not in err

    def test_poly_eval(self, capsys, poly_file):
        code, out, _ = run(capsys, "poly-eval", "--poly", poly_file, "--point", "3:4")
        assert (code, out.strip()) == (0, "5")

    def test_subscheme_height(self, capsys, tmp_path):
        path = tmp_path / "z.wpoly"
        path.write_text("weights: x0=1 x1=2 x2=3\n\nx1\n\nx2\n")
        code, out, _ = run(
            capsys,
            "subscheme-height",
            "--poly",
            str(path),
            "--point",
            "1:4:8",
            "--codim",
            "2",
        )
        assert code == 0
        assert out.splitlines()[0] == "(2)*log(2)"


class TestSearchCommand:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "search", "--weights", "1,1", "--bound", "2")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(body) == 8
        assert any(ln.startswith("0:1") for ln in body)

    def test_json_report(self, capsys, tmp_path):
        poly = tmp_path / "f.wpoly"
        poly.write_text("weights: x0=1 x1=1\n\nx0 x1\n")
        target = tmp_path / "points.json"
        code, _, _ = run(
            capsys,
            "search",
            "--weights",
            "1,1",
            "--bound",
            "2",
            "--poly",
            str(poly),
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert {tuple(p["coords"]) for p in doc["points"]} == {(0, 1), (1, 0)}
        assert doc["phase1_candidates"] == 25

    def test_json_report_independent_of_jobs(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        docs = []
        for jobs in ("1", "2"):
            code, out, _ = run(
                capsys, "search", "--weights", "2,3", "--bound", "1",
                "--format", "json", "--jobs", jobs,
            )
            assert code == 0
            doc = json.loads(out)
            assert "jobs" not in doc
            del doc["wall_time_seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_require_nonzero_by_name(self, capsys, tmp_path):
        poly = tmp_path / "f.wpoly"
        poly.write_text("weights: a=1 b=1\n\na b\n")
        code, out, _ = run(
            capsys,
            "search",
            "--weights",
            "1,1",
            "--bound",
            "2",
            "--poly",
            str(poly),
            "--require-nonzero",
            "a",
        )
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body == ["1:0  wh^1=1"]

    @pytest.mark.parametrize(
        "args",
        [
            ("--require-nonzero=5",),
            ("--require-nonzero=-1",),
            ("--require-nonzero=0,2",),
            ("--bound", "-1"),
            ("--bound=-1/2",),
        ],
    )
    def test_out_of_range_input_exits_1(self, capsys, args):
        # an index outside 0..n-1 raised IndexError (5) or silently dropped
        # phase 2 (-1); a negative bound printed the header "wh^6 <= 1"
        argv = ["search", "--weights", "2,3", "--bound", "2", *args]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_require_nonzero_index_with_poly(self, capsys, tmp_path):
        poly = tmp_path / "f.wpoly"
        poly.write_text("weights: a=1 b=1\n\na b\n")
        code, out, _ = run(
            capsys, "search", "--weights", "1,1", "--bound", "2",
            "--poly", str(poly), "--require-nonzero", "2",
        )
        assert code == 1
        assert out == ""

    def test_require_nonzero_unknown_name(self, capsys, tmp_path):
        # with --poly a token is a header name or an index; without it, an index
        poly = tmp_path / "f.wpoly"
        poly.write_text("weights: a=1 b=1\n\na b\n")
        for extra in (("--poly", str(poly)), ()):
            code, out, err = run(
                capsys, "search", "--weights", "1,1", "--bound", "2",
                *extra, "--require-nonzero", "0,z",
            )
            assert (code, out) == (2, ""), extra
            assert "unknown coordinate 'z'" in err

    def test_poly_weight_mismatch(self, capsys, tmp_path):
        poly = tmp_path / "f.wpoly"
        poly.write_text("weights: a=2 b=3\n\na^3\n")
        code, _, _ = run(
            capsys,
            "search",
            "--weights",
            "1,1",
            "--bound",
            "2",
            "--poly",
            str(poly),
        )
        assert code == 2


class TestVojtaScanCommand:
    @pytest.fixture()
    def z_file(self, tmp_path):
        path = tmp_path / "z.wpoly"
        path.write_text("weights: x0=1 x1=2 x2=3\n\nx1\n\nx2\n")
        return str(path)

    def _argv(self, z_file, **over):
        base = {
            "--weights": "1,2,3",
            "--poly": z_file,
            "--codim": "2",
            "--eps": "1/2",
            "--delta": "1/2",
            "--samples": "25",
            "--box": "20,20,20",
            "--seed": "42",
        }
        base.update(over)
        argv = ["vojta-scan"]
        for k, v in base.items():
            if v is not None:
                argv += [k, v]
        return argv

    def test_end_to_end(self, capsys, z_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, *self._argv(z_file, **{"--out": str(target)}))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == 1
        assert doc["config"]["seed"] == 42
        assert len(doc["records"]) == 25

    def test_deterministic_across_jobs(self, capsys, z_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *self._argv(z_file, **{"--out": str(a), "--jobs": "1"}))
        run(capsys, *self._argv(z_file, **{"--out": str(b), "--jobs": "2"}))
        assert a.read_text() == b.read_text()

    def test_seed_autogenerated_and_printed(self, capsys, z_file):
        argv = [x for x in self._argv(z_file) if x != "--seed" and x != "42"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "# generated seed:" in err
        seed = int(err.split("# generated seed:")[1].splitlines()[0])
        assert json.loads(out)["config"]["seed"] == seed

    def test_codim_one_rejected(self, capsys, z_file):
        code, _, err = run(capsys, *self._argv(z_file, **{"--codim": "1"}))
        assert code == 1

    def test_no_format_option(self, capsys, z_file):
        code, out, err = run(capsys, *self._argv(z_file, **{"--format": "json"}))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format json" in err

    def test_jobs_from_env_checked(self, capsys, monkeypatch, z_file):
        monkeypatch.setenv("WPROJ_JOBS", "0")
        code, out, err = run(capsys, *self._argv(z_file))
        assert (code, out) == (2, "")
        assert "positive integer" in err and "Traceback" not in err

    def test_header_weights_must_match(self, capsys, z_file, tmp_path):
        line = tmp_path / "line.wpoly"
        line.write_text("weights: x0=1 x1=2 x2=3\n\nx1\n")
        for argv in (
            self._argv(z_file, **{"--weights": "1,2,4"}),
            ["search", "--weights", "1,2,4", "--bound", "1", "--poly", str(line)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                "usage error: polynomial weights do not match --weights"
            )


class TestPrimesMustBePrimes:
    def test_split_height(self, capsys):
        for value in ("1", "0", "-1", "4"):
            code, out, err = run(
                capsys, "split-height", "--weights", "1,1", "--point", "2:3",
                "--primes", value,
            )
            assert (code, out) == (1, ""), value
            assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err

    def test_vojta_scan(self, capsys, tmp_path):
        poly = tmp_path / "z.wpoly"
        poly.write_text("weights: x0=1 x1=2 x2=3\n\nx1\n\nx2\n")
        for value in ("1", "0", "-1", "4"):
            code, out, err = run(
                capsys, "vojta-scan", "--weights", "1,2,3", "--poly", str(poly),
                "--codim", "2", "--primes", value, "--eps", "1/2", "--delta", "1/2",
                "--samples", "5", "--box", "5,5,5", "--seed", "1",
            )
            assert (code, out) == (1, ""), value
            assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err


class TestSplitHeightDivisor:
    @pytest.mark.parametrize("value", ["7", "-1", "0,2"])
    def test_index_out_of_range(self, capsys, value):
        code, out, err = run(
            capsys, "split-height", "--weights", "1,2", "--point", "3:5", "--divisor", value,
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
        assert "0..1" in err

    def test_point_is_normalized(self, capsys):
        _, reduced, _ = run(capsys, "split-height", "--weights", "1,1", "--point", "2:1")
        code, out, _ = run(capsys, "split-height", "--weights", "1,1", "--point", "4:2")
        assert (code, out) == (0, reduced)
        code, out, _ = run(
            capsys, "split-height", "--weights", "1,1", "--point", "4:2", "--format", "json"
        )
        assert code == 0 and json.loads(out)["point"] == "[2:1]"

    def test_repeated_index(self, capsys):
        code, out, _ = run(
            capsys, "split-height", "--weights", "1,2", "--point", "3:5", "--divisor", "1,1",
        )
        assert code == 0
        assert out.splitlines()[1] == "out_S: log(5) = 1.60943791243410"


class TestNegativeLeadingCoordinate:
    """A value such as -12:360:7000:99 is not a plain negative number, so
    argparse would read it as an option; it must reach the command as a
    value, the same as in the --point=-12:... form."""

    CASES = [
        ["split-height", "--weights", "2,4,6,10", "--point", "-12:360:7000:99"],
        ["height", "--weights", "2,3", "--point", "-8:-27"],
        ["wgcd", "--weights", "2,4", "--tuple", "-8:16"],
        ["equals", "--weights", "2,3", "--left", "-1:1", "--right", "-4:8"],
        ["hgcd", "--a", "-3/4", "--b", "6"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_same_as_attached_form(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        attached = argv[:1] + [
            f"{opt}={val}" for opt, val in zip(argv[1::2], argv[2::2])
        ]
        assert run(capsys, *attached)[:2] == (0, out)

    def test_values(self, capsys):
        code, out, _ = run(capsys, *self.CASES[0])
        assert out.splitlines()[0] == "in_S: 0 = 0.0"
        assert run(capsys, *self.CASES[2])[1].strip() == "2"
        assert run(capsys, *self.CASES[3])[1].strip() == "true"

    @pytest.mark.parametrize(
        "option,value",
        [("--bound", "-1/2"), ("--eps", "-1/4"), ("--delta", "-1/4"), ("--box", "-5,5,5")],
    )
    def test_negative_option_value_is_a_domain_error(self, capsys, tmp_path, option, value):
        # argparse stopped these with "expected one argument" (exit 2)
        if option == "--bound":
            argv = ["search", "--weights", "2,3", "--bound", "2"]
        else:
            poly = tmp_path / "Y.wpoly"
            poly.write_text(Y_111)
            argv = [
                "vojta-scan", "--weights", "1,2,3", "--poly", str(poly), "--codim", "2",
                "--eps", "1/4", "--delta", "1/4", "--samples", "5", "--box", "5,5,5",
            ]
        code, out, err = run(capsys, *argv, option, value)
        assert (code, out) == (1, ""), err
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err


# vojta-scan with the benchmark's scan-111 arguments at 200 samples:
# Y = [1:1:1] in P(1,2,3), S = {2}, a 2 x 2 grid, box 1000^3.  The
# SHA-256 of each report was recorded before comparisons gained their float
# rung; a change in any digit or any decided comparison changes it.
Y_111 = "weights: x0=1 x1=2 x2=3\n\nx0^2 - x1\n\nx0^3 - x2\n"
GOLDEN_SCAN_DIGESTS = {
    1: "33606fd7712e6a1e5de62af3a2fcae81a74ff7a2e42022d80f67d99d0d3514fe",
    2: "3fe95431a59a956c57b70bdf48b04c954af302c046397540965e98c9a2302f2a",
    3: "07529828f0be3c9e9734b819af3d91e91f81e88fb6e6731f6e767b6957111920",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SCAN_DIGESTS))
def test_vojta_scan_report_digest(capsys, tmp_path, seed):
    poly = tmp_path / "Y.wpoly"
    poly.write_text(Y_111)
    target = tmp_path / "report.json"
    code, _, err = run(
        capsys, "vojta-scan", "--weights", "1,2,3", "--poly", str(poly),
        "--codim", "2", "--primes", "2", "--eps", "1/4,1/2", "--delta", "1/4,1/2",
        "--samples", "200", "--box", "1000,1000,1000", "--seed", str(seed),
        "--jobs", "1", "--out", str(target),
    )
    assert code == 0, err
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == GOLDEN_SCAN_DIGESTS[seed]


# search --format json, recorded before the search built canonical points
# directly (it canonicalized and deduplicated every candidate).  The
# wall_time_seconds line, the one field that varies between runs, is cut.
GOLDEN_SEARCH_DIGESTS = {
    ("2,3", "2"): "6ce0357a9316c89506254eaa199ddd683943b19555000a6c5a3f056289c7cbd1",
    ("2,3", "9/4"): "92e70a30d407b55520878d8de3b33a6fc69bd06310a9153445026d9bee1f22c6",
    ("2,4,6,10", "9/8"): "4fb1c6b6c0ba190c699a1e4d33e19472c26856d4a380bdfb9bec06a5c6bd9815",
    ("2,4,6,10", "9/8", "--no-phase2"):
        "8f316a5f5916b0645a5f02c75ba24cfcece6a0236ba7a2f8bf53a7170a8dd661",
    ("1,2,3", "3/2"): "a28c035e2bf2c1e55c0da8995258068b25967a321b74672511eaddf9ef775fdf",
}


def _at_jobs(cases, ids):
    """Each case at --jobs 1 under its id, then at --jobs 2."""
    return [
        pytest.param(case, jobs, id=name if jobs == "1" else f"{name}-jobs{jobs}")
        for jobs in ("1", "2")
        for case, name in zip(cases, ids)
    ]


@pytest.mark.parametrize(
    "case,jobs",
    _at_jobs(
        sorted(GOLDEN_SEARCH_DIGESTS), [f"case{i}" for i in range(len(GOLDEN_SEARCH_DIGESTS))]
    ),
)
def test_search_report_digest(capsys, case, jobs):
    weights, bound, *more = case
    code, out, err = run(
        capsys, "search", "--weights", weights, "--bound", bound, "--jobs", jobs,
        "--format", "json", *more,
    )
    assert code == 0, err
    text = re.sub(r'\n  "wall_time_seconds": [^\n]*', "", out)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SEARCH_DIGESTS[case]


def _cut_wall_time(text: str) -> str:
    """A search report without its wall_time_seconds line (json) or row (csv)."""
    text = re.sub(r'\n  "wall_time_seconds": [^\n]*', "", text)
    return re.sub(r"\nwall_time_seconds,[^\n]*", "", text)


# search --format plain and csv on the GOLDEN_SEARCH_DIGESTS cases, recorded
# before the report was written point by point.
GOLDEN_SEARCH_FORMAT_DIGESTS = {
    ("plain", "1,2,3", "3/2"): "c086ee74a335add601026b1dc2463b87312db398aa9c55a59e91eda371add75b",
    ("plain", "2,3", "2"): "720dda9a056705ab8213e7f8c6175858f388df7665c05c9eaddc327027360669",
    ("plain", "2,3", "9/4"): "87da667fca6107049cc5bc444a48bf62f00281e5992ec1bbc86b659446fb13dd",
    ("plain", "2,4,6,10", "9/8"): "b66d542f8e290dd2febd091b3c038693f5de4e668b6bed33320458f31753d70f",
    ("plain", "2,4,6,10", "9/8", "--no-phase2"):
        "151e3b65b4d5b551d3b7f7ac4379d0ba96bfa9293ee7fcfa2798f4bf2e3cd229",
    ("csv", "1,2,3", "3/2"): "51c029bab2074b6f63da71a1baf572d52a0413933c6717841011ae6228c71cde",
    ("csv", "2,3", "2"): "535a5b9f8434fcdbc90a675f2c5a0d7b1db15a77ec9a04ddc12c22fe85b50a5d",
    ("csv", "2,3", "9/4"): "19e469fa8df5febf6d7b92be79b2012aa8a00702d5be1440b0519859b8b6c67d",
    ("csv", "2,4,6,10", "9/8"): "d52e9bf90c3929919c8238306f3ee834340f7b06a612feb37c0189438ee3685b",
    ("csv", "2,4,6,10", "9/8", "--no-phase2"):
        "07e7c2a66ddb29117ca88fdc92838946ce0ca1e668ef8a6595dbfb6fed9aba89",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SEARCH_FORMAT_DIGESTS))
def test_search_report_format_digest(capsys, case):
    fmt, weights, bound, *more = case
    code, out, err = run(
        capsys, "search", "--weights", weights, "--bound", bound, "--jobs", "1",
        "--format", fmt, *more,
    )
    assert code == 0, err
    digest = hashlib.sha256(_cut_wall_time(out).encode()).hexdigest()
    assert digest == GOLDEN_SEARCH_FORMAT_DIGESTS[case]


# A hypersurface search with --require-nonzero: the report has a hypersurface
# string, a non-empty nonvanishing list and points with a vanishing index.
# Recorded with the GOLDEN_SEARCH_FORMAT_DIGESTS.
HYPERSURFACE_243 = "weights: a=2 b=4 c=3\n\na^2 - b\n"
GOLDEN_HYPERSURFACE_DIGESTS = {
    "plain": "c3122331c3f2bf4dabbdff9f9db56349e875f2c6b9353938eb997474c049ebf8",
    "csv": "1fe38c99906013880b4f81ee28a6b6adc1ed20d6508e46154562bfcc15784585",
    "json": "700455df4c2c2e3ee8f6f425ae139507770029312d1be3c1144a18deb527abe6",
}


@pytest.mark.parametrize(
    "fmt,jobs",
    _at_jobs(sorted(GOLDEN_HYPERSURFACE_DIGESTS), sorted(GOLDEN_HYPERSURFACE_DIGESTS)),
)
def test_search_hypersurface_report_digest(capsys, tmp_path, fmt, jobs):
    poly = tmp_path / "f.wpoly"
    poly.write_text(HYPERSURFACE_243)
    code, out, err = run(
        capsys, "search", "--weights", "2,4,3", "--bound", "3/2", "--poly", str(poly),
        "--require-nonzero", "1", "--jobs", jobs, "--format", fmt,
    )
    assert code == 0, err
    digest = hashlib.sha256(_cut_wall_time(out).encode()).hexdigest()
    assert digest == GOLDEN_HYPERSURFACE_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--weights", "2,3", "--bound", "2"],
        ["search", "--weights", "2,3", "--bound", "1/2"],
        ["height", "--weights", "2,4", "--point", "4:8"],
    ],
    ids=["search", "search-empty", "height"],
)
def test_out_file_bytes_equal_stdout_bytes(capsys, tmp_path, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0, err
    target = tmp_path / "report"
    # a longer file already there is replaced, not overwritten in part
    target.write_text("stale\n" * 100_000)
    code, _, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == 0, err
    assert _cut_wall_time(target.read_bytes().decode()) == _cut_wall_time(out)


class TestReportOutput:
    """--out is opened before the command runs; stdout may close early."""

    @pytest.fixture()
    def y_file(self, tmp_path):
        path = tmp_path / "Y.wpoly"
        path.write_text(Y_111)
        return str(path)

    def _argv(self, command, y_file):
        if command == "search":
            return ["search", "--weights", "2,3", "--bound", "2"]
        return [
            "vojta-scan", "--weights", "1,2,3", "--poly", y_file, "--codim", "2",
            "--eps", "1/4", "--delta", "1/4", "--samples", "5", "--box", "5,5,5",
            "--seed", "1",
        ]

    @pytest.mark.parametrize("command", ["search", "vojta-scan"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, y_file, command, where
    ):
        def ran(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(wproj.cli, "run_search", ran)
        monkeypatch.setattr(wproj.cli.vojtalab, "scan", ran)
        target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, *self._argv(command, y_file), "--out", str(target))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(f"usage error: cannot write {target}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "command,override,code",
        [
            ("search", ["--bound=-1"], 1),
            ("search", ["--bound", "x"], 2),
            ("vojta-scan", ["--codim", "1"], 1),
        ],
        ids=["search-domain", "search-usage", "scan-domain"],
    )
    def test_failed_command_leaves_out_as_it_was(
        self, capsys, tmp_path, y_file, command, override, code
    ):
        argv = self._argv(command, y_file) + override
        created = tmp_path / "new.json"
        assert run(capsys, *argv, "--out", str(created))[:2] == (code, "")
        assert not created.exists()
        existing = tmp_path / "old.json"
        existing.write_text("an earlier report\n")
        assert run(capsys, *argv, "--out", str(existing))[:2] == (code, "")
        assert existing.read_text() == "an earlier report\n"

    def test_vojta_scan_out_bytes_equal_stdout_bytes(self, capsys, tmp_path, y_file):
        argv = self._argv("vojta-scan", y_file)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        target = tmp_path / "report.json"
        assert run(capsys, *argv, "--out", str(target))[0] == 0
        assert target.read_text() == out

    def test_closed_stdout_ends_quietly(self):
        # 5,040 points: the JSON report is far larger than a pipe's buffer,
        # so the writer is still writing when the reader closes the pipe
        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "wproj.cli", "search", "--weights", "2,3",
             "--bound", "2", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        # only the config echo: no traceback, no "Exception ignored"
        assert len(err.decode().splitlines()) == 1, err


class TestScanStreaming:
    """vojta-scan writes its report one record at a time: the bytes of
    ScanReport.to_json, with neither the whole text nor a dict per record
    held at once."""

    @staticmethod
    def _config(radius, samples):
        weights, polys = parse_wpoly_file(Y_111)
        return vojtalab.ScanConfig(
            spec=SubschemeSpec(tuple(polys), 2),
            w=classify(list(weights.values())),
            S=frozenset({2}),
            epsilon_grid=(Fraction(1, 4), Fraction(1, 2)),
            delta_grid=(Fraction(1, 4), Fraction(1, 2)),
            box_radii=(radius,) * 3,
            samples=samples,
            seed=1,
        )

    @staticmethod
    def _argv(tmp_path, radius, samples, jobs=1):
        poly = tmp_path / "Y.wpoly"
        poly.write_text(Y_111)
        return [
            "vojta-scan", "--weights", "1,2,3", "--poly", str(poly), "--codim", "2",
            "--primes", "2", "--eps", "1/4,1/2", "--delta", "1/4,1/2",
            "--samples", str(samples), "--box", ",".join([str(radius)] * 3),
            "--seed", "1", "--jobs", str(jobs), "--out", str(tmp_path / "report.json"),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_bytes_equal_to_json(self, capsys, tmp_path, jobs):
        report = vojtalab.scan(self._config(2, 60))
        # the small box gives points on Y and points with a zero coordinate
        assert any(r.lhs is None for r in report.records)
        assert any(r.lhs is not None and r.sunit_term is None for r in report.records)
        code, out, err = run(capsys, *self._argv(tmp_path, 2, 60, jobs))
        assert (code, out) == (0, ""), err
        assert (tmp_path / "report.json").read_text() == report.to_json() + "\n"

    def test_failure_while_rendering_removes_a_created_out(
        self, capsys, monkeypatch, tmp_path
    ):
        rendered = []

        def fail(record):
            rendered.append(record)
            raise DomainError("cannot render")

        monkeypatch.setattr(vojtalab, "_record_json", fail)
        code, out, err = run(capsys, *self._argv(tmp_path, 2, 60))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: cannot render"
        assert len(rendered) == 1  # the scan ran; its first record failed
        assert not (tmp_path / "report.json").exists()

    def test_failure_while_rendering_keeps_an_existing_out(
        self, capsys, monkeypatch, tmp_path
    ):
        def fail(record):
            raise DomainError("cannot render")

        argv = self._argv(tmp_path, 2, 60)
        existing = tmp_path / "old.json"
        existing.write_bytes(b"an earlier report\n")
        argv[-1] = str(existing)
        monkeypatch.setattr(vojtalab, "_record_json", fail)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: cannot render"
        assert existing.read_bytes() == b"an earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["Y.wpoly", "old.json"]

    def test_success_replaces_an_existing_out_and_keeps_its_mode(
        self, capsys, tmp_path
    ):
        argv = self._argv(tmp_path, 2, 60)
        assert run(capsys, *argv)[0] == 0
        want = (tmp_path / "report.json").read_bytes()
        existing = tmp_path / "old.json"
        existing.write_text("an earlier report that is longer than nothing\n" * 100)
        existing.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(existing)
        for target in (existing, link):
            argv[-1] = str(target)
            assert run(capsys, *argv)[0] == 0
            assert existing.read_bytes() == want
            assert existing.stat().st_mode & 0o7777 == 0o640
            assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "Y.wpoly", "link.json", "old.json", "report.json"
        ]

    def test_report_is_never_held_whole(self, capsys, monkeypatch, tmp_path):
        # rendering once gives the report's length and fills the term cache,
        # which would otherwise count towards the peak below
        size = sum(map(len, vojtalab.scan(self._config(1000, 1000)).json_chunks()))
        assert size > 500_000
        emit = wproj.cli._emit
        peaks = []

        def traced(out, args, result, plain_lines, *rest):
            assert not any(isinstance(line, str) and len(line) > 1000 for line in plain_lines)
            tracemalloc.start()
            try:
                emit(out, args, result, plain_lines, *rest)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(wproj.cli, "_emit", traced)
        code, _, err = run(capsys, *self._argv(tmp_path, 1000, 1000))
        assert code == 0, err
        assert (tmp_path / "report.json").stat().st_size == size + 1
        assert peaks[0] < size / 8


class TestImportPath:
    """No command on the benchmark's or the README's paths imports sympy:
    it is only factor's last resort.  At --jobs 1 none of them loads the
    process pool's modules either.  One fresh interpreter runs them all and
    prints, after the import and after each command, which of sympy,
    concurrent.futures and multiprocessing have been imported."""

    SCRIPT = (
        "import json, sys\n"
        "def loaded():\n"
        "    names = ('sympy', 'concurrent.futures', 'multiprocessing')\n"
        "    print(json.dumps([m for m in names if m in sys.modules]))\n"
        "import wproj.cli\n"
        "loaded()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert wproj.cli.main(argv) == 0, argv\n"
        "    loaded()\n"
        "from wproj.exactnum import factor\n"
        "assert factor((10**15 + 37) * (3 * 10**15 + 37)).value() == "
        "(10**15 + 37) * (3 * 10**15 + 37)\n"
        "print('sympy' in sys.modules)\n"
    )

    def test_sympy_stays_unimported_until_a_fallback(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parent.parent
        out = str(tmp_path / "out")
        commands = [
            ["search", "--weights", "2,3", "--bound", "9/4", "--jobs", "1"],
            ["vojta-scan", "--weights", "1,2,3", "--poly", str(root / "perfbench/inputs/Y.wpoly"),
             "--codim", "2", "--primes", "2", "--eps", "1/4,1/2", "--delta", "1/4,1/2",
             "--samples", "1000", "--box", "1000,1000,1000", "--seed", "1", "--jobs", "1"],
            ["height", "--weights", "2,4", "--point", "4:8"],
            ["hgcd", "--a", "12", "--b", "18/5"],
            ["split-height", "--weights", "2,4,6,10", "--point=-12:360:7000:99", "--primes", "2,3"],
        ]
        argvs = [argv + ["--out", out] for argv in commands]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # import, each command, then a factorization that Brent's rho cannot
        # finish within its budget
        assert proc.stdout.splitlines() == ["[]"] * (1 + len(commands)) + ["True"]
