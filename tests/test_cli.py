import json
import subprocess
import sys

import pytest

from ackirby.kirby import FramedLinkMatrix, matrix_to_text, parse_matrix, slide
from ackirby.presentations import parse_presentation
from ackirby.search import certificate_from_dict, verify

CLI = [sys.executable, "-m", "ackirby.cli"]

# composite move records whose "moves" is not a list
NON_LIST_COMPOSITES = [[{"type": "composite", "moves": moves}] for moves in ("", {}, "ab")]


def run(*args, stdin=None):
    return subprocess.run(CLI + list(args), input=stdin,
                          capture_output=True, text=True, timeout=300)


class TestWordCommands:
    def test_reduce_to_empty(self):
        r = run("word", "reduce", "xyYX")
        assert r.returncode == 0
        assert r.stdout == "\n"

    def test_invert(self):
        assert run("word", "invert", "xxY").stdout == "yXX\n"

    def test_cyclic(self):
        assert run("word", "cyclic", "Yxyxy").stdout == \
            "conjugator: Y\ncore: xyx\n"

    def test_canon_switches_alphabet_for_high_rank(self):
        r = run("word", "canon", "xxYxYxxYw")
        assert r.returncode == 0
        assert r.stdout == "g1g1G2g1G2g1g1G2g26\n"

    def test_sums(self):
        r = run("word", "sums", "--rank", "2", "xxxYY")
        assert r.stdout == "rank: 2\nsums: 3 -2\n"

    def test_negative_rank_is_input_error(self):
        r = run("word", "sums", "xX", "--rank", "-1")
        assert r.returncode == 1
        assert r.stderr.startswith("error: ") and "rank must be >= 0, got -1" in r.stderr

    def test_invalid_word_is_input_error(self):
        r = run("word", "canon", "x1y")
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_non_ascii_letter_is_input_error(self):
        r = run("word", "reduce", "x\u0130")
        assert r.returncode == 1
        assert r.stderr == "error: unknown character '\u0130' in word text\n"

    def test_unknown_op_is_usage_error(self):
        assert run("word", "frobnicate", "xy").returncode == 2


class TestPresCommands:
    def test_info(self):
        r = run("pres", "info", "--pres", "2; YXYxyx; xxxYY")
        assert r.returncode == 0
        assert "rank: 2" in r.stdout
        assert "total-length: 11" in r.stdout
        assert "det: 1" in r.stdout
        assert "trivial: no" in r.stdout
        assert "canonical: 2; xxxYY; xyxYXY" in r.stdout

    def test_canon(self):
        r = run("pres", "canon", "--pres", "2; xxxYY; YXYxyx")
        assert r.stdout == "2; xxxYY; xyxYXY\n"

    def test_stdin_input(self):
        r = run("pres", "canon", "--in", "-", stdin="2; xxxYY; YXYxyx\n")
        assert r.stdout == "2; xxxYY; xyxYXY\n"

    def test_apply_moves_from_file(self, tmp_path):
        moves = [{"type": "stabilize"},
                 {"type": "invert_relator", "i": 1}]
        f = tmp_path / "moves.json"
        f.write_text(json.dumps(moves))
        r = run("pres", "apply", "--pres", "2; xy; y", "--moves", str(f))
        assert r.returncode == 0
        assert r.stdout == "3; YX; y; z\n"

    def test_apply_moves_from_stdin(self):
        r = run("pres", "apply", "--pres", "2; xy; y", "--moves", "-",
                stdin='[{"type": "swap_relators", "i": 1, "j": 2}]')
        assert r.stdout == "2; y; xy\n"

    def test_apply_without_moves_is_usage_error(self):
        assert run("pres", "apply", "--pres", "2; xy; y").returncode == 2

    def test_two_sources_rejected(self):
        r = run("pres", "info", "--pres", "2; xy; y", "--family", "n=1")
        assert r.returncode == 2

    def test_pres_and_in_together_rejected(self):
        r = run("pres", "info", "--pres", "2; xy; y", "--in", "/nonexistent")
        assert r.returncode == 2

    def test_unbalanced_presentation_is_input_error(self):
        r = run("pres", "info", "--pres", "2; xy")
        assert r.returncode == 1
        assert "error:" in r.stderr

    @pytest.mark.parametrize("moves", [
        [{"type": "invert_relator"}],
        [{"type": "invert_relator", "i": 1, "x": 2}],
        [5],
        [{"type": "composite", "moves": [{"type": "swap_relators", "i": 1}]}],
        [{"type": "invert_relator", "i": True}],
        [{"type": "conjugate_relator", "i": 1, "letter": True}],
        [{"type": "nielsen_generator", "i": 1, "j": 2, "sign": True}],
        [{"type": "multiply_by_conjugate", "i": 1, "j": 2, "conjugator": "x", "sign": True}],
        [{"type": "nielsen_generator", "i": 1, "j": 2, "sign": 1.0}],
        [{"type": "multiply_by_conjugate", "i": 1, "j": 2, "conjugator": "x", "sing": -1}],
        [{"type": "composite", "moves": [], "extra": 1}],
        *NON_LIST_COMPOSITES,
        5,
        {},
    ], ids=("missing_field", "extra_field", "not_an_object", "bad_nested_record",
            "bool_index", "bool_letter", "bool_nielsen_sign", "bool_conjugate_sign",
            "float_nielsen_sign", "misspelt_conjugate_sign", "composite_extra_field",
            "composite_empty_string", "composite_object", "composite_string",
            "number_not_list", "object_not_list"))
    def test_malformed_move_record_is_input_error(self, moves):
        r = run("pres", "apply", "--pres", "2; xy; y", "--moves", "-",
                stdin=json.dumps(moves))
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr
        if moves in NON_LIST_COMPOSITES:
            last = r.stderr.splitlines()[-1]
            assert last.startswith("error: malformed composite move record"), last

    @pytest.mark.parametrize("conjugator", [[1], ["x"]], ids=("letter_list", "string_list"))
    @pytest.mark.parametrize("command", ("pres_apply", "verify", "search_prefix"))
    def test_non_string_conjugator_is_input_error(self, tmp_path, command, conjugator):
        """A multiply_by_conjugate conjugator must be a word string."""
        move = {"type": "multiply_by_conjugate", "i": 1, "j": 2,
                "conjugator": conjugator}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"start": {"rank": 2, "relators": ["xY", "y"]},
                                    "moves": [move]}))
        argv = {"pres_apply": ("pres", "apply", "--pres", "2; xY; y", "--moves", "-"),
                "verify": ("verify", "--cert", str(cert)),
                "search_prefix": ("search", "--pres", "2; xY; y", "--prefix", str(cert),
                                  "--max-len", "8", "--max-depth", "4")}[command]
        r = run(*argv, stdin=json.dumps([move]))
        assert r.returncode == 1
        last = r.stderr.splitlines()[-1]
        assert last.startswith("error: malformed multiply_by_conjugate move record"), last

    @pytest.mark.parametrize("command", ("pres_apply", "verify", "search_prefix"))
    def test_deeply_nested_record_is_input_error(self, tmp_path, command):
        """A move record nested past the recursion limit is refused with
        one error line.  The text is built by concatenation, since a
        recursive json.dumps would hit the same limit."""
        depth = 2000
        move = ('{"type": "composite", "moves": [' * depth + '{"type": "stabilize"}'
                + "]}" * depth)
        cert = tmp_path / "cert.json"
        cert.write_text('{"start": {"rank": 2, "relators": ["xY", "y"]}, "moves": [%s]}'
                        % move)
        argv = {"pres_apply": ("pres", "apply", "--pres", "2; xY; y", "--moves", "-"),
                "verify": ("verify", "--cert", str(cert)),
                "search_prefix": ("search", "--pres", "2; xY; y", "--prefix", str(cert),
                                  "--max-len", "8", "--max-depth", "4")}[command]
        r = run(*argv, stdin="[%s]" % move)
        assert r.returncode == 1
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1, r.stderr[-2000:]
        assert r.stderr.startswith("error: input nested too deeply")


class TestSearchCommand:
    def test_found_json_and_exit_zero(self):
        r = run("search", "--pres", "2; Yx; x",
                "--max-len", "13", "--max-depth", "20")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["command"] == "search"
        assert doc["outcome"]["status"] == "found"
        assert doc["outcome"]["stats"]["visited"] == 6
        cert = certificate_from_dict(doc["outcome"]["certificate"])
        assert verify(cert).ok

    def test_exhausted_exit_one(self):
        r = run("search", "--family", "n=3",
                "--max-len", "13", "--max-depth", "8")
        assert r.returncode == 1
        doc = json.loads(r.stdout)
        assert doc["outcome"]["status"] == "exhausted"
        assert doc["outcome"]["stats"]["visited"] == 1

    def test_inconclusive_exit_three(self):
        r = run("search", "--family", "n=2", "--max-len", "13",
                "--max-depth", "6", "--capacity", "100")
        assert r.returncode == 3
        assert json.loads(r.stdout)["outcome"]["status"] == "inconclusive"

    def test_missing_input_is_usage_error(self):
        assert run("search").returncode == 2

    def test_two_inputs_are_usage_error(self):
        r = run("search", "--pres", "2; xY; y", "--family", "n=1")
        assert r.returncode == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "--workers must be >= 1, got 0"),
        ("--max-depth", "-1", "--max-depth must be >= 0, got -1"),
        ("--capacity", "0", "--capacity must be >= 1, got 0"),
    ], ids=("workers", "max_depth", "capacity"))
    def test_out_of_range_flag_is_usage_error(self, flag, value, message):
        r = run("search", "--pres", "2; xY; y", "--max-len", "8", "--max-depth", "4",
                flag, value)
        assert r.returncode == 2
        assert r.stdout == ""
        assert message in r.stderr

    def test_rank_plus_length_over_127_is_an_error(self):
        """A packed class holds generators up to 127, so a search whose
        start rank plus length bound exceeds 127 is refused before it
        starts, like a bound below the start length."""
        r = run("search", "--pres", "3; x; y; z", "--max-len", "125", "--max-depth", "1")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and "127" in r.stderr

    def test_workers_are_recorded_but_inert(self):
        """The search runs in one process; --workers only shows up as
        the value recorded in the output."""
        args = ("search", "--family", "n=2", "--max-len", "12", "--max-depth", "4")
        one, three = run(*args, "--workers", "1"), run(*args, "--workers", "3")
        assert one.returncode == three.returncode == 1
        d1, d3 = json.loads(one.stdout), json.loads(three.stdout)
        assert (d1["config"].pop("workers"), d3["config"].pop("workers")) == (1, 3)
        assert d1 == d3
        assert d1["outcome"]["status"] == "exhausted"
        t1 = run(*args, "--workers", "1", "--format", "text").stdout.splitlines()
        t3 = run(*args, "--workers", "3", "--format", "text").stdout.splitlines()
        assert [line for line in t1 if line != "workers: 1"] \
            == [line for line in t3 if line != "workers: 3"]
        assert "workers: 1" in t1 and "workers: 3" in t3

    def test_zero_depth_is_in_range(self):
        r = run("search", "--pres", "2; xY; y", "--max-len", "8", "--max-depth", "0")
        assert r.returncode == 1
        assert json.loads(r.stdout)["outcome"]["status"] == "exhausted"

    def test_byte_stable_output(self):
        args = ("search", "--family", "n=0",
                "--max-len", "13", "--max-depth", "20")
        a, b = run(*args), run(*args)
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")
        ta = run(*args, "--format", "text")
        tb = run(*args, "--format", "text")
        assert ta.stdout == tb.stdout

    def test_seed_recorded_but_inert(self):
        plain = run("search", "--pres", "2; Yx; x",
                    "--max-len", "13", "--max-depth", "20")
        seeded = run("search", "--pres", "2; Yx; x",
                     "--max-len", "13", "--max-depth", "20", "--seed", "7")
        d1, d2 = json.loads(plain.stdout), json.loads(seeded.stdout)
        assert set(d1["config"]) == {"max_total_length", "max_depth", "move_regime",
                                     "dedup_capacity", "workers", "seed"}
        assert d1["config"]["seed"] is None
        assert d2["config"]["seed"] == 7
        assert d1["outcome"] == d2["outcome"]

    def test_progress_goes_to_stderr_only(self):
        base = run("search", "--pres", "2; Yx; x",
                   "--max-len", "13", "--max-depth", "20")
        prog = run("search", "--pres", "2; Yx; x",
                   "--max-len", "13", "--max-depth", "20", "--progress")
        assert prog.stdout == base.stdout
        assert "progress: depth=1" in prog.stderr

    def test_cert_out_round_trips(self, tmp_path):
        out = tmp_path / "cert.json"
        r = run("search", "--pres", "2; Yx; x", "--max-len", "13",
                "--max-depth", "20", "--cert-out", str(out))
        assert r.returncode == 0
        v = run("verify", "--cert", str(out))
        assert v.returncode == 0
        assert "ok: yes" in v.stdout

    def test_prefix_closes_remaining_gap(self, tmp_path):
        doc = {"start": {"rank": 2, "relators": ["xY", "y"]},
               "moves": [{"type": "multiply_relator", "i": 1, "j": 2,
                          "side": "right"}]}
        f = tmp_path / "prefix.json"
        f.write_text(json.dumps(doc))
        r = run("search", "--pres", "2; xY; y", "--prefix", str(f),
                "--max-len", "8", "--max-depth", "4")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["outcome"]["status"] == "found"
        full = certificate_from_dict(out["outcome"]["certificate"])
        rep = verify(full)
        assert rep.ok and full.start == parse_presentation("2; xY; y")


class TestVerifyCommand:
    def _write_gersten(self, path):
        r = run("family", "gersten", "--cert-out", str(path))
        assert r.returncode == 0

    def test_full_certificate_replay(self, tmp_path):
        f = tmp_path / "g.json"
        self._write_gersten(f)
        r = run("verify", "--cert", str(f))
        assert r.returncode == 0
        steps = [ln for ln in r.stdout.splitlines() if ln.startswith("step ")]
        assert len(steps) == 62
        assert r.stdout.splitlines()[0] == "start: 2; YXYxyx; xxxYY"
        assert r.stdout.strip().endswith("final: 2; x; y")
        assert "ok: yes" in r.stdout

    def test_tampered_certificate_fails(self, tmp_path):
        f = tmp_path / "g.json"
        self._write_gersten(f)
        doc = json.loads(f.read_text())
        del doc["moves"][5]
        g = tmp_path / "bad.json"
        g.write_text(json.dumps(doc))
        r = run("verify", "--cert", str(g))
        assert r.returncode == 1
        assert "ok: no" in r.stdout

    def test_missing_file_is_input_error(self):
        r = run("verify", "--cert", "/nonexistent/cert.json")
        assert r.returncode == 1
        assert "error:" in r.stderr

    @pytest.mark.parametrize("doc", [
        {"moves": []},
        [],
        {"start": {"rank": 2}, "moves": []},
        {"start": {"rank": 2, "relators": ["x", "y"]}, "moves": [{"type": "stabilize", "i": 1}]},
        {"start": {"rank": True, "relators": ["x"]}, "moves": []},
    ], ids=("no_start", "not_an_object", "bad_start", "bad_move", "bool_rank"))
    def test_malformed_certificate_is_input_error(self, doc):
        r = run("verify", "--cert", "-", stdin=json.dumps(doc))
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr


class TestFamilyCommands:
    def test_show(self):
        assert run("family", "show", "--n", "2").stdout == "2; YXYxyx; xxxYY\n"

    def test_show_custom_w(self):
        r = run("family", "show", "--n", "1", "--w", "")
        assert r.stdout == "2; Yx; xxY\n"

    def test_report_rows(self):
        r = run("family", "report", "--n-max", "3")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "n=0 total=7 det=1 status=found visited=8",
            "n=1 total=9 det=1 status=found visited=1245",
            "n=2 total=11 det=1 status=found visited=1255",
            "n=3 total=13 det=1 status=exhausted visited=55",
        ]

    def test_report_depth_only_keeps_member_lengths(self):
        # each member keeps its own start length + 2 as the length budget
        r = run("family", "report", "--n-max", "1", "--max-depth", "4")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.splitlines() == [
            "n=0 total=7 det=1 status=found visited=8",
            "n=1 total=9 det=1 status=found visited=1245",
        ]

    def test_report_regime_alone_is_applied(self):
        r = run("family", "report", "--n-max", "2", "--regime", "extended")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "n=0 total=7 det=1 status=found visited=11",
            "n=1 total=9 det=1 status=found visited=3528",
            "n=2 total=11 det=1 status=found visited=13365",
        ]

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-depth", "-1", "--max-depth must be >= 0, got -1"),
    ], ids=("max_depth",))
    def test_report_out_of_range_flag_is_usage_error(self, flag, value, message):
        r = run("family", "report", "--n-max", "0", "--max-len", "8", flag, value)
        assert r.returncode == 2
        assert r.stdout == ""
        assert message in r.stderr

    def test_report_has_no_workers_flag(self):
        r = run("family", "report", "--n-max", "0", "--workers", "1")
        assert r.returncode == 2
        assert "unrecognized arguments: --workers" in r.stderr

    def test_gersten_prefix_only(self, tmp_path):
        f = tmp_path / "prefix.json"
        r = run("family", "gersten", "--prefix-only", "--cert-out", str(f))
        assert r.returncode == 0
        doc = json.loads(f.read_text())
        assert len(doc["moves"]) == 14

    def test_gersten_stdout_is_json(self):
        r = run("family", "gersten")
        doc = json.loads(r.stdout)
        assert len(doc["moves"]) == 62
        assert doc["start"] == {"rank": 2, "relators": ["YXYxyx", "xxxYY"]}


class TestKirbyCommands:
    HOPF = "2\n0 1\n1 0\nh d\n"

    def test_slide_matches_library(self):
        r = run("kirby", "slide", "--in", "-", "--component", "1",
                "--over", "2", "--sign", "+", stdin=self.HOPF)
        assert r.returncode == 0
        M = parse_matrix(self.HOPF)
        assert parse_matrix(r.stdout) == slide(M, 1, 2, +1)

    def test_slide_then_back(self):
        r = run("kirby", "slide", "--in", "-", "--component", "1",
                "--over", "2", "--sign", "+", stdin=self.HOPF)
        r2 = run("kirby", "slide", "--in", "-", "--component", "1",
                 "--over", "2", "--sign", "-", stdin=r.stdout)
        assert parse_matrix(r2.stdout) == parse_matrix(self.HOPF)

    def test_illegal_slide_is_input_error(self):
        r = run("kirby", "slide", "--in", "-", "--component", "2",
                "--over", "1", stdin=self.HOPF)
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_blowdown(self):
        r = run("kirby", "blowdown", "--in", "-", "--component", "1",
                stdin="2\n-1 1\n1 0\nh h\n")
        assert r.returncode == 0
        assert parse_matrix(r.stdout) == FramedLinkMatrix(((1,),))

    def test_gpr_answers(self):
        yes = run("kirby", "gpr", "--in", "-", stdin="1\n0\nh\n")
        no = run("kirby", "gpr", "--in", "-", stdin="2\n0 1\n1 0\nh h\n")
        assert (yes.returncode, no.returncode) == (0, 1)
        assert "yes" in yes.stdout and "no" in no.stdout

    def test_weakform_answers(self):
        yes = run("kirby", "weakform", "--in", "-", stdin=self.HOPF)
        no = run("kirby", "weakform", "--in", "-",
                 stdin="2\n2 1\n1 0\nh d\n")
        assert (yes.returncode, no.returncode) == (0, 1)

    def test_slide_needs_over(self):
        assert run("kirby", "slide", "--in", "-",
                   "--component", "1", stdin=self.HOPF).returncode == 2


class TestCurvesCommands:
    def test_enumerate(self):
        r = run("curves", "enumerate", "--height", "2")
        assert r.returncode == 0
        assert r.stdout == "0/1\n1/-2\n1/0\n1/2\n2/-1\n2/1\n"

    def test_classify_candidate(self):
        r = run("curves", "classify", "--slope", "1/2")
        assert r.returncode == 0
        assert "candidate: yes" in r.stdout
        assert "z3: 0" in r.stdout

    def test_classify_non_candidate(self):
        r = run("curves", "classify", "--slope", "1/1")
        assert r.returncode == 1
        assert "candidate: no" in r.stdout
        assert "z3: 2" in r.stdout

    def test_classify_with_labeling(self):
        r = run("curves", "classify", "--slope", "1/1", "--labeling",
                "L1=0,0;L2=1,0;R1=1,1;R2=0,1")
        assert r.returncode == 0
        assert "candidate: yes" in r.stdout

    def test_negative_slope_in_equals_form(self):
        """argparse reads a bare `-1/2` as an option, so a negative
        numerator is written `--slope=-1/2`."""
        r = run("curves", "classify", "--slope=-1/2")
        assert r.returncode == 0
        assert "slope: 1/-2" in r.stdout

    def test_bad_slope_is_input_error(self):
        assert run("curves", "classify", "--slope", "0/0").returncode == 1
        assert run("curves", "classify", "--slope", "x").returncode == 1

    def test_classify_needs_slope(self):
        assert run("curves", "classify").returncode == 2


class TestTopLevel:
    def test_no_args_is_usage_error(self):
        assert run().returncode == 2

    def test_help_exits_zero(self):
        r = run("--help")
        assert r.returncode == 0
        assert "search" in r.stdout

    def test_import_loads_no_process_machinery(self):
        """Every search runs in one process, so the CLI has no use for
        multiprocessing or concurrent.futures, whose import would only
        slow each start."""
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, ackirby.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('multiprocessing', 'concurrent')))"],
            capture_output=True, text=True, timeout=60)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"
