"""Byte-stability of the CLI over a fixed battery of invocations.

Each invocation runs `cli.main` in-process and is pinned by its exit
code and the SHA-256 of its stdout; the digests are the same on both
kernels.  A usage error is pinned by its last stderr line as well.
The pins hold whatever the caller's environment says: a budget flag left
out takes its parser default.
`--help` and argparse's usage block are left out: argparse wraps both
to the terminal width.
"""

import hashlib
import io

import pytest

from ackirby import cli

MATRIX = "3\n1 1 0\n1 2 1\n0 1 0\nh h h\n"
HOPF = "2\n0 1\n1 0\nd h\n"   # a canceling Hopf pair: dotted circle and 0-framed 2-handle
MOVES = '[{"type": "stabilize"}, {"type": "invert_relator", "i": 1}]'
FOUND_N1 = ["search", "--family", "n=1", "--max-len", "13", "--max-depth", "24"]

# name -> argv; "{pres}", "{moves}", "{matrix}", "{hopf}" and "{cert}" name the
# files the `files` fixture writes, and "-" reads `STDIN`
BATTERY = {
    "word-reduce": ["word", "reduce", "xyYXxxY"],
    "word-invert": ["word", "invert", "xxYz"],
    "word-cyclic": ["word", "cyclic", "Yxyxy", "--format", "json"],
    "word-canon": ["word", "canon", "xxYxYxxYw"],
    "word-sums": ["word", "sums", "xxxYYz"],
    "word-sums-json": ["word", "sums", "xxxYYz", "--format", "json"],
    "pres-canon": ["pres", "canon", "--pres", "2; xxxYY; YXYxyx"],
    "pres-canon-stdin": ["pres", "canon", "--in", "-"],
    "pres-info": ["pres", "info", "--in", "{pres}"],
    "pres-info-json": ["pres", "info", "--pres", "2; YXYxyx; xxxYY", "--format", "json"],
    "pres-apply": ["pres", "apply", "--pres", "2; xy; y", "--moves", "{moves}"],
    "search-found-n1": FOUND_N1,
    "search-found-n1-text": FOUND_N1 + ["--format", "text"],
    "search-exhaust-n3": ["search", "--family", "n=3", "--max-len", "16",
                          "--max-depth", "8", "--workers", "2", "--progress"],
    "search-extended-n2": ["search", "--family", "n=2", "--regime", "extended",
                           "--max-len", "12", "--max-depth", "6"],
    "search-inconclusive": FOUND_N1 + ["--capacity", "100", "--seed", "7"],
    "search-pres-file": ["search", "--in", "{pres}", "--max-len", "13",
                         "--format", "text"],
    "search-family-w": ["search", "--family", "n=0", "--family-w", "xy",
                        "--max-len", "9", "--max-depth", "4"],
    "verify-gersten": ["verify", "--cert", "{cert}"],
    "family-show": ["family", "show", "--n", "2"],
    "family-report": ["family", "report", "--n-max", "2"],
    "family-report-json": ["family", "report", "--n-max", "1", "--max-depth", "4",
                           "--format", "json"],
    "family-gersten": ["family", "gersten"],
    "family-gersten-prefix": ["family", "gersten", "--prefix-only"],
    "kirby-slide": ["kirby", "slide", "--in", "{matrix}", "--component", "2",
                    "--over", "1", "--sign", "-"],
    "kirby-blowdown": ["kirby", "blowdown", "--in", "{matrix}", "--component", "1",
                       "--format", "json"],
    "kirby-gpr": ["kirby", "gpr", "--in", "{matrix}"],
    "kirby-gpr-json": ["kirby", "gpr", "--in", "{matrix}", "--format", "json"],
    "kirby-weakform": ["kirby", "weakform", "--in", "{matrix}"],
    "kirby-weakform-hopf": ["kirby", "weakform", "--in", "{hopf}", "--format", "json"],
    "curves-enumerate": ["curves", "enumerate", "--height", "4"],
    "curves-classify": ["curves", "classify", "--slope", "3/5",
                        "--labeling", "L1=0,0;L2=1,0;R1=1,1;R2=0,1", "--format", "json"],
    "curves-classify-text": ["curves", "classify", "--slope=-1/2",
                             "--labeling", "L1=0,0;L2=1,0;R1=1,1;R2=0,1"],
    "input-error": ["pres", "info", "--pres", "2; xy"],
    # usage errors: the op requirement table, then argparse and budget checks
    "usage-slide-bare": ["kirby", "slide", "--in", "{matrix}"],
    "usage-slide-over": ["kirby", "slide", "--in", "{matrix}", "--component", "1"],
    "usage-blowdown": ["kirby", "blowdown", "--in", "{matrix}"],
    "usage-classify": ["curves", "classify"],
    "usage-apply": ["pres", "apply", "--pres", "2; xy; y"],
    "usage-no-input": ["search"],
    "usage-pres-family": ["pres", "info", "--pres", "2; xy; y", "--family", "n=1"],
    "usage-report-workers": ["family", "report", "--n-max", "0", "--workers", "1"],
    "usage-workers": FOUND_N1 + ["--workers", "0"],
    "usage-report-depth": ["family", "report", "--n-max", "0", "--max-depth", "-1"],
}
STDIN = "2; xxxYY; YXYxyx\n"

# the entries of the budget commands that leave --max-len or --max-depth out
DEFAULTED_BUDGETS = sorted(
    name for name, argv in BATTERY.items()
    if (argv[:1] == ["search"] or argv[:2] == ["family", "report"])
    and not {"--max-len", "--max-depth"} <= set(argv))

# name -> (exit code, SHA-256 of stdout, last stderr line of a usage error)
PINNED = {
    "curves-classify":
        (0, "5854cc3fba19476536772915414be793e6bd280dcb5a19086ccaa617673042b4", None),
    "curves-classify-text":
        (1, "3611d5d84e51e9d41b4fb9fe1a0d840cc44f34cc45fd6b800892c7182e3773e8", None),
    "curves-enumerate":
        (0, "2fd1ce8775678f1f13cf6ff07926cb22bb31e2768492adee06e2621378959a23", None),
    "family-gersten":
        (0, "ce8353c477d68db1d634655e7e8a2817c78aadaef6e4ca68f75ebb8be94c281c", None),
    "family-gersten-prefix":
        (0, "5a57f08eb38e51e17866e84dae76741020a22c1b08a1fd8f081bacb4381ee768", None),
    "family-report":
        (0, "9f6450f4b50e5f22a9fa0c108120a75f6113760aa086e26877ba9251cf97e493", None),
    "family-report-json":
        (0, "d3ad5789489b9ae4d848e2a54d675ba3e0e27e10c086f1000f3b5753dfeac207", None),
    "family-show":
        (0, "76cc98d51498818be0bf5c621f4dceaed8902b0e1af382799234cf187f655cfc", None),
    "input-error":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "kirby-blowdown":
        (0, "5031f9112ab53e01744d67335b52e58a0501177108146dd4634fe1b1af2f09a3", None),
    "kirby-gpr":
        (1, "c614d8f542a22dd3a486a53eb397d09bbd96feea25d31ed083aaacf9917d8eb6", None),
    "kirby-gpr-json":
        (1, "13a2a0a5083528b88a56224cf1ed2c6b5781855e90ff46eeb68161d3767e6c4f", None),
    "kirby-slide":
        (0, "9e6c16d4e5b9902f70209bba43a93ffe25ba6f6cd00c3401468c34639316a944", None),
    "kirby-weakform":
        (1, "b277ecf8c9633cb7ed4ba70deabdced9d2e803b68304b932cf7c80874ad49865", None),
    "kirby-weakform-hopf":
        (0, "990f830dffb65c66ced2251862681dfe90945d46f22cd2293e5e0fbf70e2733f", None),
    "pres-apply":
        (0, "4fbdfa83ffcb13d94c7490955ca45a9f409c45295d3a4b01c2ca74ae58b15bb1", None),
    "pres-canon":
        (0, "ed254e8b8437c40c26456123668d6cdfeedab744c275e0ca8838bd6bf57c9dad", None),
    "pres-canon-stdin":
        (0, "ed254e8b8437c40c26456123668d6cdfeedab744c275e0ca8838bd6bf57c9dad", None),
    "pres-info":
        (0, "26be5511496d325d2ec3a58b4e42a0bf11e1d7f0a54a6e0814139ab703fe356e", None),
    "pres-info-json":
        (0, "36a656870f10bd187459146503a9f61aa583fca1a6e44c18d6cdf2ca3f076968", None),
    "search-exhaust-n3":
        (1, "cd8b4a10a4210a673419c325a7eab01e5f421f97d8e4b136fa77e533ae885cf2", None),
    "search-extended-n2":
        (0, "3c797b10e560148e5ed6450803fe469fdad15ebaa68b65508186109700dceb9d", None),
    "search-family-w":
        (0, "89bb07b3e4ee2bed586941cd157b1c5859250e4945a915ea2fadd79d789b4d94", None),
    "search-found-n1":
        (0, "9ac12ad0fdcd9a5c263dabbd99e282413c497546cdb5be65e533ba844c007c36", None),
    "search-found-n1-text":
        (0, "47878b9ea5812dd3ff13b69d046d246b413b14761533db0c675d709fbf430335", None),
    "search-inconclusive":
        (3, "5819a9692ac8576d42908a8a497c3f7c1423141e36a3de3a00bb00534a2f5358", None),
    "search-pres-file":
        (0, "8d6941859e8f77b9508858fc542f5fa175274d8f7a47f2dff546bc2a8365b701", None),
    "usage-apply":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: pres apply needs --moves"),
    "usage-blowdown":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: kirby blowdown needs --component"),
    "usage-classify":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: curves classify needs --slope"),
    "usage-no-input":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby search: error: one of the arguments --pres --in --family is required"),
    "usage-pres-family":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: unrecognized arguments: --family n=1"),
    "usage-report-depth":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: --max-depth must be >= 0, got -1"),
    "usage-report-workers":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: unrecognized arguments: --workers 1"),
    "usage-slide-bare":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: kirby slide needs --component"),
    "usage-slide-over":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: kirby slide needs --over"),
    "usage-workers":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "ackirby: error: --workers must be >= 1, got 0"),
    "verify-gersten":
        (0, "4f0a0c295b7e650b572107bf08d26458c71f88725b558defa8009fe624dca768", None),
    "word-canon":
        (0, "4718bb28ee40167a407b61a31b581a58b4cece3e55d6482ef4a26f6d95fedafc", None),
    "word-cyclic":
        (0, "d9f8a4bb291ed50125bf99ebf488f5b9a7aa08ab121d6bc6c2ab37a3ff820a49", None),
    "word-invert":
        (0, "da0bc48d6fd7d9a1350e217cc2671bd010f5e95d8e2f469964e06f03a70c8f8c", None),
    "word-reduce":
        (0, "5d63f7c66e6a44654098bab014dec832f7a171877f3286233130e73db087c399", None),
    "word-sums":
        (0, "6a12be78236bf0d26b67cca03ee459c62c6650b50bae78afc4f11ff73cdd542e", None),
    "word-sums-json":
        (0, "b2deb1c77e7b122e1db8c749bea8dc5e36edd2f63b76255ca5ce22f6be9cf373", None),
}


@pytest.fixture
def files(tmp_path, capsys):
    paths = {name: str(tmp_path / name)
             for name in ("pres", "moves", "matrix", "hopf", "cert")}
    for name, text in (("pres", "2; YXYxyx; xxxYY\n"), ("moves", MOVES),
                       ("matrix", MATRIX), ("hopf", HOPF)):
        with open(paths[name], "w") as fh:
            fh.write(text)
    assert cli.main(["family", "gersten", "--cert-out", paths["cert"]]) == cli.EXIT_OK
    capsys.readouterr()
    return paths


def run_main(argv, files, capsys, monkeypatch):
    """(exit code, stdout SHA-256, last stderr line or None) of one call;
    the stderr line is kept for usage errors only."""
    monkeypatch.setattr("sys.stdin", io.StringIO(STDIN))
    try:
        code = cli.main([a.format(**files) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    last = err.splitlines()[-1] if code == cli.EXIT_USAGE else None
    return code, hashlib.sha256(out.encode()).hexdigest(), last


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_invocation_is_pinned(name, files, capsys, monkeypatch):
    assert run_main(BATTERY[name], files, capsys, monkeypatch) == PINNED[name]


@pytest.mark.parametrize("name", DEFAULTED_BUDGETS)
def test_budget_variables_are_ignored(name, files, capsys, monkeypatch):
    monkeypatch.setenv("ACKIRBY_MAX_LEN", "9")
    monkeypatch.setenv("ACKIRBY_MAX_DEPTH", "3")
    assert run_main(BATTERY[name], files, capsys, monkeypatch) == PINNED[name]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
