import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from flagcw import charclass, cli, counts, flagchow, steenrod, wdring
from flagcw.flagchow import FlagShape
from flagcw.wdring import TwistClass

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "flagcw", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_module_entry_point_runs_verify():
    proc = run_module("--format", "json", "verify", "--suite", "poincare")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["command"] == "verify"
    assert payload["checks"]
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_module_entry_point_rejects_malformed_shape():
    proc = run_module("poincare", "--shape", "x", "--theory", "chow")
    assert proc.returncode == 1
    assert "malformed shape" in proc.stderr


def test_negative_degree_max_is_rejected(capsys):
    assert cli.run(["wring", "--shape", "2,2", "--degree-max", "-3"]) == 1
    assert "--degree-max -3 is negative" in capsys.readouterr().err


def test_roots_outside_root_names_are_rejected(capsys):
    limit = len(charclass.ROOT_NAMES)
    for roots in (0, limit + 1):
        assert cli.run(["euler", "--roots", str(roots), "--expr", "D1"]) == 1
        assert f"out of range 1..{limit}" in capsys.readouterr().err
    assert cli.run(["euler", "--roots", str(limit), "--expr", f"D{limit}"]) == 0


def test_zero_block_is_rejected_before_twist_and_block(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["poincare", "--shape", "1,0,2", "--theory", "w",
                        "--twist", "2"]) == 1
        assert "block 2 has size 0" in capsys.readouterr().err
        # block 3 is in range for the original shape, not for a renumbered one
        assert cli.run(["annihilator", "--shape", "2,0,2", "--block", "3"]) == 1
        assert "block 2 has size 0" in capsys.readouterr().err


# inputs refused before any work, with the message printed after "error: "
REFUSED = [
    (["annihilator", "--shape", "2,2", "--block", "3"],
     "block 3 out of range 1..2 for shape 2,2"),
    (["annihilator", "--shape", "2,2", "--block", "0"],
     "block 0 out of range 1..2 for shape 2,2"),
    (["annihilator", "--shape", "1,2", "--block", "1"],
     "block 1 of shape 1,2 has odd rank; its Euler class is zero"),
    (["annihilator", "--shape", "2,0,2", "--block", "3"],
     "malformed shape '2,0,2': block 2 has size 0"),
    (["poincare", "--theory", "chow", "--shape", "1,0,2"],
     "malformed shape '1,0,2': block 2 has size 0"),
    (["poincare", "--theory", "chow", "--shape", "1,-2"],
     "malformed shape '1,-2': block sizes must be non-negative"),
]


def test_refused_inputs_pin_stderr_and_exit_code(capsys):
    for fmt in ("text", "json"):
        for argv, message in REFUSED:
            assert cli.run(["--format", fmt, *argv]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")


def test_parse_twist_lets_an_internal_error_through(monkeypatch):
    def broken(m, blocks):
        raise RuntimeError("internal")

    monkeypatch.setattr(TwistClass, "from_blocks", staticmethod(broken))
    with pytest.raises(RuntimeError, match="internal"):
        cli.run(["poincare", "--theory", "w", "--shape", "2,2", "--twist", "1"])


def test_chow_poincare_checks_the_multinomial(capsys):
    for theory in ("chow", "ch2"):
        assert cli.run(["--format", "json", "poincare", "--shape", "2,2,4",
                        "--theory", theory]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["result"]["coefficients"]) == 420
        assert payload["checks"] == [
            {"name": "coefficients sum to the multinomial N!/prod d_i! = 420",
             "status": "pass"}
        ]


def test_failed_verification_exits_2(monkeypatch, capsys):
    def failing(shape, i):
        return None, {"statement": "forced failure", "status": "fail",
                      "degrees_checked": []}

    monkeypatch.setattr(wdring, "ann_euler", failing)
    assert cli.run(["annihilator", "--shape", "2,2", "--block", "1"]) == 2
    assert "status: fail" in capsys.readouterr().out


def test_single_block_annihilator_passes(capsys):
    # Fl(D) is a point: e_1 = 0, and Ann(0) = (1) = (x), x the empty product
    for shape in ("2", "4"):
        assert cli.run(["annihilator", "--shape", shape, "--block", "1"]) == 0
        assert "status: pass" in capsys.readouterr().out


SCHEMA_COMMANDS = [
    ["poincare", "--shape", "1,2", "--theory", "chow"],
    ["poincare", "--shape", "1,1,1", "--theory", "torsion"],
    ["wring", "--shape", "2,2", "--degree-max", "4"],
    ["annihilator", "--shape", "2,2", "--block", "1"],
    ["euler", "--expr", "sym^3(D1)"],
    ["count", "--preset", "cubic-lines"],
    ["count", "--preset", "quintic-4planes"],
    ["count", "--preset", "flag-3-5"],
    ["verify", "--suite", "poincare"],
    ["verify", "--suite", "piqp"],
    ["verify", "--suite", "annihilator"],
    ["verify", "--suite", "sq2"],
]

REPORT_KEYS = {"shape", "statement", "degrees_checked", "status"}


def test_json_payload_schema(capsys):
    for argv in SCHEMA_COMMANDS:
        assert cli.run(["--format", "json", *argv]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"command", "input", "result", "checks"}, argv
        assert payload["command"] == argv[0]
        for check in payload["checks"]:
            assert set(check) == {"name", "status"}, argv
            assert check["status"] in ("pass", "fail"), argv
        for rep in payload["result"].get("reports", []):
            # only the W_D annihilator reports count (degree, twist) slots
            wd = rep["statement"].startswith("Ann(e_")
            assert set(rep) == REPORT_KEYS | ({"slots_checked"} if wd else set()), rep


def test_count_fills_checks(capsys):
    for preset, n_checks in [("cubic-lines", 3), ("quintic-4planes", 1),
                             ("flag-3-5", 7)]:
        assert cli.run(["count", "--preset", preset]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == n_checks, preset
        assert all(c["status"] == "pass" for c in checks), checks


def test_failed_count_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(counts, "count_quintic_fourplanes", lambda: 1)
    assert cli.run(["count", "--preset", "quintic-4planes"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"name": "complex count = QUINTIC_FOURPLANES",
                       "status": "fail"}]


def test_count_route_disagreement_exits_2(monkeypatch, capsys):
    # route b reads the pushforward constant; 26 in place of 27 must show
    # as the one failed check, not as an exception
    monkeypatch.setattr(counts, "grassmann_bundle_pushforward",
                        lambda sub, full, g: 26 * g.ring.one())
    assert cli.run(["count", "--preset", "flag-3-5"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == [
        "complex routes a and b agree"
    ]


@pytest.mark.parametrize("name", ["FLAGS_REAL_PRIMARY", "FLAGS_REAL_DIAGNOSTIC"])
def test_wrong_real_flag_constant_exits_2(monkeypatch, capsys, name):
    monkeypatch.setattr(counts, name, 1)
    assert cli.run(["count", "--preset", "flag-3-5"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    key = name[len("FLAGS_"):].lower()
    assert [c["name"] for c in checks if c["status"] == "fail"] == [f"{key} = {name}"]


def test_count_output_is_deterministic():
    argv = ("--format", "json", "count", "--preset", "quintic-4planes")
    first, second = run_module(*argv), run_module(*argv)
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"] == {
        "complex": counts.QUINTIC_FOURPLANES
    }


def test_euler_checks_the_cauchy_route(capsys):
    assert cli.run(["--format", "json", "euler", "--expr", "sym^5(D1 + D2)"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"].split(":")[0] for c in checks] == [
        "Sym^4(D1) (x) Sym^1(D2)",
        "Sym^3(D1) (x) Sym^2(D2)",
        "Sym^2(D1) (x) Sym^3(D2)",
        "Sym^1(D1) (x) Sym^4(D2)",
    ]
    assert all(c["status"] == "pass" for c in checks)


def test_euler_refuses_large_cauchy_boxes(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("Euler class computed for a refused expression")

    with monkeypatch.context() as patch:
        patch.setattr(charclass, "euler_of_expression", no_work)
        assert cli.run(["euler", "--expr", "sym^15(D1)*sym^15(D2)"]) == 1
        err = capsys.readouterr().err
        assert "12870" in err and str(cli.EULER_BOX_LIMIT) in err
    assert cli.run(["euler", "--expr", "sym^5(D1 + D2)"]) == 0


def test_euler_refuses_a_coefficient_too_long_to_print(monkeypatch, capsys):
    # 3001!! has more digits than the interpreter prints; 2801!! does not
    limit = str(sys.get_int_max_str_digits())
    for fmt in ("text", "json"):
        assert cli.run(["--format", fmt, "euler", "--expr", "sym^3001(D1)"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and limit in err
        assert cli.run(["--format", fmt, "euler", "--expr", "sym^2801(D1)"]) == 0
        capsys.readouterr()
    # e(Sym^5(D1)) = 15 a^3: refused under a 1-digit limit, printed under
    # a 2-digit limit and under 0, which means no limit
    for digits, code in [(1, 1), (2, 0), (0, 0)]:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits)
        assert cli.run(["euler", "--expr", "sym^5(D1)"]) == code, digits
        out, err = capsys.readouterr()
        assert ("15" in out) == (code == 0)


def run_bounded(*args):
    """run_module under a 1 GB address-space limit and a 10 s timeout, so
    an expression that is not refused up front fails fast."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "flagcw", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=10, preexec_fn=limit,
    )


def test_euler_refuses_a_huge_double_factorial_up_front():
    # (10^10 - 1)!! is never computed: the product of its first factors
    # already passes the digit limit
    proc = run_bounded("euler", "--expr", "sym^9999999999(D1)")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: the Euler class has a coefficient")


def test_euler_refuses_a_huge_sym_tensor_by_its_box():
    # binomial(5000000001, 5000000000) takes one step, not 5 * 10^9
    proc = run_bounded("euler", "--expr", "sym^9999999999(D1) * D2")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: expression sums over 5000000001 partitions in its Cauchy "
        f"boxes, above the limit {cli.EULER_BOX_LIMIT}\n")


def test_euler_refuses_a_huge_sym_of_a_sum_before_building_its_atoms():
    # the box count stops at the first tensor factor, Sym^99999998(D1) (x)
    # Sym^1(D2), and says that more factors are left
    proc = run_bounded("euler", "--expr", "sym^99999999(D1 + D2)")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: expression sums over more than 50000000 partitions in its "
        f"Cauchy boxes, above the limit {cli.EULER_BOX_LIMIT}\n")


def test_failed_euler_check_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(charclass, "euler_tensor_cauchy", lambda *args: 0)
    assert cli.run(["--format", "json", "euler", "--expr", "D1 * D2"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{
        "name": "Sym^1(D1) (x) Sym^1(D2): Cauchy determinant = "
                "euler_sym_tensor(1, 1)",
        "status": "fail",
    }]


def answer_hash(result: dict) -> str:
    """sha256 of the canonical JSON of a result, free-text notes left out
    (the rule of bench/jobs.py)."""
    body = {k: v for k, v in result.items() if k != "notes"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# The answer hash of each command's JSON ``result``.  The basis labels of
# wring 2,2,4 print its half shape (1,1,2) on that ring's own standard
# monomials; every other hash is also the one before that ring had them.
GOLDEN_COMMANDS = [
    ("count", "--preset", "cubic-lines",
     "584a438887ba00b6d1f4a52b0e580e21ff2545edb4c0c81a8fdf09fa41f2d7f4"),
    ("count", "--preset", "quintic-4planes",
     "ac9e84f6a09efdf7364d72ecbf4cedc4959396f9616d8a9594171cf7f2df68cf"),
    ("count", "--preset", "flag-3-5",
     "b5ecbe78984d01bbc0ec8feb8c5d4f1e0bb5c2190863d36b42cff48b6475b7b3"),
    ("poincare", "--theory", "torsion", "--shape", "3,3,1",
     "74c9a820524c51f3f43231559b99e12d1834438838a1cfe0c11433c5eaac5372"),
    ("poincare", "--theory", "torsion", "--shape", "1,1,1,1,2",
     "f0ce79eee08fa3e8eef0e24fed84ac064643759e3e943ccb864231df72454b76"),
    ("poincare", "--theory", "torsion", "--shape", "1,1,2,2",
     "0b80a3b624e06525112585175d394551c020769aa5d3afa8166650b72f429da6"),
    ("annihilator", "--shape", "2,2,2,2,2", "--block", "1",
     "82af0b824fe08ff4a6d902decf0076048f22caba30f1c3af367bc6cb901b06c9"),
    ("annihilator", "--shape", "4,4,4", "--block", "1",
     "91afefc73e72aeaddcc04196d74a49bddea35db3a4864effb9144c5c408e5fdc"),
    ("annihilator", "--shape", "2,6,4", "--block", "2",
     "dbe98433de4b5ad434e4f9b9a0b03c757edcb44d3aa4deeea4b8e84af017ea04"),
    ("verify", "--suite", "annihilator",
     "c3d6dd94c60e1437e52e42cf2c7fc2535617b19552d0236c3328b92d2ed502ef"),
    ("verify", "--suite", "piqp",
     "d457d591d426389e89a23657b032e447ccee136c5c02a5c38ad4d98c64c27064"),
    ("verify", "--suite", "sq2",
     "e16515024e6828cb594101acd6f17875ca3a907728ab9a87b2b0776edb537ca1"),
    ("verify", "--suite", "poincare",
     "af071939267d521ca51d0489050627ab22eb559a0202c2d412cc1994ee2e16d3"),
    ("wring", "--shape", "2,2,4", "--degree-max", "20",
     "b375885a009919c14d1f503553c20d6a07cef62ace993689aa62116514c88605"),
    ("wring", "--shape", "1,2,3", "--degree-max", "20",
     "73b8f91b6ab9dfe09b73443aee3fc67ca60769c850dbdedba03faf7f00cfee54"),
    ("wring", "--shape", "1,2,2", "--degree-max", "20", "--twist", "1",
     "bff7aa07848a0c359c861c89e5d59c03699cee64efa6f519c4c2114a03dee6e2"),
    ("wring", "--shape", "1,4", "--degree-max", "20",
     "3de23426d646b2a1b098bd1d9e8efeefb3b84dd4b022d26f56065e166c3fa817"),
    ("poincare", "--theory", "w", "--shape", "2,2,4",
     "ed777164a335bb7f6538206c59dc1bf7b0ab3936d20260aae44127f0f2795e0b"),
    ("poincare", "--theory", "w", "--shape", "1,2",
     "8909036692608a6bb99bcb5b782e588b90effc9d8ca8aeb7a07bd3ebe24adcd9"),
    ("poincare", "--theory", "w", "--shape", "1,2,2", "--twist", "2",
     "b5e5f6852d7379964835772b931505b2e09ca71564bea1ecce5f0f23b93e05d4"),
    ("poincare", "--theory", "w", "--shape", "1,4",
     "8909036692608a6bb99bcb5b782e588b90effc9d8ca8aeb7a07bd3ebe24adcd9"),
    ("poincare", "--theory", "w", "--shape", "1,2,3",
     "5b2fb885850443fdf0556e091b9ed7750a2ff3d380280cd5ff2bc31ca82a206a"),
    ("poincare", "--theory", "ch2", "--shape", "2,2,4",
     "2cab798bd67689830c2fa971484b680a2e1d5dea6a6ce5f1ecc6fb301b038f0e"),
    ("euler", "--expr", "sym^5(D1 + D2)",
     "50c9aab5555f465436fcaa357bbe297bb3c66c1d0631eb37afbfb190584af0c7"),
]

# torsion_poincare_from_sq2 on Fl(6), by twist: the library job that
# bench/child.py runs, since the CLI prints the closed form for Fl(N)
GOLDEN_FL6_SQ2 = [
    ("0", "30942afce60ea8ba7f929f0d6add98cb486f1488146b8ad07371ef3ee6415aee"),
    ("2,3,4,6", "2e56936255ccb2ba9d698fafa0cc51938d7541002e3956358d77d8f2c4b1c882"),
    ("2,3,4,5,6", "2e56936255ccb2ba9d698fafa0cc51938d7541002e3956358d77d8f2c4b1c882"),
]


def test_golden_answer_hashes(capsys):
    for *argv, expected in GOLDEN_COMMANDS:
        assert cli.run(["--format", "json", *argv]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert answer_hash(payload["result"]) == expected, argv
    for twist, expected in GOLDEN_FL6_SQ2:
        blocks = [] if twist == "0" else [int(b) for b in twist.split(",")]
        coefficients = steenrod.torsion_poincare_from_sq2(
            FlagShape([1] * 6), TwistClass.from_blocks(6, blocks)
        )
        assert answer_hash({"coefficients": coefficients}) == expected, twist


# sha256 of the whole stdout of a run, text format then JSON, and the exit
# code: this pins the text lines, the checks and the exit-code rule, which
# the answer hashes above leave out.  count prints the same JSON in either
# format, and a refused command prints nothing on stdout.
PINNED_OUTPUT = [
    (("count", "--preset", "cubic-lines"), 0,
     "1a8a7393c9d1c6024ba4ef86838ffe24926ecb7128c9447e3a94ad3e27b0c8cb",
     "1a8a7393c9d1c6024ba4ef86838ffe24926ecb7128c9447e3a94ad3e27b0c8cb"),
    (("verify", "--suite", "poincare"), 0,
     "e756b4f158ecf80809a226340bb6c8f7aabcabaf41e813ac1c8535e20f868934",
     "d7eec840f90c91c49d65c7ebccfcd5cdd30e80ab0890f828304fe2f3d06d91f8"),
    (("annihilator", "--shape", "2,2", "--block", "1"), 0,
     "fe8c532b2cff5bab044b3a69e60cf60dca420e5266804a836991cdaebc458095",
     "c2b5db1e781c9765f99ab2f7995d7265e3f2db137bda44b9cad955df698bc586"),
    (("wring", "--shape", "1,2,2", "--degree-max", "12", "--twist", "1"), 0,
     "d19a9251e9947cdfbf36d5d17a5f73722658db678b4f6c39a300a169c6eacecc",
     "3374d4fc689960a9a00147c4a85218c6dd5fc92b3c94cf72f1bf89345e99c785"),
    # degree 44 reads the record (I = {1, 4}, Chow degree 9), whose Smith
    # form needs a pivot of absolute value 2
    (("wring", "--shape", "4,2,2,4", "--degree-max", "44", "--twist", "2,3"), 0,
     "a269ef74a4404e51566d6905fa1a9d9b131a7e494068b1960aad5874c326f717",
     "1ef6731cef810b5c93e97dbb8b34b947ae1085f3dc9d02f7e194f107db68fc9c"),
    (("euler", "--expr", "sym^5(D1 + D2)"), 0,
     "fff781bba1cd8c815088467484c2f760266b4d5a51785943d8cf78e8f726a4e3",
     "61d125e344d58ce7a4a82d4e6c2615c3138d7b3e4450ec49e74b6767df78fac1"),
    (("poincare", "--theory", "chow", "--shape", "2,2,4"), 0,
     "f33e817e2034060e2caba728c187d2ce989dfe2ca05e2bb600363da1ed7d9d48",
     "0295b6038b4d328e73d0356d6c006a4cdb60e8485f362391efb3982da62c3088"),
    (("poincare", "--theory", "torsion", "--shape", "1,1,2"), 0,
     "404f2a525d02b37c2ffb4f82468b8398a51eb8b75f3ad1ba4cc033d491b08f92",
     "7bd32a961e6218ef6dea865bba2c91eb3f34431d5a48391047868d10d00f3abd"),
    (("annihilator", "--shape", "1,2", "--block", "1"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # every block a line: W_D is built on the empty half shape, Fl(0);
    # ranks 1,0,0,1,0 with the one label R1, and 1 + t^3, checked in the
    # JSON against the closed form P_0(Fl(3))
    (("wring", "--shape", "1,1,1", "--degree-max", "4"), 0,
     "ffb1041bde7f10c0b79b2f025924423e0df0250ccb2012472b8f464528733423",
     "110c9f0edc9aa724fbf4ef48eb409f9b1dc23a202f014c9b4413ec31bf69b830"),
    (("poincare", "--theory", "w", "--shape", "1,1,1"), 0,
     "5dcb5a3db144a8addde1cc6282abd7d0b6adccfda72d08ce671f5d6c35116c56",
     "c5a3a6667c030d28446978797c3c017831c4f4c098614d5450736e59306cb846"),
]


def test_pinned_output(capsys):
    for argv, code, *hashes in PINNED_OUTPUT:
        for fmt, expected in zip(("text", "json"), hashes):
            assert cli.run(["--format", fmt, *argv]) == code, (fmt, argv)
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == expected, (fmt, argv)


def test_torsion_refuses_a_shape_above_the_rank_limit(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("torsion computed for a refused shape")

    monkeypatch.setattr(steenrod, "torsion_poincare_from_sq2", no_work)
    assert cli.run(["poincare", "--shape", "5,5,5", "--theory", "torsion"]) == 1
    err = capsys.readouterr().err
    assert "756756" in err and str(cli.TORSION_RANK_LIMIT) in err
    assert cli.multinomial(FlagShape([4, 4, 4])) == 34650 <= cli.TORSION_RANK_LIMIT
    # complete flags print the closed form and need no limit
    assert cli.run(["poincare", "--shape", "1,1,1,1,1,1,1,1,1",
                    "--theory", "torsion"]) == 0


def test_partial_torsion_checks_bockstein_against_w(monkeypatch, capsys):
    # the text output is the polynomial alone; the check is in the JSON,
    # and a W Poincare polynomial that disagrees fails it with exit code 2
    argv = ["--format", "json", "poincare", "--shape", "1,2,2", "--twist", "2",
            "--theory", "torsion"]
    assert cli.run(argv) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check == {"name": "Bockstein = W Poincare (P_d - T_{d+1} - T_d = W_d)",
                     "status": "pass"}
    monkeypatch.setattr(wdring, "wd_poincare", lambda shape, twist: [1])
    assert cli.run(argv) == 2
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["status"] == "fail"


def test_complete_flag_poincare_checks_its_closed_forms(capsys):
    # torsion: the closed form obeys Sq^2 duality for every twist; W: the
    # slot-table series is P_0(Fl(N)) for the trivial twist
    for N in range(1, 8):
        shape = ",".join(["1"] * N)
        for twist in flagchow.all_twist_classes(N):
            assert cli.run(["--format", "json", "poincare", "--shape", shape,
                            "--theory", "torsion", "--twist", str(twist)]) == 0
            (check,) = json.loads(capsys.readouterr().out)["checks"]
            assert check == {"name": "Sq^2 duality r_d = r_{dim-d-1} of the "
                                     "closed form", "status": "pass"}, (N, twist)
        assert cli.run(["--format", "json", "poincare", "--shape", shape,
                        "--theory", "w"]) == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check == {"name": "slot-table series = closed form P_0(Fl(N))",
                         "status": "pass"}, N


def test_complete_flag_poincare_fails_a_wrong_closed_form(monkeypatch, capsys):
    # T = t * (r_0, r_1, r_2) on Fl(3): (1, 2, 0) breaks r_0 = r_2
    monkeypatch.setattr(steenrod, "torsion_poincare_closed",
                        lambda N, twist: [0, 1, 2])
    assert cli.run(["--format", "json", "poincare", "--shape", "1,1,1",
                    "--theory", "torsion"]) == 2
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "fail"
    monkeypatch.setattr(steenrod, "w_poincare_closed", lambda N: [1])
    assert cli.run(["--format", "json", "poincare", "--shape", "1,1,1",
                    "--theory", "w"]) == 2
    assert json.loads(capsys.readouterr().out)["checks"][0]["status"] == "fail"


def test_annihilator_refuses_a_shape_above_the_cost_limit(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("annihilator computed for a refused shape")

    monkeypatch.setattr(wdring, "ann_euler", no_work)
    for shape, cost in [("4,4,4,4", 1453467840), ("2,2,2,2,2,2,2", 128406094848)]:
        assert cli.run(["annihilator", "--shape", shape, "--block", "1"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: annihilator of shape {shape} has cost estimate {cost} "
            "(2^|E| * sum_d rank(A^d)^3), above the limit "
            f"{cli.ANNIHILATOR_COST_LIMIT}\n"))


def test_annihilator_cost_admits_the_measured_and_used_shapes():
    def cost(parts):
        return cli.annihilator_cost(FlagShape(parts))

    assert cost((2, 2, 2, 2, 2)) == 32 * 34986
    assert cost((2, 2)) == 4 * (1 + 1)
    # the last admitted rows of the timing table, then the refused ones
    assert cost((6, 6, 6)) < cost((2, 2, 2, 2, 2, 2)) <= cli.ANNIHILATOR_COST_LIMIT
    assert cli.ANNIHILATOR_COST_LIMIT < cost((4, 4, 4, 4)) < cost((2,) * 7)
    # the shapes of the benchmark and of verify, and every composition of
    # N <= 8, which the annihilator sweep of test_wdring.py covers
    compositions = [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, N)))
        for N in range(1, 9)
        for k in range(N)
        for cuts in itertools.combinations(range(1, N), k)
    ]
    assert len(compositions) == 255
    for parts in [(4, 4, 4), (2, 6, 4), (2, 2, 2, 2, 2), *compositions]:
        assert cost(parts) <= cli.ANNIHILATOR_COST_LIMIT, parts
