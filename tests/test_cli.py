"""Command-line surface: grammars, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from click.testing import CliRunner

from univoque import algebraic
from univoque.cli import main, parse_base
from univoque.words import EPSequence


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_expand_sequence_base_quasi():
    r = run("expand", "seq:(110)", "--mode", "quasi", "--depth", "6")
    assert r.exit_code == 0
    assert "digits: 110110" in r.output


def test_expand_integer_base_greedy():
    r = run("expand", "2", "--mode", "greedy", "--depth", "3")
    assert r.exit_code == 0
    assert "digits: 200" in r.output


def test_expand_quasi_at_one_is_domain_error():
    r = run("expand", "1", "--mode", "quasi")
    assert r.exit_code == 2


def test_expand_polynomial_base():
    r = run("expand", "poly:-1,-1,1 in (1,2)", "--depth", "4")
    assert r.exit_code == 0
    assert "digits: 1100" in r.output


def test_expand_parse_error():
    assert run("expand", "not-a-base", "--depth", "3").exit_code == 2
    assert run("expand", "poly:junk", "--depth", "3").exit_code == 2


def test_check_closure_pass():
    r = run("check", "(110)", "--which", "closure")
    assert r.exit_code == 0


def test_check_univoque_fail_with_witness():
    r = run("check", "(110)", "--which", "univoque", "--json")
    assert r.exit_code == 1
    payload = json.loads(r.output)
    assert payload["pass"] is False
    assert any(w["condition"] == 21 and w["j"] == 3
               for w in payload["witnesses"])


def test_check_univoque_pass_on_constructed_sequence():
    r = run("check", "110110(11010010)", "--which", "univoque")
    assert r.exit_code == 0


def test_check_parse_error():
    assert run("check", "abc", "--which", "closure").exit_code == 2
    assert run("check", "1101", "--which", "closure").exit_code == 2


def test_finite_sequences_get_the_one_period_message():
    want = run("check", "1101", "--which", "closure")
    assert want.exit_code == 2
    assert want.stderr.splitlines() == [
        "error: an infinite sequence is required; add an explicit period, "
        "e.g. '111(0)'"]
    for args in (("solve", "1101"), ("expand", "seq:1101")):
        r = run(*args)
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr == want.stderr


def test_approximate_records_json():
    r = run("approximate", "110", "--from", "2", "--to", "4", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    records = payload["records"]
    assert len(records) == 3
    assert all(rec["certificate_verdict"] == "univoque" for rec in records)
    from fractions import Fraction
    gaps = [Fraction(rec["gap"]) for rec in records]
    assert gaps[0] > gaps[1] > gaps[2]


def test_approximate_bad_target():
    r = run("approximate", "10")
    assert r.exit_code == 1


def test_approximate_n_too_small():
    r = run("approximate", "110", "--from", "1", "--to", "1")
    assert r.exit_code == 2
    assert "minimal N = 2" in r.stderr


def test_approximate_default_n_is_minimal():
    r = run("approximate", "1110", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["from"] == 2 and payload["to"] == 2
    assert payload["records"][0]["k"] == 4
    assert payload["records"][0]["m"] == 5


def test_kl_enclosure():
    r = run("kl", "--eps", "1/1000", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    lo, hi = payload["decimal"]
    assert lo < 1.7872316501 < hi and hi - lo <= 1e-3 + 1e-12
    assert round(lo, 2) == round(hi, 2) == 1.79


def _fresh_cli(*argv):
    """The completed `python -m univoque.cli ARGV` process, text mode."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "univoque.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_kl_at_eps_1e_3000_runs_in_a_fresh_process_within_3_s():
    t = time.monotonic()
    proc = _fresh_cli("kl", "--eps", "1e-3000", "--json")
    assert time.monotonic() - t < 3
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["prefix_length"] == 16384
    lo, hi = (Fraction(x) for x in payload["interval"])
    assert 0 < hi - lo <= Fraction(1, 10 ** 3000)


def test_negative_depth_is_a_usage_error():
    for depth, least, args in (
            ("-3", 0, ("expand", "3/2")),
            ("-1", 0, ("expand", "seq:(110)", "--mode", "quasi")),
            ("-2", 1, ("oracle", "3/2", "--counts"))):
        r = run(*args, "--depth", depth, "--json")
        assert r.exit_code == 2
        assert r.output.strip().splitlines() == \
            ["error: depth must be >= %d, got %s" % (least, depth)]


def test_usage_errors_print_one_line_in_a_fresh_process():
    """click's usage errors span 4-9 lines of usage text and choices; the
    CLI prints each as one line and exits 2."""
    for argv, msg in (
            (("check", "110"), "Missing option '--which'. Choose from: "
             "univoque, closure, greedy, quasi"),
            (("expand", "2", "--depth", "abc"),
             "Invalid value for '--depth': 'abc' is not a valid integer."),
            (("oracle", "2", "--bogus"),
             "No such option '--bogus'. Did you mean '--counts'?"),
            (("nosuch",), "No such command 'nosuch'."),
            (("expand", "-1"), "No such option '-1'."),
            (("kl", "--eps"), "Option '--eps' requires an argument."),
            (("expand",), "Missing argument 'BASE'."),
            # raised while the group parses its own options
            (("--bogus",), "No such option '--bogus'."),
            (("--json", "expand", "2"), "No such option '--json'.")):
        proc = _fresh_cli(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: " + msg]


def test_a_bare_command_prints_its_help():
    proc = _fresh_cli()
    assert proc.returncode in (0, 2)
    assert "Usage:" in proc.stdout + proc.stderr
    assert "Commands:" in proc.stdout + proc.stderr
    proc = _fresh_cli("--help")
    assert proc.returncode == 0
    assert "Usage:" in proc.stdout and "Commands:" in proc.stdout


def test_oracle_depth_zero_is_a_usage_error():
    # zero checked levels would certify uniqueness vacuously
    for args in (("3/2", "--counts"), ("seq:(110)",)):
        r = run("oracle", *args, "--depth", "0", "--json")
        assert r.exit_code == 2
        assert r.output.strip().splitlines() == \
            ["error: depth must be >= 1, got 0"]


def test_approximate_empty_n_range_is_a_usage_error():
    r = run("approximate", "110", "--from", "2", "--to", "1", "--json")
    assert r.exit_code == 2
    assert r.output.strip().splitlines() == ["error: empty N range"]
    # a target outside the closure stays a semantic failure
    r = run("approximate", "10", "--from", "2", "--to", "3")
    assert r.exit_code == 1


def test_kl_eps_beyond_the_iteration_cap_fails_at_once():
    t = time.perf_counter()
    r = run("kl", "--eps", "1e-4000", "--json")
    assert time.perf_counter() - t < 1
    assert r.exit_code == 2
    assert r.output.strip().splitlines() == \
        ["error: eps needs 13287 bisection steps, above max_iter = 10000"]


def test_huge_decimal_exponents_are_refused_at_once():
    """Fraction would first expand 10^99999999 to a full integer; an
    exponent of 4,300 is still read."""
    for args, msg in (
            (("kl", "--eps", "1e-99999999"),
             "invalid rational: '1e-99999999'"),
            (("expand", "1e99999999"), "invalid rational: '1e99999999'"),
            (("kl", "--eps", "1e-4300"),
             "eps needs 14284 bisection steps, above max_iter = 10000")):
        t = time.perf_counter()
        r = run(*args)
        assert time.perf_counter() - t < 1
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == ["error: " + msg]


def test_rational_bases_above_4300_integer_digits_are_refused_at_once():
    """The greedy digits of such a base could not be printed; its floor
    would first cost one sign test per bit."""
    for args, base in ((("expand", "1e4300", "--depth", "2"), "1e4300"),
                       (("expand", "99999e4296", "--depth", "1"),
                        "99999e4296"),
                       (("oracle", "1e4300", "--depth", "1"), "1e4300")):
        t = time.perf_counter()
        r = run(*args)
        assert time.perf_counter() - t < 0.5
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            "error: base %r has an integer part of more than 4300 digits"
            % base]
    assert parse_base("1e4299") == 10 ** 4299


def test_oracle_not_unique_and_unique():
    r = run("oracle", "seq:(110)", "--depth", "6", "--counts")
    assert r.exit_code == 1
    r = run("oracle", "poly:2,-3,1 in (3/2,5/2)", "--depth", "3", "--counts")
    assert r.exit_code == 1
    r = run("oracle", "seq:110110(11010010)", "--depth", "15", "--counts")
    assert r.exit_code == 0


def test_solve_outputs_polynomial_and_interval():
    r = run("solve", "(110)", "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["polynomial"] == [-1, -1, -1, 1]
    lo, hi = payload["decimal"]
    assert lo < 1.8392868 < hi


def test_output_is_deterministic():
    a = run("approximate", "110", "--from", "2", "--to", "3", "--json")
    b = run("approximate", "110", "--from", "2", "--to", "3", "--json")
    assert a.output == b.output
    assert run("kl", "--eps", "1e-6", "--json").output == \
        run("kl", "--eps", "1e-6", "--json").output


def test_parse_base_grammar():
    from fractions import Fraction
    assert parse_base("3/2") == Fraction(3, 2)
    assert parse_base("1.787") == Fraction(1787, 1000)
    assert isinstance(parse_base("seq:(110)"), EPSequence)
    a = parse_base("poly:-1,-1,1 in (1,2)")
    assert a.poly == (-1, -1, 1)


def test_expand_at_a_huge_algebraic_digit_cap_bisects_the_digit():
    # the digit is found with O(log cap) sign tests, not one per value
    t = time.perf_counter()
    r = run("expand", "poly:-100000000,1 in (99999999,100000001)",
            "--depth", "2", "--json")
    assert time.perf_counter() - t < 1
    assert r.exit_code == 0
    want = json.loads(run("expand", "100000000", "--depth", "2",
                          "--json").output)
    assert json.loads(r.output)["digits"] == want["digits"] == \
        "[100000000,0]"


def test_oracle_refuses_more_candidate_digits_than_its_level_cap():
    t = time.perf_counter()
    r = run("oracle", "100000000", "--depth", "1", "--counts", "--json")
    assert time.perf_counter() - t < 1
    assert r.exit_code == 2
    assert r.output.strip().splitlines() == [
        "error: each prefix has 100000001 candidate digits, above the "
        "level cap 100000"]


def test_approximate_defaults_to_the_minimal_n():
    payload = json.loads(run("approximate", "110", "--json").output)
    assert payload["from"] == payload["to"] == 2
    assert [r["N"] for r in payload["records"]] == [2]


def test_rational_bases_run_as_degree_one_roots():
    # a cap of 10^8 costs O(log cap) constant-sign tests per digit
    for mode, digits in (("greedy", [100000000] + [0] * 29),
                         ("quasi", [99999999] * 30)):
        t = time.perf_counter()
        r = run("expand", "100000000", "--mode", mode, "--depth", "30",
                "--json")
        assert time.perf_counter() - t < 1
        assert r.exit_code == 0
        assert json.loads(r.output)["digits"] == \
            "[%s]" % ",".join(map(str, digits))
    assert json.loads(run("expand", "1", "--depth", "5", "--json").output
                      )["digits"] == "10000"
    for base in ("1/2", "-3/2"):
        r = run("expand", "--json", "--", base)
        assert r.exit_code == 2
        assert r.output.strip().splitlines() == \
            ["error: greedy expansion requires q >= 1"]


def test_rational_bases_never_refine_an_interval():
    # the cap is found by the digit bisection, whose sign tests at a
    # rational base read a constant
    algebraic._REFINED.clear()
    assert run("expand", "3/2", "--depth", "30").exit_code == 0
    assert run("expand", "151/100", "--mode", "quasi",
               "--depth", "30").exit_code == 0
    assert run("oracle", "151/100", "--depth", "12",
               "--counts").exit_code == 1
    assert not algebraic._REFINED


def test_max_work_must_be_a_positive_integer():
    args = ["oracle", "seq:(110)", "--depth", "6", "--counts", "--json"]
    for raw in ("abc", "0", "-5"):
        r = CliRunner().invoke(main, args, env={"UVQ_MAX_WORK": raw})
        assert r.exit_code == 2
        assert r.output.strip().splitlines() == [
            "error: UVQ_MAX_WORK must be a positive integer, got %r" % raw]
    # a small cap cuts a level; one above the default clamps to it
    full = json.loads(run(*args).output)
    assert full["exhaustive"] and max(full["counts"]) > 2
    small = CliRunner().invoke(main, args, env={"UVQ_MAX_WORK": "2"})
    assert json.loads(small.output)["exhaustive"] is False
    big = CliRunner().invoke(main, args, env={"UVQ_MAX_WORK": "10000000"})
    assert json.loads(big.output) == full


def test_max_work_cuts_a_listing_inside_a_run_of_equal_residuals():
    # at the golden ratio, a cap of 6 falls inside a run of 3 prefixes with
    # one residual at level 6 and inside a run of 2 at level 7; the cut
    # keeps the first 6 prefixes of each level in lexicographic order
    r = CliRunner().invoke(main, ["oracle", "seq:(10)", "--depth", "7"],
                           env={"UVQ_MAX_WORK": "6"})
    assert r.exit_code == 1
    assert r.stdout == (
        "base: seq:(10)\ndepth: 7\ncounts: [2, 3, 4, 5, 6, 6, 6]\n"
        "exhaustive: False\nunique_prefix: False\n"
        "levels: [[0, 1], [01, 10, 11], [011, 100, 101, 110], "
        "[0111, 1001, 1010, 1011, 1100], "
        "[01111, 10011, 10100, 10101, 10110, 11000], "
        "[011111, 100111, 101001, 101010, 101011, 101100], "
        "[0111111, 1001111, 1010011, 1010100, 1010101, 1010110]]\n")
