"""Command-line surface: grammars, exit codes, deterministic output."""

import json
import time

from click.testing import CliRunner

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


def test_negative_depth_is_a_usage_error():
    for depth, least, args in (
            ("-3", 0, ("expand", "3/2")),
            ("-1", 0, ("expand", "seq:(110)", "--mode", "quasi")),
            ("-2", 1, ("oracle", "3/2", "--counts"))):
        r = run(*args, "--depth", depth, "--json")
        assert r.exit_code == 2
        assert r.output.strip().splitlines() == \
            ["error: depth must be >= %d, got %s" % (least, depth)]


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
