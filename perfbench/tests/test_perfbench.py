"""Tests of the benchmark itself: its oracle, its inputs and its workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from torusdescent.arith import Place, hilbert_symbol  # noqa: E402
from torusdescent.surface import compute_s_bad, make_spec  # noqa: E402


def program_spec(raw):
    return make_spec(list(raw.s0), raw.a, raw.b, raw.factor_dict(), list(raw.part_a))


def family_certificate(member, solve_each_fiber):
    case = next(c for c in inputs.family_cases(0)
                if c.member == member and c.solve_each_fiber == solve_each_fiber)
    family = workloads.Family(0)
    family.cases = [case]
    mods = run.import_program()
    spec, point, bounds = family.prepare(mods)[0]
    cert = mods["descent"].descend(spec, point, bounds)
    return case.spec, json.loads(workloads.canonical(cert.as_dict()))


@pytest.fixture(scope="module")
def found_cert():
    spec, cert = family_certificate(0, True)
    assert cert["outcome"] == "point_found"
    return spec, cert


@pytest.fixture(scope="module")
def reduced_cert():
    spec, cert = family_certificate(16, False)
    assert any(e["step"] == "reduce_dual_selmer" for e in cert["trace"])
    return spec, cert


# ---------------------------------------------------------------------------
# the certificate checker accepts real certificates and rejects tampered ones
# ---------------------------------------------------------------------------


def test_checker_accepts_program_certificates(found_cert, reduced_cert):
    for spec, cert in (found_cert, reduced_cert):
        assert oracle.check_certificate(spec, cert) == []


def test_checker_rejects_perturbed_x(found_cert):
    spec, cert = found_cert
    bad = copy.deepcopy(cert)
    bad["data"]["x"] = str(Fraction(bad["data"]["x"]) + 1)
    assert any("not on the surface" in p for p in oracle.check_certificate(spec, bad))


def test_checker_rejects_composite_witness(found_cert):
    spec, cert = found_cert
    bad = copy.deepcopy(cert)
    entry = next(e for e in bad["trace"] if e["step"] == "admissible_point")
    i = next(iter(entry["witnesses"]))
    entry["witnesses"][i] = str(int(entry["witnesses"][i]) * 3)
    assert any("is not prime" in p for p in oracle.check_certificate(spec, bad))


def test_checker_rejects_reduction_prime_failing_legendre(reduced_cert):
    spec, cert = reduced_cert
    bad = copy.deepcopy(cert)
    entry = next(e for e in bad["trace"] if e["step"] == "reduce_dual_selmer")
    # the next prime after w that breaks one of the Legendre conditions
    w = entry["w"] + 2
    while not oracle.isprime(w) or not oracle._check_prime_conditions(
            [(spec.a * oracle._d_value(spec, entry["i_x"], spec.part_a), 1)], w, set(), "probe"):
        w += 2
    entry["w"] = w
    assert any("!= 1" in p or "!= -1" in p for p in oracle.check_certificate(spec, bad))


def test_checker_rejects_wrong_condition_d_verdict(found_cert):
    spec, cert = found_cert
    bad = copy.deepcopy(cert)
    bad["trace"][0]["condition_d_holds"] = not bad["trace"][0]["condition_d_holds"]
    assert oracle.check_certificate(spec, bad)


# ---------------------------------------------------------------------------
# the oracle's arithmetic against the repository's brute-force oracles
# ---------------------------------------------------------------------------


def small_specs(count, seed=5):
    rng = random.Random(seed)
    return [inputs._cli_spec(rng, rng.randint(1, 3), rng.choice(inputs.CLI_S0))
            for _ in range(count)]


def test_f2_condition_d_matches_bruteforce():
    from oracles import g_d_bruteforce

    specs = small_specs(40) + [inputs.RawSpec(*m[:5]) for m in inputs.FAMILY]
    failing = 0
    for raw in specs:
        spec = program_spec(raw)
        g_d, g_dual = oracle.g_d_groups(raw)
        as_pairs = lambda xs: {(x.c.value(), frozenset(x.poly)) for x in xs}  # noqa: E731
        assert g_d == as_pairs(g_d_bruteforce(spec, dual=False)), raw
        assert g_dual == as_pairs(g_d_bruteforce(spec, dual=True)), raw
        failing += not oracle.condition_d(raw)["holds"]
    assert failing > 0


@pytest.mark.parametrize("kind", ["g_d_fails", "dual_fails"])
def test_wide_j_constructions_fail_condition_d(kind):
    rng = random.Random(7)
    make = {"g_d_fails": inputs._wide_g_d_fails, "dual_fails": inputs._wide_dual_fails}[kind]
    for n in (2, 3):
        raw = make(rng, n)
        assert inputs.is_valid(raw)
        assert not oracle.condition_d(raw)["holds"]


def test_hilbert_symbol_matches_program():
    rng = random.Random(11)
    for _ in range(400):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.randint(1, 30))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.randint(1, 30))
        for p in (None, 2, 3, 5, 7, 13):
            place = Place.real() if p is None else Place.finite(p)
            assert oracle.hilbert(a, b, p) == hilbert_symbol(a, b, place), (a, b, p)


def test_bad_places_match_program():
    for raw in small_specs(60) + [inputs.RawSpec(*m[:5]) for m in inputs.FAMILY]:
        expected = [v.p for v in compute_s_bad(program_spec(raw))]
        assert inputs.s_bad_primes(raw) == expected
        assert inputs.s_bad_primes(raw, oracle._factor) == expected


# ---------------------------------------------------------------------------
# each workload at a tiny size
# ---------------------------------------------------------------------------


def tiny(name, tmp_path):
    if name == "family":
        return workloads.Family(1)
    if name == "wide-j":
        return workloads.WideJ(1, rows=[(6, 1, 1, 1)])
    return workloads.CliMix(1, str(tmp_path / "cli"), per_cell=1)


@pytest.mark.parametrize("name", ["family", "wide-j", "cli-mix"])
def test_workload_runs_and_checks(name, tmp_path):
    workload = tiny(name, tmp_path)
    rounds, metrics, unscaled = run.measure(workload, 0.0)
    assert run.find_problems(workload, rounds) == []
    assert set(metrics) == {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
    assert set(unscaled) == set(metrics) - {"peak_rss_mb"}
    failed = sum(len(r.failures) for r in rounds)
    attempted = sum(len(r.latencies) for r in rounds)
    assert failed * 10 == attempted * 3 if name == "cli-mix" else failed == 0


def test_cli_mix_trace_counts_repeat(tmp_path):
    counts = []
    for k in range(2):
        workload = workloads.CliMix(1, str(tmp_path / f"cli{k}"), per_cell=1)
        rounds, metrics = run.trace_run(workload)
        assert run.find_problems(workload, rounds) == []
        assert {f"{layer}.self_ms" for layer in spans.MODULES} <= set(metrics)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["arith.valuation.calls"] > 0


def test_oracle_rejects_tampered_cli_output(tmp_path):
    workload = workloads.CliMix(2, str(tmp_path / "cli"), per_cell=1)
    mods = run.import_program()
    first = run.Round(workload.operations(mods, workload.prepare(mods)))
    outputs = first.checkable()
    assert workload.check(outputs) == []
    label_at = {label: k for k, (_, label, _) in enumerate(workload.labels)}
    k = label_at["validate"]
    rc, out, err = json.loads(outputs[k])
    payload = json.loads(out)
    payload["s_bad"] = payload["s_bad"] + ["9973"]
    outputs[k] = json.dumps([rc, json.dumps(payload), err])
    assert workload.check(outputs)


def run_command(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_gives_byte_identical_outputs():
    args = ["--workload", "cli-mix", "--seed", "4", "--seconds", "0", "--trace", "0"]
    first, second = run_command(ROOT, *args), run_command(ROOT, *args)
    assert first.returncode == second.returncode == 0
    digest = [line for line in first.stdout.splitlines() if "output digest" in line]
    assert digest and digest == [l for l in second.stdout.splitlines() if "output digest" in l]
    assert json.loads(first.stdout.splitlines()[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    result = run_command(str(tmp_path), "--workload", "family", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
