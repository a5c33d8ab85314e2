"""End-to-end tests of the command-line surface: subcommand output,
the JSON interchange schema, and the exit-code contract (0 success,
1 semantic rejection, 2 malformed input)."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_linalg as oracle
from lienil import _intkernel as ik
from lienil import cli
from lienil.chevalley import nilradical
from lienil.exactlin import random_unimodular
from lienil.fingerprint import simple_dimension
from lienil.nilalg import NilpotentAlgebra, change_basis
from lienil.rootsys import SimpleType, all_types, build_root_system


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def heisenberg():
    return NilpotentAlgebra(3, {(0, 1): ((2, F(1)),)})


# ------------------------------------------------------------- file format


def test_payload_round_trip():
    a = nilradical(build_root_system(SimpleType("G", 2)))
    assert cli.algebra_from_payload(cli.algebra_to_payload(a)) == a


def test_payload_survives_json_text():
    a = nilradical(build_root_system(SimpleType("B", 3)))
    text = json.dumps(cli.algebra_to_payload(a, metadata={"type": "B3"}))
    assert cli.algebra_from_payload(json.loads(text)) == a


def test_payload_fractions_in_lowest_terms():
    a = NilpotentAlgebra(3, {(0, 1): ((2, F(-6, 4)),)})
    payload = cli.algebra_to_payload(a)
    assert payload["brackets"] == [
        {"i": 0, "j": 1, "terms": [{"k": 2, "num": -3, "den": 2}]}
    ]


@pytest.mark.parametrize(
    "payload",
    [
        "not even an object",
        {"dim": 3, "brackets": []},
        {"format_version": 2, "dim": 3, "brackets": []},
        {"format_version": 1, "dim": 3, "brackets": [], "extra": 1},
        {"format_version": 1, "dim": 0, "brackets": []},
        {"format_version": 1, "dim": 3.0, "brackets": []},
        {"format_version": 1, "dim": 3, "brackets": {}},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 1, "j": 0, "terms": [{"k": 2, "num": 1, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 0, "terms": [{"k": 2, "num": 1, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 5, "terms": [{"k": 2, "num": 1, "den": 1}]}]},
        {"format_version": 1, "dim": 3, "brackets": [{"i": 0, "j": 1, "terms": []}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": 1}]},
                      {"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1,
                       "terms": [{"k": 2, "num": 1, "den": 1},
                                 {"k": 2, "num": 2, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 2, "den": 4}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": -1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 0, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1.0, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": True, "den": 1}]}]},
        {"format_version": 1, "dim": 3,
         "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1}]}]},
    ],
)
def test_payload_rejects_schema_violations(payload):
    with pytest.raises(cli.AlgebraFileError):
        cli.algebra_from_payload(payload)


def _one_bracket(*terms, i=0, j=1):
    return {"format_version": 1, "dim": 3, "brackets": [{"i": i, "j": j, "terms": list(terms)}]}


def _term(k=2, num=1, den=1):
    return {"k": k, "num": num, "den": den}


@pytest.mark.parametrize(
    "payload, message",
    [
        (_one_bracket(_term(), i=True), "i must be an integer in [0, 3)"),
        (_one_bracket(_term(), j=3), "j must be an integer in [0, 3)"),
        (_one_bracket(_term(), i=1, j=1), "brackets must be upper-triangular (i < j)"),
        (_one_bracket({"k": 2, "num": 1}), "each term needs exactly the keys k, num, den"),
        (_one_bracket(_term(k=3)), "k must be an integer in [0, 3)"),
        (_one_bracket(_term(k=-1)), "k must be an integer in [0, 3)"),
        (_one_bracket(_term(k=True)), "k must be an integer in [0, 3)"),
        (_one_bracket(_term(k=2.0)), "k must be an integer in [0, 3)"),
        (_one_bracket(_term(), _term(num=2)), "duplicate output index 2 in bracket (0, 1)"),
        (_one_bracket(_term(k=1), _term(k=1, num=0)), "duplicate output index 1 in bracket (0, 1)"),
        (_one_bracket(_term(num=1.0)), "num and den must be integers"),
        (_one_bracket(_term(den=True)), "num and den must be integers"),
        (_one_bracket(_term(num="1", den=0)), "num and den must be integers"),
        (_one_bracket(_term(num=0)), "zero terms must be omitted"),
        (_one_bracket(_term(num=0, den=-1)), "zero terms must be omitted"),
        (_one_bracket(_term(den=0)), "den must be positive"),
        (_one_bracket(_term(num=2, den=-4)), "den must be positive"),
        (_one_bracket(_term(num=2, den=4)), "fractions must be in lowest terms"),
        (_one_bracket(_term(num=-6, den=9)), "fractions must be in lowest terms"),
    ],
)
def test_payload_messages_are_pinned(payload, message):
    # Each term-level check, and the order in which the checks run.
    with pytest.raises(cli.AlgebraFileError) as err:
        cli.algebra_from_payload(payload)
    assert str(err.value) == message


@st.composite
def payloads(draw):
    """Valid payloads of dims 1-6: lowest-terms constants either small
    (the int64 route) or with num and den up to 2^80 (object route when
    the scaled entries pass 2^62), brackets and terms in any order."""
    dim = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([12, 2**80]))
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = []
            for k in draw(st.lists(st.integers(0, dim - 1), max_size=3, unique=True)):
                num = draw(st.integers(-bound, bound).filter(bool))
                den = draw(st.integers(1, bound))
                g = math.gcd(num, den)
                terms.append({"k": k, "num": num // g, "den": den // g})
            if terms:
                brackets.append({"i": i, "j": j, "terms": terms})
    payload = {"format_version": 1, "dim": dim, "brackets": draw(st.permutations(brackets))}
    if draw(st.booleans()):
        payload["metadata"] = {"seed": 1}
    return payload


def oracle_payload(dim: int, constants: dict) -> dict:
    """The file contents written from the Fraction constants view."""
    return {"format_version": 1, "dim": dim, "brackets": [
        {"i": i, "j": j, "terms": [{"k": k, "num": v.numerator, "den": v.denominator}
                                   for k, v in constants[(i, j)]]}
        for i, j in sorted(constants)]}


@settings(max_examples=150, deadline=None)
@given(payloads())
@example({"format_version": 1, "dim": 1, "brackets": []})
@example({"format_version": 1, "dim": 3, "brackets": [
    {"i": 0, "j": 1, "terms": [{"k": 2, "num": -1, "den": 2}]},
    {"i": 1, "j": 2, "terms": [{"k": 0, "num": 3, "den": 1}]}]})
@example({"format_version": 1, "dim": 3, "brackets": [
    {"i": 1, "j": 2, "terms": [{"k": 0, "num": 1 - 2**62, "den": 1}]}]})
@example({"format_version": 1, "dim": 3, "brackets": [
    {"i": 1, "j": 2, "terms": [{"k": 0, "num": -(2**62), "den": 1}]},
    {"i": 0, "j": 1, "terms": [{"k": 2, "num": 2**62 - 1, "den": 1}]}]})
@example({"format_version": 1, "dim": 3, "brackets": [
    {"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": 2**70}, {"k": 0, "num": 3, "den": 5}]}]})
def test_loader_matches_fraction_loader(payload):
    a = cli.algebra_from_payload(payload)
    dim, constants = oracle.payload_constants(payload)
    want_t, want_scale, want_max = oracle.int_tensor(dim, constants)
    got_t, got_scale, got_max = a.int_tensor()
    assert (got_scale, got_max) == (want_scale, want_max)
    assert got_t.dtype == (np.int64 if want_max < 2**62 else object)
    assert np.array_equal(got_t, want_t)
    assert a == NilpotentAlgebra(dim, constants)
    assert a.constants == constants
    assert cli.algebra_to_payload(a) == oracle_payload(dim, constants)


def test_save_load_round_trip(tmp_path):
    a = nilradical(build_root_system(SimpleType("C", 3)))
    path = tmp_path / "c3.json"
    cli.save_algebra(str(path), a, metadata={"note": "test"})
    assert cli.load_algebra(str(path)) == a
    payload = json.loads(path.read_text())
    assert payload["metadata"] == {"note": "test"}


def test_save_is_deterministic(tmp_path):
    a = nilradical(build_root_system(SimpleType("A", 3)))
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    cli.save_algebra(str(p1), a)
    cli.save_algebra(str(p2), a)
    assert p1.read_text() == p2.read_text()


def test_save_load_round_trip_of_scrambled_table(tmp_path):
    # Scrambled constants are dense rationals; the compact file must
    # read back as the same algebra.
    a = nilradical(build_root_system(SimpleType("B", 3)))
    m = oracle.matmul(oracle.from_rows(random_unimodular(a.dim, 5)), oracle.from_rows(
        [[F(1, k + 2) if i == k else 0 for k in range(a.dim)] for i in range(a.dim)]))
    b = change_basis(a, m)
    assert any(v.denominator > 1 for terms in b.constants.values() for _, v in terms)
    path = tmp_path / "b3.json"
    cli.save_algebra(str(path), b, metadata={"seed": 5})
    assert cli.load_algebra(str(path)) == b
    assert json.loads(path.read_text())["metadata"] == {"seed": 5}


def test_failed_save_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "a3.json"
    cli.save_algebra(str(path), nilradical(build_root_system(SimpleType("A", 3))))
    before = path.read_bytes()

    def broken(a, metadata=None):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(cli, "algebra_to_payload", broken)
    with pytest.raises(RuntimeError):
        cli.save_algebra(str(path), heisenberg())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a3.json"]


# ------------------------------------------------------------- subcommands


def test_table_text(capsys):
    code, out, err = run(["table", "--max-rank", "2"], capsys)
    assert code == 0 and not err
    assert "A1" in out and "G2" in out and "B2" in out
    assert "D3" not in out


def test_table_json(capsys):
    code, out, _ = run(["table", "--max-rank", "8", "--format", "json"], capsys)
    assert code == 0
    rows = {r["type"]: r for r in json.loads(out)["rows"]}
    assert rows["E8"] == {"type": "E8", "family": "E", "rank": 8,
                          "dimension": 248, "nilradical_dim": 120}
    assert rows["B5"]["dimension"] == rows["C5"]["dimension"] == 55


def test_roots_json(capsys):
    code, out, _ = run(["roots", "G", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6
    assert data["degree_histogram"] == [2, 1, 1, 1, 1]
    assert {"coeffs": [3, 2], "degree": 5} in data["roots"]


def test_roots_text(capsys):
    code, out, _ = run(["roots", "A", "2"], capsys)
    assert code == 0
    assert "3 positive roots" in out


def test_invariants(capsys):
    code, out, _ = run(["invariants", "B", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "B3"
    assert data["nilradical_dim"] == 9
    assert data["simple_dim"] == 21
    assert data["lcs_dims"] == [9, 6, 4, 2, 1, 0]
    assert data["graded_dims"] == [3, 2, 2, 1, 1]
    assert data["degree_histogram"] == data["graded_dims"]
    assert data["identification"] == {"canonical": "B3", "aliases": []}


def test_invariants_b2_alias(capsys):
    code, out, _ = run(["invariants", "C", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["identification"] == {"canonical": "B2", "aliases": ["C2"]}


def test_emit_a2_is_heisenberg_file(tmp_path, capsys):
    path = tmp_path / "a2.json"
    code, _, _ = run(["emit", "A", "2", "-o", str(path)], capsys)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["dim"] == 3
    assert len(payload["brackets"]) == 1


def test_obfuscated_file_keeps_series_dims(tmp_path, capsys):
    from lienil.nilalg import lower_central_series

    src, obf = tmp_path / "b3.json", tmp_path / "b3o.json"
    run(["emit", "B", "3", "-o", str(src)], capsys)
    run(["obfuscate", str(src), "--seed", "5", "-o", str(obf)], capsys)
    assert lower_central_series(cli.load_algebra(str(obf))).dims == (9, 6, 4, 2, 1, 0)


def test_identify_obfuscated_c5(tmp_path, capsys):
    src, obf = tmp_path / "c5.json", tmp_path / "c5o.json"
    run(["emit", "C", "5", "-o", str(src)], capsys)
    run(["obfuscate", str(src), "--seed", "7", "-o", str(obf)], capsys)
    code, out, _ = run(["identify", str(obf)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["canonical"] == "C5"
    assert data["fingerprint"]["bc_family"] == "C"


def test_emit_then_load(tmp_path, capsys):
    path = tmp_path / "d4.json"
    code, _, _ = run(["emit", "D", "4", "-o", str(path)], capsys)
    assert code == 0
    a = cli.load_algebra(str(path))
    assert a == nilradical(build_root_system(SimpleType("D", 4)))
    assert json.loads(path.read_text())["metadata"] == {"type": "D4"}


def test_obfuscate_deterministic_and_records_seed(tmp_path, capsys):
    src = tmp_path / "a3.json"
    out1, out2, out3 = (tmp_path / n for n in ("x.json", "y.json", "z.json"))
    run(["emit", "A", "3", "-o", str(src)], capsys)
    assert run(["obfuscate", str(src), "--seed", "7", "-o", str(out1)], capsys)[0] == 0
    assert run(["obfuscate", str(src), "--seed", "7", "-o", str(out2)], capsys)[0] == 0
    assert run(["obfuscate", str(src), "--seed", "8", "-o", str(out3)], capsys)[0] == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text() != out3.read_text()
    payload = json.loads(out1.read_text())
    assert payload["metadata"] == {"seed": 7}


SCRAMBLE_SHA256 = {
    (3, 1): "d0017b09e7b78a998253c5cbe01efab14643d7ccbeb2bb42a8ceffe1c637bb76",
    (16, 7): "8878e84b771b721470a277620c9e19509e344f2532b6e79f11ea1bf0a0690fab",
    (63, 101): "608220c4a30c44c022a73f4dd4f0f94743f15b38ad895fdc238a4ec7c608f3b1",
    (120, 101): "504ff844034984d1914cf30b9ae2d0f8b2121e78127ea4e514e5e29cdae864ef",
}
OBFUSCATED_C4_SHA256 = "33e682509e0267c61003954de65ff337880958677ae0493f3b340994ba282f20"


def test_scrambles_are_pinned(tmp_path, capsys):
    # Saved files and benchmark inputs are random_unimodular's output:
    # its matrices, and the file emit + obfuscate write, stay bit-identical.
    for (d, seed), digest in SCRAMBLE_SHA256.items():
        assert hashlib.sha256(json.dumps(random_unimodular(d, seed)).encode()).hexdigest() == digest
    path = tmp_path / "c4.json"
    assert run(["emit", "C", "4", "-o", str(path)], capsys)[0] == 0
    assert run(["obfuscate", str(path), "--seed", "7", "-o", str(path)], capsys)[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OBFUSCATED_C4_SHA256


def test_obfuscate_requires_seed(tmp_path, capsys):
    src = tmp_path / "a2.json"
    run(["emit", "A", "2", "-o", str(src)], capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(["obfuscate", str(src), "-o", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_obfuscate_and_identify_build_no_fraction(tmp_path, capsys, monkeypatch):
    # Files are read into, and written from, the scaled integer tensor;
    # Fractions remain only in the constants view.
    path = tmp_path / "b4.json"
    assert run(["emit", "B", "4", "-o", str(path)], capsys)[0] == 0
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "__new__", staticmethod(counting_new))
        for seed in (1, 2, 3):
            code = cli.main(["obfuscate", str(path), "--seed", str(seed), "-o", str(path)])
            assert (code, built) == (0, 0)
        code = cli.main(["identify", str(path)])
        assert (code, built) == (0, 0)
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["canonical"] == "B4"


def test_identify_round_trip_via_files(tmp_path, capsys):
    src, obf = tmp_path / "f4.json", tmp_path / "f4o.json"
    run(["emit", "F", "4", "-o", str(src)], capsys)
    run(["obfuscate", str(src), "--seed", "13", "-o", str(obf)], capsys)
    code, out, _ = run(["identify", str(obf)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["canonical"] == "F4"
    assert data["aliases"] == []
    assert data["fingerprint"]["graded_dims"][0] == 4
    assert data["fingerprint"]["bc_family"] is None


def test_identify_reports_bc_family(tmp_path, capsys):
    for fam in ("B", "C"):
        src = tmp_path / f"{fam}.json"
        run(["emit", fam, "4", "-o", str(src)], capsys)
        code, out, _ = run(["identify", str(src)], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["canonical"] == f"{fam}4"
        assert data["fingerprint"]["bc_family"] == fam


def test_identify_alias_listing(tmp_path, capsys):
    src = tmp_path / "d3.json"
    run(["emit", "D", "3", "-o", str(src)], capsys)
    code, out, _ = run(["identify", str(src)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["canonical"] == "A3"
    assert data["aliases"] == ["D3"]


# Stdout of identify and invariants, pinned byte for byte: pretty-printed
# JSON with sorted keys and a trailing newline.  Scrambling does not change
# what identify prints.
PINNED_IDENTIFY = {
    "A3": '{"aliases": ["D3"], "canonical": "A3", "fingerprint": {"bc_family": null, '
          '"graded_dims": [3, 2, 1], "nil_dim": 6, "nilpotency_class": 3, "rank": 3, '
          '"simple_dim": 15}}',
    "B4": '{"aliases": [], "canonical": "B4", "fingerprint": {"bc_family": "B", '
          '"graded_dims": [4, 3, 3, 2, 2, 1, 1], "nil_dim": 16, "nilpotency_class": 7, '
          '"rank": 4, "simple_dim": 36}}',
    "C4": '{"aliases": [], "canonical": "C4", "fingerprint": {"bc_family": "C", '
          '"graded_dims": [4, 3, 3, 2, 2, 1, 1], "nil_dim": 16, "nilpotency_class": 7, '
          '"rank": 4, "simple_dim": 36}}',
    "E6": '{"aliases": [], "canonical": "E6", "fingerprint": {"bc_family": null, '
          '"graded_dims": [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1], "nil_dim": 36, '
          '"nilpotency_class": 11, "rank": 6, "simple_dim": 78}}',
}
PINNED_INVARIANTS = {
    "B3": '{"degree_histogram": [3, 2, 2, 1, 1], "graded_dims": [3, 2, 2, 1, 1], '
          '"identification": {"aliases": [], "canonical": "B3"}, '
          '"lcs_dims": [9, 6, 4, 2, 1, 0], "nilpotency_class": 5, "nilradical_dim": 9, '
          '"rank": 3, "simple_dim": 21, "type": "B3"}',
    "C3": '{"degree_histogram": [3, 2, 2, 1, 1], "graded_dims": [3, 2, 2, 1, 1], '
          '"identification": {"aliases": [], "canonical": "C3"}, '
          '"lcs_dims": [9, 6, 4, 2, 1, 0], "nilpotency_class": 5, "nilradical_dim": 9, '
          '"rank": 3, "simple_dim": 21, "type": "C3"}',
    "E6": '{"degree_histogram": [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1], '
          '"graded_dims": [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1], '
          '"identification": {"aliases": [], "canonical": "E6"}, '
          '"lcs_dims": [36, 30, 25, 20, 15, 11, 8, 5, 3, 2, 1, 0], "nilpotency_class": 11, '
          '"nilradical_dim": 36, "rank": 6, "simple_dim": 78, "type": "E6"}',
}


def pretty(compact: str) -> str:
    return json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(PINNED_IDENTIFY))
def test_identify_stdout_is_pinned(name, tmp_path, capsys):
    src, obf = tmp_path / "a.json", tmp_path / "o.json"
    assert run(["emit", name[0], name[1:], "-o", str(src)], capsys)[0] == 0
    assert run(["obfuscate", str(src), "--seed", "3", "-o", str(obf)], capsys)[0] == 0
    for path in (src, obf):
        assert run(["identify", str(path)], capsys)[:2] == (0, pretty(PINNED_IDENTIFY[name]))


@pytest.mark.parametrize("name", sorted(PINNED_INVARIANTS))
def test_invariants_stdout_is_pinned(name, capsys):
    code, out, _ = run(["invariants", name[0], name[1:]], capsys)
    assert (code, out) == (0, pretty(PINNED_INVARIANTS[name]))


# --------------------------------------------------------------- exit codes


def test_exit_2_unknown_family(capsys):
    code, _, err = run(["invariants", "Q", "3"], capsys)
    assert code == 2 and "family" in err


def test_exit_2_invalid_rank(capsys):
    code, _, err = run(["invariants", "B", "1"], capsys)
    assert code == 2 and "B1" in err


def test_exit_2_rank_above_bound(capsys):
    code, _, err = run(["roots", "A", "13"], capsys)
    assert code == 2 and "bound" in err


def test_exit_2_missing_file(tmp_path, capsys):
    code, _, err = run(["identify", str(tmp_path / "nope.json")], capsys)
    assert code == 2 and "cannot read" in err


def test_exit_2_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("argv", [["identify"], ["obfuscate", "--seed", "1", "-o", "out.json"]])
def test_exit_2_deeply_nested_json(tmp_path, capsys, monkeypatch, argv):
    # json.load raises RecursionError, not JSONDecodeError, past its depth.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "deep.json"
    path.write_text("[" * 10000)
    code, out, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2 and not out
    assert err == f"error: {path} nests JSON too deeply to read\n"
    assert not (tmp_path / "out.json").exists()


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("argv", [["identify"], ["obfuscate", "--seed", "1", "-o", "out.json"]])
@pytest.mark.parametrize("data, message", [
    (b'{"format_version": 1, "dim": "\xff"}', "is not UTF-8 text: invalid start byte at byte 30"),
    (b'{"format_version": 1, "dim": ' + b"7" * (DIGIT_LIMIT + 1) + b"}",
     f"holds an integer of more than {DIGIT_LIMIT} digits"),
], ids=["invalid-utf8", "too-many-digits"])
def test_exit_2_unreadable_bytes_or_digits_name_the_file(tmp_path, capsys, monkeypatch, argv,
                                                        data, message):
    # Both reach json.load as ValueErrors that are no JSONDecodeError.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2 and not out
    assert err == f"error: {path} {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_exit_2_jacobi_violation(tmp_path, capsys):
    path = tmp_path / "nojac.json"
    path.write_text(json.dumps({
        "format_version": 1, "dim": 4,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": 1}]},
            {"i": 0, "j": 2, "terms": [{"k": 3, "num": 1, "den": 1}]},
            {"i": 2, "j": 3, "terms": [{"k": 1, "num": 1, "den": 1}]},
        ],
    }))
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 2 and "Jacobi" in err


@pytest.mark.parametrize("seed, message", [
    (None, "4 basis triples (first: (0, 1, 2), (0, 1, 5), (0, 1, 6))"),
    (1, "63 basis triples (first: (0, 2, 10), (0, 2, 12), (0, 2, 15))"),
])
def test_exit_2_jacobi_message_is_pinned(seed, message, tmp_path, capsys):
    # C4 with its first constant negated, as emitted and scrambled: the
    # count of failing sorted triples and the first three, in order.
    a = nilradical(build_root_system(SimpleType("C", 4)))
    constants = dict(a.constants)
    key = min(constants)
    ((k, v),) = constants[key]
    constants[key] = ((k, -v),)
    bad = NilpotentAlgebra(a.dim, constants)
    if seed is not None:
        bad = change_basis(bad, random_unimodular(a.dim, seed))
    path = tmp_path / "bad.json"
    cli.save_algebra(str(path), bad)
    assert run(["identify", str(path)], capsys) == (
        2, "", f"error: Jacobi identity fails on {message}\n")


@pytest.mark.parametrize("dim, brackets, code, err", [
    (1, [], 0, ""),
    (2, [], 1, "error: unrecognized: graded dimensions (2,) are the degree histogram "
               "of no simple type of rank 2\n"),
    (2, [{"i": 0, "j": 1, "terms": [{"k": 1, "num": 1, "den": 1}]}], 1,
     "error: not nilpotent: lower central series stalls before zero\n"),
])
def test_identify_below_three_dimensions_passes_jacobi(dim, brackets, code, err, tmp_path,
                                                      capsys):
    # No basis triple exists, so only the series and the match decide.
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"format_version": 1, "dim": dim, "brackets": brackets}))
    got, out, got_err = run(["identify", str(path)], capsys)
    assert (got, got_err) == (code, err)
    if code == 0:
        assert json.loads(out)["canonical"] == "A1"


def test_exit_1_not_nilpotent(tmp_path, capsys):
    path = tmp_path / "solv.json"
    path.write_text(json.dumps({
        "format_version": 1, "dim": 2,
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "num": 1, "den": 1}]}],
    }))
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 1 and "not nilpotent" in err


@pytest.mark.parametrize("argv", [["identify"], ["obfuscate", "--seed", "1", "-o", "out.json"]])
def test_exit_2_dim_above_largest_nilradical(tmp_path, capsys, monkeypatch, argv):
    # 144 = dim of the B12 and C12 nilradicals, the largest at rank <= 12.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format_version": 1, "dim": 10000000, "brackets": []}))
    code, _, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2 and "exceeds 144" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [["identify"], ["obfuscate", "--seed", "1", "-o", "out.json"]])
def test_exit_2_structure_tensor_above_byte_limit(tmp_path, capsys, monkeypatch, argv):
    # Rank bound 100 lets dim reach 10000 (B100), but a dim-5000 dense
    # tensor would take 5000^3 * 8 bytes = 1 TB.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.ENV_MAX_RANK, "100")

    def no_tensor(self):
        raise AssertionError("structure tensor allocated")

    monkeypatch.setattr(NilpotentAlgebra, "int_tensor", no_tensor)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "format_version": 1, "dim": 5000,
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2, "num": 1, "den": 1}]}],
    }))
    code, _, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2 and "dense structure tensor" in err
    assert str(5000**3 * 8) in err and str(cli.MAX_TENSOR_BYTES) in err
    assert not (tmp_path / "out.json").exists()


def test_largest_nilradical_dim_matches_type_table():
    for bound in range(1, 21):
        table = max((simple_dimension(t) - t.rank) // 2 for t in all_types(bound))
        assert cli._largest_nilradical_dim(bound) == table


# Types whose nilradical has dim at most 12.
SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"]
SCALES = [1, -1, 2, F(1, 3), F(-5, 7), 2**16, F(1, 2**16 + 1)]


def _lowest(value) -> dict:
    value = F(value)
    return {"num": value.numerator, "den": value.denominator}


@st.composite
def boundary_payloads(draw):
    """Schema-valid payloads of dims 1-12: any set of brackets, one-term
    brackets included, with integer or rational constants up to 2^64,
    outputs above both inputs (nilpotent) or anywhere.  The denominators
    come from a palette of at most three per payload.  Now and then a
    Chevalley table rescaled by a rational diagonal basis change, a Lie
    algebra that identify names."""
    if draw(st.integers(0, 3)) == 0:
        a = nilradical(build_root_system(SimpleType.parse(draw(st.sampled_from(SMALL_TYPES)))))
        c = [F(draw(st.sampled_from(SCALES))) for _ in range(a.dim)]
        brackets = [{"i": i, "j": j, "terms": [{"k": k, **_lowest(v * c[i] * c[j] / c[k])}
                                              for k, v in terms]}
                    for (i, j), terms in a.constants.items()]
        return {"format_version": 1, "dim": a.dim, "brackets": brackets}
    dim = draw(st.integers(1, 12))
    above = draw(st.booleans())
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim) if not above or j + 1 < dim]
    palette = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 2**64)),
                            min_size=1, max_size=3))
    nums = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64)).filter(bool)
    brackets = []
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        outputs = range(j + 1, dim) if above else range(dim)
        terms = []
        for k in draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=3, unique=True)):
            terms.append({"k": k, **_lowest(F(draw(nums), draw(st.sampled_from(palette))))})
        brackets.append({"i": i, "j": j, "terms": terms})
    return {"format_version": 1, "dim": dim, "brackets": brackets}


def run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(boundary_payloads())
@example({"format_version": 1, "dim": 12, "brackets": [
    {"i": 0, "j": 1, "terms": [{"k": 11, "num": 2**64, "den": 2**64 - 1}]}]})
def test_identify_and_obfuscate_exit_cleanly_on_any_valid_file(payload):
    # Exit 0, 1 or 2; on 1 or 2 one "error:" line on stderr and nothing
    # else.  An exception escaping main would print a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        for argv in (["identify", path], ["obfuscate", path, "--seed", "3", "-o", path + ".out"]):
            code, err = run_quietly(argv)
            assert code in (0, 1, 2)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert err == ""


def test_exit_2_constants_too_large_to_check(tmp_path, capsys):
    # Pairwise coprime 4001-digit denominators scale the integer tensor
    # past every product of residue primes the Jacobi check has.
    dens = [10**4000 + 1, 10**4000 + 3, 10**4000 + 7]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "format_version": 1, "dim": 4,
        "brackets": [
            {"i": i, "j": j, "terms": [{"k": 3, "num": 1, "den": d}]}
            for (i, j), d in zip([(0, 1), (0, 2), (1, 2)], dens)
        ],
    }))
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 2 and "too large" in err


def write_huge_constants(path, bits: int):
    """[e0, e1] and [e0, e2] into e3..e5 with random constants of the
    given bit length (seed 5): Jacobi holds, and the reduced rows hold
    ratios of 2 x 2 minors, about 4 * bits bits."""
    rng = random.Random(5)
    path.write_text(json.dumps({
        "format_version": 1, "dim": 6,
        "brackets": [
            {"i": 0, "j": j, "terms": [{"k": k, "num": rng.getrandbits(bits), "den": 1}
                                       for k in (3, 4, 5)]}
            for j in (1, 2)
        ],
    }))


@pytest.mark.parametrize("argv", [["identify"], ["obfuscate", "--seed", "1", "-o", "out.json"]])
def test_exit_2_row_reduction_out_of_primes(tmp_path, capsys, monkeypatch, argv):
    # 200-bit constants: Jacobi needs 20 residue primes, and the reduced
    # rows, about 800 bits, need more than 25 to reconstruct.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ik, "PRIMES", ik.PRIMES[:25])
    path = tmp_path / "huge.json"
    write_huge_constants(path, 200)
    code, _, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert code == 2 and "row reduction needs more than the 25 residue primes" in err
    assert not (tmp_path / "out.json").exists()


def test_running_out_of_primes_reconstructs_at_doublings_only(tmp_path, capsys, monkeypatch):
    # 1,200-bit constants: Jacobi needs about 115 of the 200 primes, and
    # the reduced rows, about 4,800 bits, need more than 200.  The
    # reduction reconstructs at 1, 2, 4, ..., 128 primes and at the
    # last one, not after every prime.
    monkeypatch.setattr(ik, "PRIMES", ik.PRIMES[:200])
    calls = []
    reconstruct = ik._reconstruct
    monkeypatch.setattr(ik, "_reconstruct", lambda *a: calls.append(a) or reconstruct(*a))
    path = tmp_path / "huge.json"
    write_huge_constants(path, 1200)
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 2 and "row reduction needs more than the 200 residue primes" in err
    assert len(calls) <= 9


@pytest.mark.parametrize("argv", [["emit", "A", "3"], ["obfuscate", "SRC", "--seed", "1"]])
@pytest.mark.parametrize("target", ["directory", "missing/out.json"])
def test_exit_2_unwritable_output(tmp_path, capsys, argv, target):
    src = tmp_path / "a3.json"
    cli.save_algebra(str(src), nilradical(build_root_system(SimpleType("A", 3))))
    out = tmp_path / target
    if target == "directory":
        out.mkdir()
    argv = [str(src) if x == "SRC" else x for x in argv]
    code, stdout, err = run([*argv, "-o", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a3.json"] + (target == "directory") * [target]


def test_exit_1_unrecognized(tmp_path, capsys):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"format_version": 1, "dim": 3, "brackets": []}))
    code, _, err = run(["identify", str(path)], capsys)
    assert code == 1 and "unrecognized" in err


@pytest.mark.parametrize("a, dims", [
    (NilpotentAlgebra(3, {}), "(3,)"),
    (NilpotentAlgebra(6, {(0, 1): ((3, F(1)),), (0, 2): ((4, F(1)),), (1, 2): ((5, F(1)),)}),
     "(3, 3)"),  # free two-step on three generators: rank and dim of A3
], ids=["abelian", "free-two-step"])
def test_exit_1_names_the_graded_dimensions(tmp_path, capsys, a, dims):
    path = tmp_path / "table.json"
    cli.save_algebra(str(path), a)
    assert run(["identify", str(path)], capsys) == (
        1, "", f"error: unrecognized: graded dimensions {dims} are the degree histogram "
               f"of no simple type of rank 3\n")


def test_identify_heisenberg_is_a2(tmp_path, capsys):
    path = tmp_path / "heis.json"
    cli.save_algebra(str(path), heisenberg())
    code, out, _ = run(["identify", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["canonical"] == "A2"


# ----------------------------------------------------------- rank bound env


def test_env_raises_rank_bound(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_MAX_RANK, "15")
    code, out, _ = run(["table", "--max-rank", "13", "--format", "json"], capsys)
    assert code == 0
    assert any(r["type"] == "A13" for r in json.loads(out)["rows"])


def test_env_lowers_rank_bound(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_MAX_RANK, "3")
    code, _, err = run(["invariants", "A", "4"], capsys)
    assert code == 2 and "bound" in err


def test_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_MAX_RANK, "many")
    code, _, err = run(["table"], capsys)
    assert code == 2 and cli.ENV_MAX_RANK in err


def test_env_must_be_positive(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_MAX_RANK, "0")
    code, _, _ = run(["table"], capsys)
    assert code == 2


# --------------------------------------------------------------- claims


def test_verify_claims_small(capsys):
    code, out, _ = run(["verify-claims", "--max-rank", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "10/10 claims passed" in out


@pytest.mark.parametrize("command", ["table", "verify-claims"])
def test_verify_claims_rank_above_bound(capsys, monkeypatch, command):
    monkeypatch.delenv(cli.ENV_MAX_RANK, raising=False)
    code, out, err = run([command, "--max-rank", "13"], capsys)
    assert code == 2 and not out
    assert err == "error: --max-rank must be between 1 and 12\n"


def test_run_claims_ids_are_stable():
    results = cli.run_claims(3)
    assert [r.claim_id for r in results] == [
        "dimension-table",
        "rank-recovery",
        "series-is-degree-filtration",
        "bc-histogram-equal",
        "bc-right-kernel-split",
        "round-trip-identification",
        "jacobi-holds",
        "graded-matches-nilradical",
        "pairing-well-defined",
        "simple-predecessor-exists",
    ]
    assert all(r.ok for r in results)


def test_run_claims_includes_e6_split_at_rank_6():
    results = [(r.claim_id, r.ok, r.witness) for r in cli.run_claims(6)]
    assert results == [
        ("dimension-table", True, "23 types checked"),
        ("rank-recovery", True, "23 types checked"),
        ("series-is-degree-filtration", True, "23 types checked"),
        ("bc-histogram-equal", True, "n = 2..6"),
        ("e6-degree4-count", True, "E6: 5, B6: 4, C6: 4"),
        ("bc-right-kernel-split", True, "n = 3..6, C kernel contains 2e2"),
        ("round-trip-identification", True, "69 round trips"),
        ("jacobi-holds", True, "23 types checked"),
        ("graded-matches-nilradical", True, "23 types checked"),
        ("pairing-well-defined", True, "468 perturbed pairings"),
        ("simple-predecessor-exists", True, "279 roots checked"),
    ]


# ------------------------------------------------------------- entry point


def test_module_invocation_matches_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lienil.cli", "roots", "A", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1


def test_the_cli_leaves_numpy_random_and_ma_unloaded():
    # Importing numpy.random and making a generator costs about 15 ms and
    # 5 MiB of peak memory, and numpy.ma (which np.setdiff1d imports)
    # about 2 MiB; nothing on lienil's paths needs either.  The import
    # alone, then a C4 identification with its graded pairings, in a
    # fresh interpreter.
    # The argument parser is built on the first main() call and kept:
    # none at import, one for two calls (counted by its prog).
    code = ("import argparse, contextlib, io, sys\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import lienil.cli\n"
            "print('numpy.random' in sys.modules, built)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    lienil.cli.main(['invariants', 'C', '4'])\n"
            "    lienil.cli.main(['roots', 'A', '1'])\n"
            "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules),\n"
            "      built.count('lienil'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False []", "[] 1"]
