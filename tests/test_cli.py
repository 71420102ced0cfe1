import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde_kit import VerObj, cli, powers
from verlinde_kit.cli import main
from verlinde_kit.formats import QUANTUM_INT_CAP, verobj_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fusion_table_text(capsys):
    code, out, _ = run_cli(capsys, "fusion-table", "--p", "5")
    assert code == 0
    assert "L1+L3" in out


def test_fusion_table_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "fusion-table", "--p", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5
    assert len(payload["entries"]) == 16
    entry = next(e for e in payload["entries"] if e["r"] == 2 and e["s"] == 2)
    assert verobj_from_json(entry["product"]) == VerObj(5, (1, 0, 1, 0))


def test_fusion_table_p2(capsys):
    code, out, _ = run_cli(capsys, "fusion-table", "--p", "2")
    assert code == 0
    assert "L1" in out


def test_fusion_table_bad_p(capsys):
    code, _, err = run_cli(capsys, "fusion-table", "--p", "9")
    assert code == 2
    assert "prime" in err


def test_sympow_table(capsys):
    code, out, _ = run_cli(capsys, "sympow", "--p", "5", "--m", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if "i=" in line]
    assert len(lines) == 4  # rows i = 0 .. p - m
    assert "L1" in lines[0]
    assert "L2" in lines[1]
    assert "L3" in lines[2]
    assert "L4" in lines[3]


def test_sympow_json_schema(capsys):
    code, out, _ = run_cli(capsys, "sympow", "--p", "5", "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5 and payload["m"] == 2
    assert payload["rows"][0] == {
        "i": 0,
        "mults": [1, 0, 0, 0],
        "fpdim": {"offset": 0, "coeffs": [1]},
        "sfpdim": {"offset": 0, "coeffs": [1]},
        "invariants": 1,
    }
    assert payload["rows"][1]["mults"] == [0, 1, 0, 0]
    assert payload["rows"][2]["mults"] == [0, 0, 1, 0]


def test_sympow_index_above_p_is_range_error(capsys):
    # an index above p is a range error, not an empty table, for both powers
    for argv in (("sympow", "--p", "5", "--m", "7"), ("extpow", "--p", "5", "--r", "7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "out of range" in err


def test_extpow_json(capsys):
    code, out, _ = run_cli(capsys, "extpow", "--p", "5", "--r", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {row["i"]: row["mults"] for row in payload["rows"]}
    assert rows[0] == [1, 0, 0, 0]
    assert rows[1] == [0, 0, 1, 0]
    assert rows[2] == [0, 0, 1, 0]
    assert rows[3] == [1, 0, 0, 0]


def test_decompose_bracket_shorthand(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "[3]_z", "--sfpdim", "[3]_z")
    assert code == 0
    assert out.strip() == "L3"


def test_decompose_plain_and_negative(capsys):
    # leading-minus values need the --opt=value spelling to get past argparse
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "[2]_z", "--sfpdim=-[2]_z")
    assert code == 0
    assert out.strip() == "L2"
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "1", "--sfpdim", "1")
    assert code == 0
    assert out.strip() == "L1"


def test_decompose_json_input_and_explain(capsys):
    fp = json.dumps({"offset": -2, "coeffs": [1, 0, 1, 0, 1]})
    code, out, _ = run_cli(
        capsys, "decompose", "--p", "5", "--fpdim", fp, "--sfpdim", fp, "--format", "json", "--explain"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mults"] == [0, 0, 1, 0]
    assert any(t["r"] == 3 and t["multiplicity"] == 1 for t in payload["terms"])


def test_decompose_explain_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "[3]_z", "--sfpdim", "[3]_z", "--explain")
    assert code == 0
    assert "a_3" in out


def test_decompose_integrality_exit_code(capsys):
    code, _, err = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "1", "--sfpdim", "[2]_z")
    assert code == 3
    assert "integrality" in err


def test_decompose_json_non_integer_is_bad_input(capsys):
    for fp in (
        '{"offset":0,"coeffs":[1.5]}',
        '{"offset":0,"coeffs":[true]}',
        '{"offset":0.5,"coeffs":[1]}',
    ):
        code, out, err = run_cli(capsys, "decompose", "--p", "5", "--fpdim", fp, "--sfpdim", "1")
        assert code == 2, fp
        assert out == ""
        assert "integer" in err


def test_decompose_deeply_nested_json_is_bad_input(capsys):
    # json.loads raises RecursionError here, which used to escape main
    code, out, err = run_cli(capsys, "decompose", "--p", "3", "--fpdim", '{"a":' * 100000, "--sfpdim", "0")
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err


def test_decompose_huge_exponent_is_cheap(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(
        capsys, "decompose", "--p", "3", "--fpdim", "z^300000000+z^-300000000", "--sfpdim", "0"
    )
    assert time.monotonic() - start < 10
    assert code == 0
    assert out.strip() == "L1+L2"


def test_decompose_explain_runs_the_trace_projection_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return decompose_terms(*args)

    decompose_terms = powers.decompose_terms
    monkeypatch.setattr(cli, "decompose_terms", counting)
    monkeypatch.setattr(powers, "decompose_terms", counting)
    code, out, _ = run_cli(capsys, "decompose", "--p", "61", "--fpdim", "[3]_z", "--sfpdim", "[3]_z", "--explain")
    assert code == 0
    assert out.splitlines()[0] == "L3"
    assert "a_3 = (1/4)*(4) = 1" in out
    assert len(calls) == 1


def test_decompose_caps_quantum_integers(capsys):
    start = time.monotonic()
    code, out, err = run_cli(capsys, "decompose", "--p", "3", "--fpdim", "[50000000]_z", "--sfpdim", "0")
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == ""
    assert "cap" in err
    # r = 10^5 is even, so the super dimension of [r]_z carries the sign -1
    r = QUANTUM_INT_CAP
    code, out, _ = run_cli(capsys, "decompose", "--p", "3", "--fpdim", f"[{r}]_z", f"--sfpdim=-[{r}]_z", "--virtual")
    assert code == 0
    assert out.strip() == "-L2"


def test_decompose_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "decompose", "--p", "5", "--fpdim", "q+1", "--sfpdim", "1")
    assert code == 2


def test_decompose_virtual_flag(capsys):
    x = VerObj(5, (0, 1, 0, -1))
    from verlinde_kit import fpdim_rep, sfpdim_rep

    fp = f"--fpdim={fpdim_rep(x)}"
    sfp = f"--sfpdim={sfpdim_rep(x)}"
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", fp, sfp, "--virtual", "--format", "json")
    assert code == 0
    assert json.loads(out)["mults"] == [0, 1, 0, -1]
    code, _, _ = run_cli(capsys, "decompose", "--p", "5", fp, sfp)
    assert code == 3


def test_weyl_command(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--p", "7", "--m", "3", "--weight", "1,0")
    assert code == 0
    assert out.strip() == "L3"


def test_weyl_alcove_error(capsys):
    code, _, err = run_cli(capsys, "weyl", "--p", "5", "--m", "3", "--weight", "3,1")
    assert code == 2
    assert "alcove" in err


def test_padic_command(capsys):
    code, out, _ = run_cli(capsys, "padic", "--p", "5", "--mults", "0,0,1,0")
    assert code == 0
    assert out.splitlines()[0] == "Dim+=-2 Dim-=3"
    assert "identity=ok" in out


def test_padic_json(capsys):
    code, out, _ = run_cli(capsys, "padic", "--p", "5", "--mults", "0,0,1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_plus"] == -2 and payload["dim_minus"] == 3
    assert payload["length_identity"] is True


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--p", "7", "--m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # S^i of L2 is the simple L_{i+1}, so only i = 0 has a unit summand
    assert [row["invariant_dim"] for row in payload["rows"]] == [1, 0, 0, 0, 0, 0]
    assert [row["classical"] for row in payload["rows"]] == [1, 0, 0, 0, 0, 0]


def test_verify_small(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--p-list",
        "3,5",
        "--n-random",
        "10",
        "--n-roundtrip",
        "10",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["summary"]["fail"] == 0
    assert {c["suite"] for c in payload["cells"]} == {
        "fusion",
        "sym",
        "ext",
        "roundtrip",
        "adams",
        "characters",
        "trace",
        "padic",
        "weyl",
        "invariants",
    }


def test_verify_text_pass_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p-list", "3", "--n-random", "5", "--n-roundtrip", "5")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_verify_rejects_p2(capsys):
    code, _, err = run_cli(capsys, "verify", "--p-list", "2,3")
    assert code == 2


def test_verify_rejects_negative_max_dim(capsys):
    # negative counts too: they used to run no random cell and still print PASS
    for option in ("--max-dim", "--n-random", "--n-roundtrip"):
        code, out, err = run_cli(capsys, "verify", "--p-list", "3", f"{option}=-1")
        assert code == 2, option
        assert "PASS" not in out
        assert option in err


def test_verify_without_oracle_cells_fails(capsys):
    # a budget below 2 admits only 1x1 matrices, whose Jordan type is forced
    for max_dim in ("0", "1"):
        code, out, _ = run_cli(capsys, "verify", "--p-list", "3", "--max-dim", max_dim, "--n-random", "5", "--n-roundtrip", "5")
        assert code == 4
        assert "FAIL sym p=3 oracle coverage" in out
        assert "FAIL ext p=3 oracle coverage" in out
        assert out.strip().splitlines()[-1].startswith("FAIL")
    code, out, _ = run_cli(capsys, "verify", "--p-list", "3", "--max-dim", "2", "--n-random", "5", "--n-roundtrip", "5")
    assert code == 0
    assert "oracle coverage" not in out


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "sympow", "--p", "7", "--m", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "sympow", "--p", "7", "--m", "3", "--format", "json")
    assert out1 == out2


def test_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "fusion-table", "--p", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "r,s,product"
    code, out, _ = run_cli(capsys, "sympow", "--p", "5", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "i,object,fpdim,sfpdim,invariants"


def test_index_ranges_are_checked_before_any_table(capsys):
    # each of these used to print an empty table with exit 0, or to size a
    # tuple or list from the index before rejecting it
    for argv, what in (
        (("fusion-table", "--p", "1"), "not prime"),
        (("extpow", "--p", "5", "--r=-1"), "simple index r = -1 out of range"),
        (("extpow", "--p", "5", "--r", "1000000000000"), "out of range"),
        (("invariants", "--p", "5", "--m", "9"), "simple index m = 9 out of range"),
        (("invariants", "--p", "5", "--m=-1000000000000"), "out of range"),
        (("weyl", "--p", "5", "--m", "1000000000000", "--weight", "1"), "rank parameter m"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert what in err, argv


def test_double_dash_option_value_is_usage_error(capsys):
    # argparse turns "--opt=--" into an empty list, which no command expects
    for argv in (("decompose", "--p=3", "--fpdim=1", "--sfpdim=--"), ("sympow", "--p=3", "--m=--")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "'--'" in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "fusion-table" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


# -- fuzzed contract: every input ends in exit 0, 2, 3 or 4 within a bound -------

FUZZ_PRIMES = (-1, 0, 1, 2, 3, 4, 5, 7, 9, 13)
FUZZ_CALL_BOUND_S = 5.0

_index = st.one_of(st.integers(-3, 16), st.integers(-(10**12), 10**12))
_laurent_text = st.one_of(
    st.sampled_from(("1", "0", "[2]_z", "-[2]_z", "[3]_z", "z+z^-1", "2*[4]_z-3z")),
    st.text(alphabet="z^[]_+-*0123456789 ", max_size=24),
    st.builds(lambda c, r: f"{c}*[{r}]_z", st.integers(-3, 3), st.integers(-(10**8), 10**8)),
    st.builds(lambda e: f"z^{e}+z^{-e}", st.integers(0, 10**9)),
    st.builds(
        lambda offset, coeffs: json.dumps({"offset": offset, "coeffs": coeffs}),
        st.one_of(st.integers(-(10**9), 10**9), st.floats(allow_nan=False), st.booleans()),
        st.lists(st.one_of(st.integers(-5, 5), st.floats(allow_nan=False), st.booleans()), max_size=8),
    ),
    st.text(max_size=16).map(lambda t: "{" + t),
)
_int_list = st.one_of(
    st.sampled_from(("0", "1", "1,0", "2,1", "1,1,0", "0,0,1,0", "1,2,0,1,0,3")),
    st.lists(st.integers(-3, 20), max_size=14).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,- ", max_size=16),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("fusion-table", "sympow", "extpow", "decompose", "weyl", "padic", "invariants")))
    argv = [command, f"--p={draw(st.sampled_from(FUZZ_PRIMES))}"]
    if command in ("sympow", "invariants", "weyl"):
        argv.append(f"--m={draw(_index)}")
    if command == "extpow":
        argv.append(f"--r={draw(_index)}")
    if command in ("sympow", "extpow", "invariants") and draw(st.booleans()):
        argv.append(f"--i={draw(_index)}")
    if command == "decompose":
        argv += [f"--fpdim={draw(_laurent_text)}", f"--sfpdim={draw(_laurent_text)}"]
        argv += [flag for flag in ("--virtual", "--explain") if draw(st.booleans())]
    if command == "weyl":
        argv.append(f"--weight={draw(_int_list)}")
    if command == "padic":
        argv.append(f"--mults={draw(_int_list)}")
    argv.append(f"--format={draw(st.sampled_from(('text', 'csv', 'json')))}")
    return argv


@settings(max_examples=300)
@given(cli_argv())
def test_cli_contract_fuzzed(argv):
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert time.monotonic() - start < FUZZ_CALL_BOUND_S, argv
    assert code in (0, 2, 3, 4), argv
