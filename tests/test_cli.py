import json
import marshal
import os
import sys
import time
from fractions import Fraction

import pytest
from golden_manifest import GOLDEN, GOLDENS

from g2kit import cli
from g2kit.cli import RunConfig, build_parser, main, run
from g2kit.frames import CrossTable, G2Frame, build_cayley_frame
from g2kit.liealg import heisenberg_model
from g2kit.serialize import mat_to_json
from g2kit.so7 import EndoSplit, cross_operator
from g2kit.linalg import Vec7


def write_matrix(tmp_path, mat, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"matrix": mat_to_json(mat)}))
    return str(path)


def test_parser_defaults():
    args = build_parser().parse_args(["identities"])
    assert args.seed == 0 and args.trials == 200 and args.frame == "standard"


def test_identities_small_run_passes():
    code, out = run(RunConfig(command="identities", seed=1, trials=12, fmt="json"))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    suites = {(s["suite"], s["frame"]) for s in report["suites"]}
    assert ("epsilon-identities", "standard") in suites
    assert ("bracket-projection", "cayley") in suites


def test_identities_trials_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--trials", "0"])
    assert exc.value.code == 2
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert err == ["g2kit: error: --trials must be at least 1"]


# the flags each subcommand reads; identities takes --frame only to echo it
TAKES = {
    "identities": {"--seed", "--trials", "--frame", "--format"},
    "classify": {"--input", "--frame", "--format"},
    "nilmanifold": {"--input", "--frame", "--convention", "--format"},
    "tables": {"--frame", "--format"},
}
# a value other than the default for each flag, and the RunConfig field it sets
FLAG_VALUES = {
    "--seed": ("5", "seed", 5),
    "--trials": ("7", "trials", 7),
    "--frame": ("cayley", "frame", "cayley"),
    "--convention": ("tensor", "convention", "tensor"),
    "--input": ("in.json", "input_path", "in.json"),
    "--format": ("json", "fmt", "json"),
}


@pytest.mark.parametrize("flag", FLAG_VALUES)
@pytest.mark.parametrize("command", TAKES)
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flag):
    arg, field, value = FLAG_VALUES[flag]
    argv = [command, flag, arg]
    if flag in TAKES[command]:
        cfg = RunConfig(**vars(build_parser().parse_args(argv)))
        assert cfg == RunConfig(command, **{field: value})
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"g2kit: error: unrecognized arguments: {flag} {arg}"
    ]


@pytest.mark.parametrize("command", TAKES)
def test_help_lists_exactly_the_flags_a_subcommand_takes(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = {word.strip("[],") for word in capsys.readouterr().out.split() if word.startswith(("--", "[--"))}
    assert listed == TAKES[command] | {"--help"}


def test_config_echoes_the_defaults_of_flags_a_subcommand_does_not_take(capsys):
    assert main(["tables", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["seed"], config["trials"], config["convention"], config["input"]) == (0, 200, "auto", None)


def test_classify_heisenberg(tmp_path, capsys):
    _, _, t = heisenberg_model()
    path = write_matrix(tmp_path, t)
    code = main(["classify", "--input", path, "--frame", "cayley", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == ["X2"]
    assert report["integrand"] == "-1/6"
    assert report["predicted_scalar"] == "-1"
    assert report["notes"] == []


def test_classify_vector_input_flags_scaling_note(tmp_path, capsys):
    from g2kit import build_cayley_frame

    frame = build_cayley_frame()
    a_z = cross_operator(Vec7.basis(1), frame)
    path = write_matrix(tmp_path, a_z)
    code = main(["classify", "--input", path, "--frame", "cayley", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"] == ["X4"]
    assert report["predicted_scalar"] is None
    assert any("factor of 2" in n for n in report["notes"])
    assert report["chi"] == ["0", "-6", "0", "0", "0", "0", "0"]


def test_classify_missing_input_is_usage_error(capsys):
    assert main(["classify", "--format", "json"]) == 2
    assert "error" in capsys.readouterr().err


def test_classify_parse_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"matrix": [[1, 2,\n  oops]]}')
    assert main(["classify", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def assert_one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry",
    ["x+1", "1/0", float("inf")],
    ids=["non-rational", "zero-denominator", "infinity"],
)
def test_classify_non_rational_entry_rejected(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    rows = [["0"] * 7 for _ in range(7)]
    rows[0][0] = entry
    path.write_text(json.dumps({"matrix": rows}))  # inf is written as Infinity
    assert_one_line_usage_error(main(["classify", "--input", str(path)]), capsys)


def test_nilmanifold_report(capsys):
    code = main(["nilmanifold", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scalar_curvature"] == "-1"
    assert report["integrand"] == "-1/6"
    assert report["s_over_6"] == "-1/6"
    assert report["s_g2perp"] == "-1/3"
    assert report["classification"]["flags"] == ["X2"]
    diff = report["connection_reference_diff"]
    assert len(diff) == 1 and (diff[0]["i"], diff[0]["j"]) == (4, 5)
    assert report["curvature_multiset"] == {"-3/4": 4, "1/4": 8}
    assert report["torsion_forms"]["vanishing"] == ["tau0", "tau1", "tau3"]
    assert report["bryant"]["reconciling_conventions"] == ["form"]
    assert report["bryant"]["tau_norms_form"]["tau2_sq"] == "2"
    assert report["r_map_convention"] == "form"
    assert report["passed"] is True
    assert all(report["checks"].values())


def test_nilmanifold_custom_algebra_input(tmp_path, capsys):
    # one-bracket algebra [e0, e1] = e2 against the standard frame
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 7, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}))
    code = main(["nilmanifold", "--input", str(path), "--frame", "standard", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["frame"] == "standard"
    assert out["checks"]["s_g2perp_equals_s_over_3"] is True
    assert out["checks"]["tau_flags_match_classification"] is True
    assert "connection_reference_diff" not in out
    assert Fraction(out["scalar_curvature"]) == Fraction(-1, 2)


@pytest.mark.parametrize("frame", ["standard", "cayley"])
def test_nilmanifold_abelian_algebra_input(tmp_path, capsys, frame):
    # no bracket at all: s is the empty sum of the diagonal, and every check holds
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 7, "brackets": []}))
    code = main(["nilmanifold", "--input", str(path), "--frame", frame, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["scalar_curvature"] == out["s_g2perp"] == out["integrand"] == "0"
    assert out["curvature_diagonal"]["rows"] == [] and out["curvature_multiset"] == {}
    assert out["checks"]["integral_formula_balanced"] is True
    assert all(out["checks"].values()) and out["passed"] is True


def one_bracket(**bracket):
    return {"dim": 7, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}, **bracket}]}


@pytest.mark.parametrize(
    "doc",
    [
        one_bracket(j=9),
        one_bracket(i=-1),
        one_bracket(coeffs={"7": "1"}),
        one_bracket(coeffs={"2": "1/0"}),
        one_bracket(coeffs={"2": float("inf")}),
        [],
        one_bracket(coeffs=["x"]),
        one_bracket(j=1.9),
        {"dim": 7.5, "brackets": []},
        one_bracket(i=True, j=2),
        {"dim": 7, "bracket": one_bracket()["brackets"]},
        {"dim": 7, "brackets": [{"i": 0, "j": 1, "coef": {"2": "1"}}]},
    ],
    ids=[
        "bracket-index-9",
        "bracket-index-minus-1",
        "coeff-index-7",
        "zero-denominator",
        "infinity",
        "top-level-array",
        "coeffs-array",
        "fractional-index",
        "fractional-dim",
        "bool-index",
        "misspelled-brackets",
        "misspelled-coeffs",
    ],
)
def test_nilmanifold_malformed_algebra_rejected(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_one_line_usage_error(main(["nilmanifold", "--input", str(path)]), capsys)


@pytest.mark.parametrize(
    "command, content",
    [
        ("classify", b"\xff\xfe"),
        ("nilmanifold", b"\xff\xfe"),
        ("classify", b"[" + b"1" * 5000 + b"]"),
        ("nilmanifold", b"[" + b"1" * 5000 + b"]"),
        ("classify", json.dumps({"matrix": ["1234567"] * 7}).encode()),
        ("classify", json.dumps({"matrix": [["0"] * 7] * 7, "frame": "cayley"}).encode()),
    ],
    ids=[
        "classify-invalid-utf8",
        "nilmanifold-invalid-utf8",
        "classify-int-past-digit-limit",
        "nilmanifold-int-past-digit-limit",
        "classify-rows-as-strings",
        "classify-key-outside-schema",
    ],
)
def test_unusable_input_file_rejected(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert_one_line_usage_error(main([command, "--input", str(path)]), capsys)


def count_calls(monkeypatch, *names):
    """Wrap each named g2kit function ("module.function") in a call counter
    at every binding in a g2kit module namespace, since ``from .x import y``
    copies the binding."""
    import importlib
    import sys

    modules = [m for name, m in list(sys.modules.items()) if name == "g2kit" or name.startswith("g2kit.")]
    counts = {}

    def counter(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    for name in names:
        module, key = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"g2kit.{module}"), key)
        counts[key] = 0
        wrapper = counter(key, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_nilmanifold_does_each_computation_once(tmp_path, monkeypatch):
    from g2kit import liealg
    from g2kit.forms import KForm
    from g2kit.liealg import ConnectionTable, MetricLieAlgebra, TorsionForms

    counts = count_calls(
        monkeypatch,
        "liealg.koszul",
        "liealg._curvature_entries",
        "liealg.torsion_forms",
        "liealg._ce_table",
        "liealg.codifferential",
        "liealg.curvature_diagonal",
        "liealg.g2perp_scalar_curvature",
        "liealg.alt_scalar_curvature",
        "liealg.nabla_form",
        "liealg.r_map",
        "so7.decompose_endo",
        "invariants.i0",
        "invariants.i1",
        "invariants.i2",
        "invariants.sigma2",
        "torsion.torsion_energies",
        "torsion.characteristic_vector",
        "linalg.int_matmul",
    )
    methods = {
        "jacobi_defect": (MetricLieAlgebra, "jacobi_defect"),
        "norms_sq": (TorsionForms, "norms_sq"),
        "vanishing": (TorsionForms, "vanishing"),
        # the Fraction views, which the report prints from the integer grids instead
        "algebra_entries": (MetricLieAlgebra, "nonzero_entries"),
        "connection_entries": (ConnectionTable, "nonzero_entries"),
        "form_terms": (KForm, "terms"),
    }

    def method_counter(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name, (cls, attr) in methods.items():
        counts[name] = 0
        monkeypatch.setattr(cls, attr, method_counter(name, getattr(cls, attr)))
    # the (anti)derivation kernel as liealg calls it, not as forms does
    counts["liealg_derivation"] = 0
    monkeypatch.setattr(liealg, "_derivation", method_counter("liealg_derivation", liealg._derivation))

    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(one_bracket()))
    # freshly built frames with empty stores, so that each report's frame is
    # cold or warm as listed
    for build in cli.FRAMES.values():
        build.cache_clear()
        build()
    for cfg, cold in (
        (RunConfig(command="nilmanifold", fmt="json"), True),
        (RunConfig(command="nilmanifold", input_path=str(path), frame="cayley", fmt="json"), False),
        (RunConfig(command="nilmanifold", input_path=str(path), convention="tensor", fmt="text"), True),
    ):
        for name in counts:
            counts[name] = 0
        code, _ = run(cfg)
        assert code == 0
        assert counts == {
            "koszul": 1,
            # one read of the R_ijji, which s is summed from, and of the
            # entries s_g2perp pairs, in one pass
            "_curvature_entries": 1,
            "curvature_diagonal": 0,
            "g2perp_scalar_curvature": 0,
            "torsion_forms": 1,
            # one Chevalley-Eilenberg table for d phi and d star_phi, and
            # delta tau1 read as <tau1, H>: the derivation kernel runs for
            # d phi and d star_phi, and once per frame for the r table
            "_ce_table": 1,
            "codifferential": 0,
            "liealg_derivation": 3 if cold else 2,
            # r is read off the frame's table, with no nabla phi
            "nabla_form": 0,
            "r_map": 0,
            # the invariants and the divergence terms are read off the part
            # norms of the one split, and chi off its vector part
            "decompose_endo": 1,
            "i0": 0,
            "i1": 0,
            "i2": 0,
            "sigma2": 0,
            "alt_scalar_curvature": 0,
            "torsion_energies": 0,
            "characteristic_vector": 0,
            # the projection kernels read single entries, not dense products
            "int_matmul": 0,
            # the input path checks the Jacobi identity; koszul does not
            "jacobi_defect": 0 if cfg.input_path is None else 1,
            # one norms_sq per convention, which the Bryant check and the
            # report both read, whichever conventions the report prints
            "norms_sq": 2,
            "vanishing": 1,
            "algebra_entries": 0,
            "connection_entries": 0,
            "form_terms": 0,
        }
        # the r table stays on the report's frame
        assert "_r_table" in vars(cli.FRAMES[cfg.frame if cfg.input_path else "cayley"]())


@pytest.mark.parametrize("shape", ["heisenberg", "vector"])
def test_classify_does_each_computation_once(tmp_path, monkeypatch, shape):
    _, frame, t = heisenberg_model()
    if shape == "vector":
        t = t + cross_operator(Vec7.basis(2), frame)
    path = write_matrix(tmp_path, t)
    counts = count_calls(
        monkeypatch,
        "so7.decompose_endo",
        "invariants.i0",
        "invariants.i1",
        "invariants.i2",
        "invariants.sigma2",
        "invariants.char_poly",
        "torsion.characteristic_vector",
    )
    original = EndoSplit.part_norms_sq
    counts["part_norms_sq"] = 0

    def part_norms_sq(*args, **kwargs):
        counts["part_norms_sq"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(EndoSplit, "part_norms_sq", part_norms_sq)
    code, out = run(RunConfig(command="classify", input_path=path, frame="cayley", fmt="json"))
    assert code == 0
    assert ("X4" in json.loads(out)["flags"]) == (shape == "vector")
    # the invariants are read off the part norms of the one split, and chi
    # off its vector part; no kernel runs
    kernels = ("i0", "i1", "i2", "sigma2", "characteristic_vector")
    assert counts == {name: 0 if name in kernels else 1 for name in counts}


PAST_DIGIT_LIMIT_WHEN_RENDERED = {
    # a valid input whose characteristic polynomial needs about 4,900 digits
    "classify": {"matrix": [["1e700" if i == j else "0" for j in range(7)] for i in range(7)]},
    # a valid 2,500-digit coefficient, whose curvature needs about 5,000 digits
    "nilmanifold": {"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": "7" * 2500}}]},
}


@pytest.mark.parametrize("command", sorted(PAST_DIGIT_LIMIT_WHEN_RENDERED))
def test_report_past_digit_limit_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(PAST_DIGIT_LIMIT_WHEN_RENDERED[command]))
    for fmt in ("json", "text"):
        code = main([command, "--input", str(path), "--format", fmt])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: cannot render the report: ") and len(err.splitlines()) == 1


INPUT_DOCUMENTS = {
    "classify": lambda entry: {"matrix": [[entry if i == j == 0 else "0" for j in range(7)] for i in range(7)]},
    "nilmanifold": lambda entry: {"dim": 7, "brackets": [{"i": 0, "j": 5, "coeffs": {"6": entry}}]},
}


@pytest.mark.parametrize("entry", ["1e1000000", "1e-1000000", "1e10000000"])
@pytest.mark.parametrize("command", sorted(INPUT_DOCUMENTS))
def test_input_exponent_past_digit_limit_is_usage_error(command, entry, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(INPUT_DOCUMENTS[command](entry)))
    start = time.perf_counter()
    code = main([command, "--input", str(path)])
    # rejected while parsing, before 10^|E| is formed (10^10000000 takes seconds)
    assert time.perf_counter() - start < 1
    assert_one_line_usage_error(code, capsys)


@pytest.mark.parametrize("command", sorted(INPUT_DOCUMENTS))
def test_digit_limit_spellings_print_one_message(command, tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.json"

    def error_line(document: str) -> str:
        path.write_text(document)
        code = main([command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    spellings = ("1" * (limit + 1), f"1e{limit}", "1" * (limit + 1) + ".5")
    [line] = {error_line(json.dumps(INPUT_DOCUMENTS[command](entry))) for entry in spellings}
    assert f"more than {limit} digits" in line and "set_int_max_str_digits" not in line
    # a JSON number literal fails inside json.load, with the same message
    literal = error_line(json.dumps(INPUT_DOCUMENTS[command]("N")).replace('"N"', "1" * (limit + 1)))
    assert literal.endswith(line.partition(f"{path}: ")[2])


ADVERSARIAL = GOLDEN / "inputs" / "adversarial"


def adversarial_document(command: str, kind: str) -> str:
    """A corpus document too large to commit: 100,000 levels of nesting
    (past the recursion limit of json.load), or a 10^6-element list as a
    rational or as a bracket, values that the error message echoes."""
    if kind == "deep":
        return json.dumps(INPUT_DOCUMENTS[command]("N")).replace('"N"', "[" * 100_000 + "]" * 100_000)
    long_list = [0] * 10**6
    if kind == "long-entry":
        return json.dumps(INPUT_DOCUMENTS[command](long_list))
    return json.dumps({"dim": 7, "brackets": [long_list]})


# each case is "<command>-<kind>", a committed file or a generated kind
ADVERSARIAL_CASES = [path.stem for path in sorted(ADVERSARIAL.glob("*.json"))]
ADVERSARIAL_CASES += [f"{command}-{kind}" for command in sorted(INPUT_DOCUMENTS) for kind in ("deep", "long-entry")]
ADVERSARIAL_CASES.append("nilmanifold-long-bracket")


@pytest.mark.parametrize("case", ADVERSARIAL_CASES)
def test_adversarial_input_is_one_short_usage_error(case, tmp_path, capsys):
    command, _, kind = case.partition("-")
    path = ADVERSARIAL / f"{case}.json"
    if not path.exists():
        path = tmp_path / "doc.json"
        path.write_text(adversarial_document(command, kind))
    start = time.perf_counter()
    code = main([command, "--input", str(path)])
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err.rstrip("\n").encode()) <= 300


def test_nilmanifold_rejects_non_jacobi_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 7,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"1": "1"}},
                    {"i": 1, "j": 2, "coeffs": {"3": "1"}},
                ],
            }
        )
    )
    assert main(["nilmanifold", "--input", str(path)]) == 2
    assert "Jacobi" in capsys.readouterr().err


def test_tables_standard(capsys):
    code = main(["tables", "--frame", "standard", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [1, 2, 3, 1] in report["triples"]
    assert report["ordered_entry_count"] == 42
    assert report["label_offset"] == 1
    assert len(report["star_quadruples"]) == 7


def test_tables_cayley(capsys):
    code = main(["tables", "--frame", "cayley", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [0, 1, 3, 1] in report["triples"]
    assert report["label_offset"] == 0
    assert report["orientation"] == -1


def test_determinism_byte_identical_all_commands(tmp_path):
    _, _, t = heisenberg_model()
    path = write_matrix(tmp_path, t)
    configs = [
        RunConfig(command="identities", seed=3, trials=10, fmt="json"),
        RunConfig(command="identities", seed=3, trials=10, fmt="text"),
        RunConfig(command="classify", frame="cayley", input_path=path, fmt="json"),
        RunConfig(command="classify", frame="cayley", input_path=path, fmt="text"),
        RunConfig(command="nilmanifold", fmt="json"),
        RunConfig(command="nilmanifold", fmt="text"),
        RunConfig(command="tables", frame="cayley", fmt="json"),
        RunConfig(command="tables", frame="standard", fmt="text"),
    ]
    for cfg in configs:
        first = run(cfg)
        second = run(cfg)
        assert first == second
        assert first[1].encode() == second[1].encode()


def test_seed_changes_are_still_deterministic():
    a = run(RunConfig(command="identities", seed=1, trials=8, fmt="json"))
    b = run(RunConfig(command="identities", seed=2, trials=8, fmt="json"))
    assert a[0] == 0 and b[0] == 0  # same verdict for any seed


def test_text_rendering_has_stable_shape():
    code, out = run(RunConfig(command="tables", frame="standard", fmt="text"))
    assert code == 0
    assert "triples:" in out
    assert out.endswith("\n")


# ---------------------------------------------------------------------------
# identities: the Cayley frame in a forked child
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is POSIX only")


def count_forks(monkeypatch) -> list:
    """Wrap os.fork with a counter; the list grows by one per fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    # ECHILD: no child of this process is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_frames(monkeypatch) -> list:
    """Record the frames whose suites run in this process; a forked child's
    calls are not seen."""
    frames_here = []
    real = cli._identities_for_frame

    def identities_for_frame(frame_name, frame, seed, trials):
        frames_here.append(frame_name)
        return real(frame_name, frame, seed, trials)

    monkeypatch.setattr(cli, "_identities_for_frame", identities_for_frame)
    return frames_here


def run_both_routes(monkeypatch, capsys, argv):
    """main(argv) as (exit code, stdout), the Cayley frame in a forked child, then in this process."""
    frames_here = record_frames(monkeypatch)
    forks = count_forks(monkeypatch)
    forked = main(argv), capsys.readouterr().out
    assert len(forks) == 1  # the thread guard must not turn the fork off here
    assert frames_here == ["standard"]  # the child's suites were used
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    in_process = main(argv), capsys.readouterr().out
    assert frames_here == ["standard", "standard", "cayley"]
    return forked, in_process


@needs_fork
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_identities_forked_and_in_process_reports_match(monkeypatch, capsys, seed, fmt):
    argv = f"identities --seed {seed} --trials 15 --format {fmt}".split()
    forked, in_process = run_both_routes(monkeypatch, capsys, argv)
    assert forked[0] == in_process[0] == 0
    assert forked[1].encode() == in_process[1].encode()


@needs_fork
@pytest.mark.parametrize("name", sorted(name for name, argv in GOLDENS.items() if argv[0] == "identities"))
def test_identities_goldens_on_the_forked_route(monkeypatch, capsys, name):
    # test_golden runs each identities golden in this process, fork or not
    frames_here = record_frames(monkeypatch)
    forks = count_forks(monkeypatch)
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
    assert len(forks) == 1 and frames_here == ["standard"]
    assert_no_child_left()


FLIPPED_GOLDEN = GOLDEN / "identities-cayley-flipped-seed0-trials15.json"


def flip_cayley_table(monkeypatch):
    """Make FRAMES["cayley"] build the Cayley frame with its first eps triple
    sign-flipped, as in test_frames.test_corrupt_table_fails_with_witness."""
    triples = list(build_cayley_frame().table.base_triples)
    i, j, k, sign = triples[0]
    triples[0] = (i, j, k, -sign)
    corrupt = G2Frame.from_table(CrossTable(tuple(triples), label_offset=0))
    monkeypatch.setitem(cli.FRAMES, "cayley", lambda: corrupt)


def test_exit_code_mapping_on_failed_suite(monkeypatch, capsys):
    flip_cayley_table(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    assert main(["identities", "--seed", "0", "--trials", "15", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["passed"] is False
    assert out.encode() == FLIPPED_GOLDEN.read_bytes()


@needs_fork
def test_identities_sign_flipped_cayley_table_fails_alike_on_both_routes(monkeypatch, capsys):
    flip_cayley_table(monkeypatch)
    forked, in_process = run_both_routes(monkeypatch, capsys, "identities --seed 0 --trials 15 --format json".split())
    assert forked[0] == in_process[0] == 1
    assert forked[1].encode() == in_process[1].encode() == FLIPPED_GOLDEN.read_bytes()
    suites = json.loads(forked[1])["suites"]
    failed = [s for s in suites if not s["passed"]]
    assert failed and {s["frame"] for s in failed} == {"cayley"}
    assert all(s["failures"] for s in failed)


@needs_fork
@pytest.mark.parametrize("broken", ["standard", "cayley"])
def test_identities_frame_exception_surfaces_in_parent(monkeypatch, broken):
    real = cli._identities_for_frame

    def identities_for_frame(frame_name, frame, seed, trials):
        if frame_name == broken:
            raise RuntimeError(f"{frame_name} frame broke")
        return real(frame_name, frame, seed, trials)

    monkeypatch.setattr(cli, "_identities_for_frame", identities_for_frame)
    forks = count_forks(monkeypatch)
    cfg = RunConfig(command="identities", seed=0, trials=15, fmt="json")
    with pytest.raises(RuntimeError, match=f"{broken} frame broke"):
        run(cfg)
    # a broken child is outlived and reaped; a raising parent kills its child
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    with pytest.raises(RuntimeError, match=f"{broken} frame broke"):
        run(cfg)


@needs_fork
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda dumps, suites: b"not marshal data",
        lambda dumps, suites: dumps(suites)[:-5],
        lambda dumps, suites: dumps([dict(s, frame="standard") for s in suites]),
        lambda dumps, suites: dumps({"suites": suites}),
    ],
    ids=["garbage", "truncated", "wrong-frame", "wrong-shape"],
)
def test_identities_bad_child_data_falls_back_to_this_process(monkeypatch, corrupt):
    # only the child encodes with marshal.dumps, so this corrupts what it sends
    real_dumps = marshal.dumps
    monkeypatch.setattr(marshal, "dumps", lambda suites: corrupt(real_dumps, suites))
    assert_falls_back(monkeypatch)


def assert_falls_back(monkeypatch):
    """The child forks but its suites are not used: this process runs the
    Cayley frame itself, with the same report bytes."""
    frames_here = record_frames(monkeypatch)
    forks = count_forks(monkeypatch)
    code, text = run(RunConfig(command="identities", seed=3, trials=15, fmt="json"))
    assert len(forks) == 1
    assert frames_here == ["standard", "cayley"]
    assert_no_child_left()
    assert code == 0
    assert text.encode() == (GOLDEN / "identities-seed3-trials15.json").read_bytes()


@needs_fork
def test_identities_child_nonzero_exit_falls_back_to_this_process(monkeypatch):
    # the child sends good suites but exits 3
    real_exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    assert_falls_back(monkeypatch)


@needs_fork
def test_identities_fork_error_runs_both_frames_here(monkeypatch):
    def fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    frames_here = record_frames(monkeypatch)
    open_fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    code, text = run(RunConfig(command="identities", seed=3, trials=15, fmt="json"))
    assert frames_here == ["standard", "cayley"]
    assert code == 0
    assert text.encode() == (GOLDEN / "identities-seed3-trials15.json").read_bytes()
    if open_fds is not None:
        assert set(os.listdir("/proc/self/fd")) == open_fds  # the pipe is closed
