"""Command-line front end.

Subcommands: ``identities`` (exhaustive and seeded identity suites),
``classify`` (class flags and invariants of a matrix from a JSON file),
``nilmanifold`` (the full built-in nilmanifold verification report) and
``tables`` (signed eps-table dump).  Each command builds its report,
which ``g2kit.serialize.render`` writes as text or JSON; identical
configurations produce byte-identical reports.  Exit codes: 0 success,
1 identity or check failure, 2 usage or parse error.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from .forms import FORM, TENSOR
from .frames import (
    CheckReport,
    G2Frame,
    build_cayley_frame,
    build_standard_frame,
    check_epsilon_identities,
    cross,
    star_phi_pairing_check,
    validate_cross_axioms,
)
from .invariants import (
    i0,
    i1,
    i2,
    invariant_report_from_norms,
    part_norm_invariants,
    special_case_check,
    verify_quadratic_relations,
)
from .liealg import (
    HEISENBERG_REFERENCE_CURVATURE_MULTISET,
    alt_scalar_curvature,
    bryant_scalar_check,
    connection_reference_diff,
    curvature_scalars,
    divergence_balance,
    geometry_torsion_report,
    heisenberg_model,
    koszul,
    torsion_forms,
)
from .linalg import Mat7, _Record
from .sampling import (
    rand_fraction,
    rand_mat,
    rand_nonzero_vec,
    rand_symmetric,
    rand_vec,
    rand_vector_free,
)
from .serialize import (
    DigitLimitError,
    _digit_limit_error,
    algebra_from_json,
    algebra_to_json,
    bryant_to_json,
    connection_to_json,
    divergence_to_json,
    endo_split_to_json,
    form_to_json,
    integer_terms_to_json,
    invariants_to_json,
    mat_from_json,
    mat_to_json,
    norms_to_json,
    rational_str,
    render,
    torsion_class_to_json,
    vec_to_json,
)
from .so7 import cross_operator, split_so7
from .torsion import (
    VECTOR_CLASS_SCALING_NOTE,
    characteristic_vector,
    classify,
    torsion_energies,
)

FRAMES = {"standard": build_standard_frame, "cayley": build_cayley_frame}


class RunConfig(_Record):
    command: str
    seed: int = 0
    trials: int = 200
    frame: str = "standard"
    convention: str = "auto"
    input_path: str | None = None
    fmt: str = "text"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "trials": self.trials,
            "frame": self.frame,
            "convention": self.convention,
            "input": self.input_path,
            "format": self.fmt,
        }


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _suite(name: str, frame_name: str, failures: list[str] | tuple[str, ...], cases: int) -> dict:
    return {
        "suite": name,
        "frame": frame_name,
        "cases": cases,
        "passed": not failures,
        "failures": list(failures[:3]),
    }


def _check_suite(name: str, frame_name: str, rep: CheckReport, *count_names: str) -> dict:
    counts = dict(rep.counts)
    return _suite(name, frame_name, rep.failures, sum(counts[c] for c in count_names))


def _bracket_projection(frame: G2Frame, rng: Random, t: int) -> str | None:
    u, v = rand_vec(rng), rand_vec(rng)
    au, av = cross_operator(u, frame), cross_operator(v, frame)
    comm = au @ av - av @ au
    g2part, w = split_so7(comm, frame)
    passed = w == cross(u, v, frame) and cross_operator(w, frame) == comm - g2part
    return None if passed else f"bracket projection fails on trial {t}"


def _quadratic_relations(frame: G2Frame, rng: Random, t: int) -> str | None:
    passed = verify_quadratic_relations(rand_mat(rng), frame).passed
    return None if passed else f"quadratic relations fail on trial {t}"


def _special_cases(frame: G2Frame, rng: Random, t: int) -> str | None:
    for sample in (
        # scalar, symmetric, and cross-operator shapes
        Mat7.identity().scale(rand_fraction(rng)),
        rand_symmetric(rng),
        cross_operator(rand_vec(rng), frame),
    ):
        rep = special_case_check(sample, frame)
        if not rep.passed:
            return f"special case fails on trial {t}: {rep.failures[:1]}"
    return None


def _characteristic_vector(frame: G2Frame, rng: Random, t: int) -> str | None:
    if not characteristic_vector(rand_vector_free(rng, frame), frame).is_zero():
        return f"characteristic vector nonzero for vector-free input, trial {t}"
    z = rand_nonzero_vec(rng)
    if characteristic_vector(cross_operator(z, frame), frame) != z.scale(-6):
        return f"characteristic vector != -6Z for cross operator, trial {t}"
    return None


def _torsion_energy_difference(frame: G2Frame, rng: Random, t: int) -> str | None:
    m = rand_mat(rng)
    chi_sq, alt_sq, sym_sq = torsion_energies(m, frame)
    passed = chi_sq + alt_sq - sym_sq == i1(m, frame) - i2(m, frame)
    return None if passed else f"torsion energy difference fails on trial {t}"


def _alt_scalar_vs_i0(frame: G2Frame, rng: Random, t: int) -> str | None:
    m = rand_mat(rng)
    passed = alt_scalar_curvature(m, frame) == i0(m, frame)
    return None if passed else f"alternating scalar curvature != i0 on trial {t}"


# The seeded suites in report order: name, trials for --trials n, cases per
# trial, and the trial, which returns its failure message or None.  Row k
# draws from the stream Random(seed + k).
SEEDED_SUITES = (
    ("bracket-projection", lambda n: n, 1, _bracket_projection),
    ("quadratic-relations", lambda n: n, 1, _quadratic_relations),
    ("special-cases", lambda n: max(1, n // 3), 3, _special_cases),
    ("characteristic-vector", lambda n: n, 2, _characteristic_vector),
    ("torsion-energy-difference", lambda n: n, 1, _torsion_energy_difference),
    ("alt-scalar-vs-i0", lambda n: max(1, n // 4), 1, _alt_scalar_vs_i0),
)


def _seeded_suites(frame_name: str, frame: G2Frame, seed: int, trials: int) -> list[dict]:
    """Run each row of SEEDED_SUITES on its own stream, up to and including
    the first failing trial; a suite's cases are its cases per trial times
    the trials run."""
    suites = []
    for k, (name, trial_count, per_trial, trial) in enumerate(SEEDED_SUITES):
        rng = Random(seed + k)
        count = trial_count(trials)
        failures = []
        for t in range(count):
            failure = trial(frame, rng, t)
            if failure is not None:
                failures.append(failure)
                count = t + 1
                break
        suites.append(_suite(name, frame_name, failures, per_trial * count))
    return suites


def _identities_for_frame(frame_name: str, frame: G2Frame, seed: int, trials: int) -> list[dict]:
    eps = check_epsilon_identities(frame)
    axioms = validate_cross_axioms(frame, seed=seed, trials=trials)
    return [
        _check_suite("epsilon-identities", frame_name, eps, "cases"),
        _check_suite("cross-product-axioms", frame_name, axioms, "basis_triples", "seeded_triples"),
        _check_suite("star-phi-pairing", frame_name, star_phi_pairing_check(frame), "quadruples"),
        *_seeded_suites(frame_name, frame, seed, trials),
    ]


def _frame_suites(frame_name: str, seed: int, trials: int) -> list[dict]:
    return _identities_for_frame(frame_name, FRAMES[frame_name](), seed, trials)


@contextmanager
def _frame_in_child(frame_name: str, seed: int, trials: int):
    """Run one frame's suites in a child made by ``os.fork``, beside the caller.

    Yields a function that waits for the child and returns its suites, or
    None when there is no child or it failed (nonzero exit, bad data); the
    caller then runs the frame itself.  There is no child without
    ``os.fork`` (Windows) or while other threads run: forking then can
    deadlock the child, and Python 3.12+ warns.  The child sends the suites
    over a pipe, marshal-encoded (built in, so no import adds to the peak
    RSS), and ends only through ``os._exit``, so no atexit handler, test
    teardown or buffered stdout it inherited runs twice.  The child is
    reaped on every path; if the block raises before collecting it, it is
    killed first.
    """
    if not (hasattr(os, "fork") and threading.active_count() == 1):
        yield lambda: None
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield lambda: None
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                out.write(marshal.dumps(_frame_suites(frame_name, seed, trials)))
            code = 0
        finally:
            os._exit(code)
    reaped = False

    def collect() -> list[dict] | None:
        nonlocal reaped
        with open(read_fd, "rb", closefd=False) as inp:
            payload = inp.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        try:
            suites = marshal.loads(payload)
        except (EOFError, ValueError, TypeError):
            return None
        if isinstance(suites, list) and all(isinstance(s, dict) and s.get("frame") == frame_name for s in suites):
            return suites
        return None

    try:
        os.close(write_fd)
        yield collect
    finally:
        os.close(read_fd)
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_identities(cfg: RunConfig) -> tuple[int, dict]:
    # the frames share no state, so the Cayley frame runs in a forked child
    # while this process runs the standard frame; its suites follow the
    # standard ones, as when both run here
    with _frame_in_child("cayley", cfg.seed, cfg.trials) as collect:
        suites = _frame_suites("standard", cfg.seed, cfg.trials)
        cayley = collect()
    if cayley is None:
        # a deterministic failure of the child raises here, with its traceback
        cayley = _frame_suites("cayley", cfg.seed, cfg.trials)
    suites.extend(cayley)
    passed = all(s["passed"] for s in suites)
    report = {
        "command": "identities",
        "config": cfg.to_dict(),
        "suites": suites,
        "passed": passed,
    }
    return (0 if passed else 1), report


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"parse failure in {path}: nested too deeply to read") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"parse failure in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"parse failure in {path}: {exc}") from exc
    except ValueError as exc:
        # the one other failure of json.load: an integer literal past the
        # int/str digit limit, worded as for a string entry
        raise UsageError(f"parse failure in {path}: {_digit_limit_error()}") from exc


def cmd_classify(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.input_path is None:
        raise UsageError("classify needs --input pointing to a JSON matrix file")
    data = _read_json(cfg.input_path)
    try:
        t = mat_from_json(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"bad matrix in {cfg.input_path}: {exc}") from exc

    frame = FRAMES[cfg.frame]()
    cls = classify(t, frame)
    values = part_norm_invariants(cls.part_norms_sq)
    inv = invariant_report_from_norms(t, values)
    integrand = values["integrand"]
    notes = []
    predicted = None
    if "X4" in cls.flags:
        notes.append(VECTOR_CLASS_SCALING_NOTE)
    else:
        # no vector class: the predicted scalar curvature is 6 * integrand
        predicted = rational_str(6 * integrand)
    report = {
        "command": "classify",
        "config": cfg.to_dict(),
        "flags": sorted(cls.flags),
        "split": endo_split_to_json(cls.split, cls.part_norms_sq),
        "invariants": invariants_to_json(inv),
        "chi": vec_to_json(cls.chi),
        "integrand": rational_str(integrand),
        "predicted_scalar": predicted,
        "notes": notes,
    }
    return 0, report


# ---------------------------------------------------------------------------
# nilmanifold
# ---------------------------------------------------------------------------


def cmd_nilmanifold(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.input_path is not None:
        # custom left-invariant model from the documented JSON schema; the
        # requested frame applies, and the built-in reference tables do not
        data = _read_json(cfg.input_path)
        try:
            mla = algebra_from_json(data)  # checks the Jacobi identity
        except (ValueError, TypeError, KeyError) as exc:
            raise UsageError(f"bad algebra in {cfg.input_path}: {exc}") from exc
        frame = FRAMES[cfg.frame]()
        t_ref = None
    else:
        mla, frame, t_ref = heisenberg_model()
    conn = koszul(mla)
    # s = sum_ij R_ijji, read off the diagonal the report prints, which one
    # curvature pass reads with the entries s_g2perp pairs
    diag, s_perp = curvature_scalars(conn, mla, frame)
    s = sum((v for _, _, v in diag), Fraction(0))
    multiset = Counter(rational_str(v) for _, _, v in diag)
    geo = geometry_torsion_report(conn, frame)
    t = geo.torsion
    cls = classify(t, frame)
    values = part_norm_invariants(cls.part_norms_sq)
    inv = invariant_report_from_norms(t, values)
    integrand = values["integrand"]
    div = divergence_balance(values, cls.chi, s_perp)
    tf = torsion_forms(mla, frame)
    # the Bryant check reads both conventions, and the report prints them
    norms = {conv: tf.norms_sq(conv) for conv in (FORM, TENSOR)}
    vanishing = tf.vanishing()
    bryant = bryant_scalar_check(mla, frame, s, tf, norms)
    conventions = (FORM, TENSOR) if cfg.convention == "auto" else (cfg.convention,)

    chi_is_zero = "X4" not in cls.flags
    checks = {
        "s_g2perp_equals_s_over_3": s_perp == s / 3,
        "curvature_multiset_sums_to_s": sum(Fraction(k) * n for k, n in multiset.items()) == s,
        "curvature_multiplicities_even": all(n % 2 == 0 for n in multiset.values()),
        "tau_flags_match_classification": tf.class_flags() == cls.flags,
        "bryant_reconciles": bool(bryant.reconciling),
        "r_map_form_convention": geo.matched_convention == FORM,
    }
    if chi_is_zero:
        checks["integral_formula_balanced"] = integrand == s / 6

    report = {
        "command": "nilmanifold",
        "config": cfg.to_dict(),
        "frame": frame.name,
        "algebra": algebra_to_json(mla),
        "connection": connection_to_json(conn),
        "curvature_diagonal": {
            "columns": ["i", "j", "value"],
            "rows": [[i, j, rational_str(v)] for i, j, v in diag],
        },
        "curvature_multiset": multiset,
        "scalar_curvature": rational_str(s),
        "s_over_3": rational_str(s / 3),
        "s_g2perp": rational_str(s_perp),
        "s_over_6": rational_str(s / 6),
        "integrand": rational_str(integrand),
        "torsion_endo_derived": mat_to_json(t),
        "r_map_convention": geo.matched_convention,
        "invariants": invariants_to_json(inv),
        "classification": torsion_class_to_json(cls),
        "divergence": divergence_to_json(div),
        "torsion_forms": {
            "tau0": rational_str(tf.tau0),
            "tau1": form_to_json(tf.tau1),
            "tau2": form_to_json(tf.tau2),
            "tau3": form_to_json(tf.tau3),
            "vanishing": sorted(vanishing),
            "norms_sq": {conv: norms_to_json(norms[conv]) for conv in conventions},
        },
        "bryant": bryant_to_json(bryant, norms, vanishing),
    }
    if "X4" in cls.flags:
        report["notes"] = [VECTOR_CLASS_SCALING_NOTE]

    if t_ref is not None:
        ref_diff = connection_reference_diff(conn)
        checks["scalar_curvature_is_minus_1"] = s == Fraction(-1)
        checks["torsion_matches_reference_table"] = t == t_ref
        checks["classification_is_pure_X2"] = sorted(cls.flags) == ["X2"]
        checks["connection_diff_is_single_entry"] = len(ref_diff) == 1
        checks["tau0_tau1_tau3_vanish"] = vanishing >= {"tau0", "tau1", "tau3"}
        report["torsion_endo_reference"] = mat_to_json(t_ref)
        report["connection_reference_diff"] = [
            {
                "i": i,
                "j": j,
                "derived": vec_to_json(derived),
                "reference": vec_to_json(ref),
            }
            for i, j, derived, ref in ref_diff
        ]
        report["curvature_multiset_reference_claim"] = {
            "claim": {k: n for k, n in HEISENBERG_REFERENCE_CURVATURE_MULTISET},
            "note": "claimed multiplicities are odd, which the pair symmetry "
            "R_ijji = R_jiij rules out; only the sum (the scalar curvature) is checked",
        }

    report["checks"] = checks
    report["passed"] = all(checks.values())
    return (0 if report["passed"] else 1), report


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(cfg: RunConfig) -> tuple[int, dict]:
    frame = FRAMES[cfg.frame]()
    off = frame.label_offset
    report = {
        "command": "tables",
        "config": cfg.to_dict(),
        "frame": cfg.frame,
        "label_offset": off,
        "orientation": frame.orientation,
        "triples": [list(t) for t in frame.table.display_triples()],
        "ordered_entry_count": len(frame.table.nonzero_ordered()),
        "star_quadruples": integer_terms_to_json(frame.star_phi, off),
    }
    return 0, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    # imported here: only `main` parses arguments, and `run` callers skip the import
    import argparse

    parser = argparse.ArgumentParser(prog="g2kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("identities", "run the exhaustive and seeded identity suites"),
        ("classify", "classify a 7x7 rational matrix from a JSON file"),
        ("nilmanifold", "full verification report for the built-in nilmanifold model"),
        ("tables", "dump the signed eps tables of a frame"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--frame", choices=("standard", "cayley"), default="standard")
        p.add_argument("--convention", choices=("form", "tensor", "auto"), default="auto")
        p.add_argument("--input", dest="input_path", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    return parser


COMMANDS = {
    "identities": cmd_identities,
    "classify": cmd_classify,
    "nilmanifold": cmd_nilmanifold,
    "tables": cmd_tables,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute a configuration and return (exit code, rendered report)."""
    code, report = COMMANDS[cfg.command](cfg)
    return code, render(report, cfg.fmt)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "identities" and args.trials < 1:
        parser.error("--trials must be at least 1")
    try:
        # the parser's destinations are the RunConfig fields
        code, text = run(RunConfig(**vars(args)))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DigitLimitError as exc:
        print(f"error: cannot render the report: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
