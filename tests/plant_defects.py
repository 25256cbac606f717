"""Plant a relative defect of 1e-12 in each closed form, a wrong lane order
in the solver's float form of the fields, a loosened bound in each verdict,
in each pipeline's default threshold and in each bound of the domain, and
more work than the budget, and check that tier-1 sees each.

    python3 tests/plant_defects.py SCRATCH_DIR [NAME ...]

For each entry of DEFECTS (all of them, or the NAMEs given) the script
copies this checkout into SCRATCH_DIR/NAME, replaces one text in one source
file by the same expression times (1 + 1e-12), by its lanes in reverse
order (float_form_lane_order), by the same check against a looser bound
(the entries after it), or by code that does more work (the last three),
and runs tier-1 there.  It leaves out the
byte-manifest test, which would see any moved output and so shows nothing,
and the test that finds each planting text once, which fails on every
planted copy.  It prints the tests that fail on the defect and passed on a
clean copy, run first.  It exits 1 if a defect fails no test, and 2 if a
clean test fails, pytest cannot run the tests, or a planting text is not
found exactly once.  Each run takes as long as tier-1; the runs go one
after another.
"""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST_TEST = "tests/test_cli.py::test_outputs_match_the_manifest"
# fails on every planted copy, as the planted text is gone from it
TEXT_TEST = "tests/test_verdicts.py::test_every_planted_defect_finds_its_text_once"
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                ".perfbench_out")
F = " * (1 + 1e-12)"

# name -> (file under src/liesys, text, the text with its defect)
DEFECTS = {
    "dalembert_combination": (
        "group.py", "return k_prime * rows[:, :2] + k * rows[:, 2:]",
        f"return (k_prime * rows[:, :2] + k * rows[:, 2:]){F}"),
    "tau_pair_y": (
        "group.py", "return pos * c, vel * c + dc / pos, pos * s, vel * s + ds / pos",
        f"return pos * c{F}, vel * c + dc / pos, pos * s, vel * s + ds / pos"),
    "tau_pair_dy": (
        "group.py", "return pos * c, vel * c + dc / pos, pos * s, vel * s + ds / pos",
        f"return pos * c, (vel * c + dc / pos){F}, pos * s, vel * s + ds / pos"),
    "tau_pair_z": (
        "group.py", "return pos * c, vel * c + dc / pos, pos * s, vel * s + ds / pos",
        f"return pos * c, vel * c + dc / pos, pos * s{F}, vel * s + ds / pos"),
    "tau_pair_dz": (
        "group.py", "return pos * c, vel * c + dc / pos, pos * s, vel * s + ds / pos",
        f"return pos * c, vel * c + dc / pos, pos * s, (vel * s + ds / pos){F}"),
    "milne_pair_s": ("group.py", "sn / rk", f"sn / rk{F}"),
    "milne_pair_dc": ("group.py", "-rk * sn", f"-rk * sn{F}"),
    "tau_node_sums": (
        "integrate.py",
        "np.cumsum(_panel_integrals(self._f, times[:-1], times[1:], TAU_TOL))",
        f"np.cumsum(_panel_integrals(self._f, times[:-1], times[1:], TAU_TOL)){F}"),
    "pinney_s0_i1": (
        "superposition.py", "invariants = 0.5 * (v0 * v0 + k / x0**2),",
        f"invariants = 0.5 * (v0 * v0 + k / x0**2){F},"),
    "pinney_s0_i2": (
        "superposition.py", "0.5 * x0 * x0, 1.0, x0 * v0", f"0.5 * x0 * x0{F}, 1.0, x0 * v0"),
    "pinney_s0_root": (
        "superposition.py", "0.5 * x0 * x0, 1.0, x0 * v0", f"0.5 * x0 * x0, 1.0, x0 * v0{F}"),
    "linear_action": (
        "group.py", "return g.array @ np.asarray(p, dtype=float)",
        f"return g.array @ np.asarray(p, dtype=float){F}"),
    "quadrature_rule": (
        "superposition.py", "return k_prime * pos + k * pos * x1.tau_clock()(t)",
        f"return (k_prime * pos + k * pos * x1.tau_clock()(t)){F}"),
    "linear_rule": (
        "superposition.py", "return (k1 * x1 + k2 * x2) / k, (k1 * v1 + k2 * v2) / k",
        f"return (k1 * x1 + k2 * x2) / k{F}, (k1 * v1 + k2 * v2) / k{F}"),
    "keys_from": (
        "superposition.py", "return x * v2 - x2 * v, x1 * v - v1 * x",
        f"return (x * v2 - x2 * v){F}, (x1 * v - v1 * x){F}"),
    "float_form_lane_order": (
        "systems.py", "cols = [rows(w, p[j::lanes]) for j in range(lanes)]",
        "cols = [rows(w, p[j::lanes]) for j in range(lanes)][::-1]"),
    # each verdict's bound loosened: superpose and reduce share their check's
    # text, so the summary after it picks one
    "superpose_threshold": (
        "cli.py", 'ok = max_err < threshold\n    summary = {"rule"',
        'ok = max_err < 10 * threshold\n    summary = {"rule"'),
    "reduce_threshold": (
        "cli.py", 'ok = max_err < threshold\n    summary = {"method"',
        'ok = max_err < 10 * threshold\n    summary = {"method"'),
    "group_solve_threshold": (
        "cli.py", "ok = max_err < threshold and", "ok = max_err < 10 * threshold and"),
    "group_solve_det": ("cli.py", "GROUP_DET_BOUND = 1e-9", "GROUP_DET_BOUND = 1e-8"),
    "drift_threshold": (
        "cli.py", "series.drift_rel < threshold", "series.drift_rel < 10 * threshold"),
    "algebra_tol": (
        "vectorfield.py", "ok=worst_residual < tol", "ok=worst_residual < 10 * tol"),
    "compare_rel_denominator": (
        "integrate.py", "err / np.maximum(1.0, ", "err / np.maximum(2.0, "),
    "singularity_radius": (
        "integrate.py", "SINGULARITY_RADIUS = 1e-6", "SINGULARITY_RADIUS = 1e-7"),
    "criterion_7_analytic_bound": (
        "acceptance.py", "err, err < bound))", "err, err < 10 * bound))"),
    "criterion_8_valid": ("acceptance.py", "VALID_FLOOR = 900", "VALID_FLOOR = 0"),
    "criterion_8_fields": ("acceptance.py", "err_ff < 1e-5", "err_ff < 1e-4"),
    "criterion_9_invariant": ("acceptance.py", "err_inv < 1e-10", "err_inv < 1e-9"),
    # each pipeline's default threshold loosened 10x: superpose and reduce
    # share their default's text, so the line before it picks one
    "superpose_default": (
        "cli.py", "sysd, = _systems(scn)\n    abs_tol, rel_tol, threshold = "
        "_tolerances(scn, 1e-5)",
        "sysd, = _systems(scn)\n    abs_tol, rel_tol, threshold = "
        "_tolerances(scn, 1e-4)"),
    "reduce_default": (
        "cli.py", "forward=True)\n    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-5)",
        "forward=True)\n    abs_tol, rel_tol, threshold = _tolerances(scn, 1e-4)"),
    "verify_algebra_default": (
        "cli.py", "_tolerances(scn, 1e-9,", "_tolerances(scn, 1e-8,"),
    # drift and group-solve share their default's text, so the line after it
    # picks one
    "drift_default": (
        "cli.py", "_tolerances(scn, 1e-6)\n    states", "_tolerances(scn, 1e-5)\n    states"),
    "group_solve_default": (
        "cli.py", "_tolerances(scn, 1e-6)\n    times", "_tolerances(scn, 1e-5)\n    times"),
    # each bound of the domain loosened
    "max_steps": ("integrate.py", "MAX_STEPS = 10_000", "MAX_STEPS = 100_000"),
    "min_rel_tol": ("integrate.py", "MIN_REL_TOL = 100 * EPS", "MIN_REL_TOL = 10 * EPS"),
    "vanishing_position": (
        "integrate.py", "VANISHING_POSITION = 1e-9", "VANISHING_POSITION = 1e-10"),
    "window_margin": ("integrate.py", "WINDOW_MARGIN = 1e-12", "WINDOW_MARGIN = 0.0"),
    "gk_max_depth": ("integrate.py", "_GK_MAX_DEPTH = 10", "_GK_MAX_DEPTH = 20"),
    "parabolic_det": ("group.py", "_PARABOLIC_DET = 1e-12", "_PARABOLIC_DET = 1e-11"),
    "rank_tol": ("vectorfield.py", "RANK_TOL = 1e-8", "RANK_TOL = 1e-7"),
    "probes_per_level": (
        "vectorfield.py", "PROBES_PER_LEVEL = 11", "PROBES_PER_LEVEL = 3"),
    "jacobi_tol": ("vectorfield.py", "JACOBI_TOL = 1e-14", "JACOBI_TOL = 1e-13"),
    # more work than tests/work_budget.json allows
    "rk_step_extra_rhs_call": (
        "integrate.py", "    K[-1] = f_new\n",
        "    K[-1] = f_new\n    fun(t + h, y_new.tolist(), floats) if floats "
        "else fun(t + h, y_new)\n"),
    "step_safety": ("integrate.py", "SAFETY = 0.9", "SAFETY = 0.8"),
    "csv_written_twice": (
        "cli.py", "        write_csv(path, header, rows)\n",
        "        write_csv(path, header, rows)\n        write_csv(path, header, rows)\n"),
}


def failed_tests(checkout):
    """The node ids of the tier-1 tests that fail in ``checkout``."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", MANIFEST_TEST,
         "--deselect", TEXT_TEST],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if run.returncode not in (0, 1):  # 1: tests failed; any other: pytest did not run them
        raise SystemExit(f"pytest exited {run.returncode} in {checkout}:\n"
                         f"{run.stdout[-2000:]}")
    return sorted(set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)))


def copy_of_checkout(scratch, name):
    dest = os.path.join(scratch, name)
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(ROOT, dest, ignore=IGNORE)
    return dest


def source_of(checkout, path):
    with open(os.path.join(checkout, "src", "liesys", path)) as fh:
        return fh.read()


def plant(checkout, path, text, defect):
    source = source_of(checkout, path)
    with open(os.path.join(checkout, "src", "liesys", path), "w") as fh:
        fh.write(source.replace(text, defect))


def main(argv):
    if not argv or argv[0].startswith("-"):
        raise SystemExit(__doc__)
    scratch, names = os.path.abspath(argv[0]), argv[1:] or list(DEFECTS)
    unknown = set(names) - set(DEFECTS)
    if unknown:
        print(f"unknown defects: {sorted(unknown)}")
        return 2
    for name in names:
        path, text, _ = DEFECTS[name]
        if source_of(ROOT, path).count(text) != 1:
            print(f"{name}: the planting text is not found once in {path}")
            return 2
    clean = failed_tests(copy_of_checkout(scratch, "clean"))
    if clean:
        print("clean copy fails:", *clean, sep="\n  ")
        return 2
    survivors = []
    for name in names:
        checkout = copy_of_checkout(scratch, name)
        plant(checkout, *DEFECTS[name])
        failed = failed_tests(checkout)
        print(f"{name}: {len(failed)} failed", *failed, sep="\n  ", flush=True)
        if not failed:
            survivors.append(name)
        shutil.rmtree(checkout)
    print("survived:", ", ".join(survivors) if survivors else "none")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
