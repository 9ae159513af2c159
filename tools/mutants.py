"""Mutation checks: every mutant of ``src/`` must fail the tests chosen for it.

Each entry of ``MUTANTS`` names a file under ``src/``, an exact old text
that must occur there exactly once, the new text that replaces it, and
the pytest selection that must fail on the mutated code.  For each
mutant the script copies ``src/`` to a temporary directory, applies that
one mutant, checks that ``ghzlocal`` is imported from the copy, and runs
the selection there with ``-x``.  A mutant whose selection passes has
survived.  An old text that occurs zero or several times is an error,
so a refactor that moves the code updates its mutant instead of dropping
it silently.  This is mutation testing as in DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978,
with hand-written mutants.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Exits 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids or paths, run from the repository root


EPR2, CLI = "ghzlocal/epr2.py", "ghzlocal/cli.py"
LIVE_PASS, ROW_BOUND = "tests/test_live_pass.py", "tests/test_row_bound.py"
TWO_PATTERN, LIVE_PATTERNS = "tests/test_two_pattern_rows.py", "tests/test_live_patterns.py"
PARALLEL = "tests/test_cli.py::TestParallelScan"

MUTANTS = [
    # The sample cosines of the saturated parties (_block_cosines).
    Mutant("cos-margin-negative", EPR2,
           "_COS_MARGIN = 1e-12", "_COS_MARGIN = -1e-12",
           (f"{LIVE_PASS}::test_block_cosines_at_the_band_edges",)),
    Mutant("block-bound-smallest-cos-t0", EPR2,
           "    bound = max(abs(cos_theta0(sc)) for sc in scenarios)\n    live_max",
           "    bound = min(abs(cos_theta0(sc)) for sc in scenarios)\n    live_max",
           (f"{TWO_PATTERN}::test_batch_certificates_are_the_dense_minima",)),
    # The two-pattern suffix and the split of a block (_block_factors).
    Mutant("flipped-swap-left-out", EPR2,
           "    k[1].reshape(-1)[cells] = kr[0].reshape(-1)[cells]\n"
           "    kr[1].reshape(-1)[cells] = k[0].reshape(-1)[cells]\n", "",
           (f"{LIVE_PASS}::test_two_pattern_products_are_the_dense_k_entries",)),
    Mutant("searchsorted-right", EPR2,
           "ends = np.searchsorted(second[order], bounds).tolist()",
           'ends = np.searchsorted(second[order], bounds, side="right").tolist()',
           (f"{TWO_PATTERN}::test_a_key_equal_to_the_bound_is_a_two_pattern_row",)),
    Mutant("dense-prefix-in-second-key-order", EPR2,
           "        prefix = prefix[inner]\n", "",
           (f"{TWO_PATTERN}::test_the_dense_rows_of_a_split_block_are_those_of_the_live_key",)),
    # The live rows (_live_factors).
    Mutant("live-cells-party-major", EPR2,
           "row, party = np.nonzero(unsaturated.T[part])",
           "party, row = np.nonzero(unsaturated[:, part])",
           (f"{LIVE_PATTERNS}::test_live_minimum_is_the_dense_minimum_where_p_l_is_positive",)),
    Mutant("half-angles-at-slice-positions", EPR2,
           "(a.take(columns[part], axis=1)", "(a.take(part, axis=1)",
           ("tests/test_epr2.py::TestCertify::test_split_reductions_match_both_extrema",)),
    # The worst-phase formula of every path (_worst_phase).
    Mutant("worst-phase-sin-cos-swapped", EPR2,
           "    np.multiply(kr, math.sin(alpha), out=spare)\n"
           "    np.multiply(k, math.cos(alpha), out=out)\n",
           "    np.multiply(kr, math.cos(alpha), out=spare)\n"
           "    np.multiply(k, math.sin(alpha), out=out)\n",
           ("tests/test_epr2.py::TestCertify::test_kernel_matches_dense_reference_bit_for_bit",)),
    # The chunks of the grid and of the samples (_certification_blocks).
    Mutant("grid-angles-left-unwritten", EPR2,
           "            parties[...] = angles\n", "",
           (f"{LIVE_PASS}::test_blocks_are_the_trigonometry_of_their_rows",)),
    Mutant("bounding-never-ends", EPR2,
           "            if reach is None:\n                weighted = None\n",
           "            if reach is None:\n                pass\n",
           (f"{ROW_BOUND}::test_a_block_with_most_rows_left_runs_whole_and_ends_the_bounding",)),
    # The dense reference (_residual_extrema).
    Mutant("oracle-minima-start-at-zero", EPR2,
           "    min_residual = min_ratio = math.inf\n", "    min_residual = min_ratio = 0.0\n",
           ("tests/test_epr2.py::TestCertify::test_oracle_reduces_across_chunks",)),
    # The scan's forked groups (cli._certify_groups).
    Mutant("no-reaping-in-finally", CLI,
           "            os.close(read)\n            os.waitpid(pid, 0)\n",
           "            os.close(read)\n",
           (PARALLEL,)),
    Mutant("no-thread-check", CLI,
           ' or threading.active_count() > 1:', ':',
           (f"{PARALLEL}::test_serial_without_fork_affinity_or_a_single_thread",)),
    Mutant("child-exception-dropped", CLI,
           "            if isinstance(result, Exception):\n                raise result\n", "",
           (f"{PARALLEL}::test_a_value_error_is_the_serial_usage_error",)),
    Mutant("no-exit-status-check", CLI,
           "            if status != 0:\n", "            if False:\n",
           (f"{PARALLEL}::test_a_child_without_a_result_is_an_error",)),
    Mutant("worker-count-one", CLI,
           "    return min(cpus, groups)\n", "    return 1\n",
           (f"{PARALLEL}::test_output_is_the_serial_output",)),
    # The ratio bound (_surviving_rows and its helpers).
    Mutant("row-bound-gap-x4-over-12", EPR2,
           "    gap_hi += 1.0 / 24.0\n", "    gap_hi += 1.0 / 12.0\n",
           (f"{ROW_BOUND}::test_every_skipped_row_is_positive_under_the_dense_oracle",)),
    Mutant("row-bound-open-rows-proven", EPR2,
           "        result[columns] = _clears(y, lhs[columns], factor)\n",
           "        result[columns] = True\n",
           (f"{ROW_BOUND}::test_every_skipped_row_is_positive_under_the_dense_oracle",)),
    Mutant("row-bound-margin-sign-flipped", EPR2,
           "math.cos(sc.alpha) - _ROW_BOUND_MARGIN", "math.cos(sc.alpha) + _ROW_BOUND_MARGIN",
           (f"{ROW_BOUND}::test_the_bound_skips_the_all_zero_row_only_past_its_residual",)),
    Mutant("row-bound-band-smallest-cos-t0", EPR2,
           "wide = _band_edge(max((g for g in gammas",
           "wide = _band_edge(min((g for g in gammas",
           (f"{ROW_BOUND}::test_a_band_party_takes_cot_d_though_the_least_ratio_is_forced",)),
    Mutant("band-factor-tau-sign-swapped", EPR2,
           "        tau += 1.0\n", "        np.subtract(1.0, tau, out=tau)\n",
           (f"{ROW_BOUND}::test_every_skipped_row_is_positive_under_the_dense_oracle",)),
    Mutant("band-ratio-without-cot", EPR2,
           "    np.minimum(out, cot2, out=out)\n", "    np.minimum(out, tan2, out=out)\n",
           (f"{ROW_BOUND}::test_a_band_party_takes_cot_d_though_the_least_ratio_is_forced",)),
    Mutant("diagonal-forced-tau-sign-swapped", EPR2,
           "    g_f += 1.0\n", "    np.subtract(1.0, g_f, out=g_f)\n",
           (f"{ROW_BOUND}::test_every_skipped_row_is_positive_under_the_dense_oracle",)),
    Mutant("product-state-bounded", EPR2,
           "_BOUNDED_COS_T0 = 1.0 - 2.0**-40", "_BOUNDED_COS_T0 = 1.0",
           (f"{ROW_BOUND}::test_every_skipped_row_is_positive_under_the_dense_oracle",)),
    Mutant("reach-from-largest-weight", EPR2,
           "    return kept, reach[ranks].tolist()\n",
           "    return kept, [int(reach[1])] * len(ws)\n",
           (f"{ROW_BOUND}::test_each_scenario_reads_a_prefix_by_weight",)),
]

# Runs the selection in the interpreter that imported ghzlocal, after
# checking that it came from the mutated copy.
RUNNER = """\
import sys, ghzlocal, pytest
src = sys.argv[1]
if not ghzlocal.__file__.startswith(src + "/"):
    sys.exit(f"ghzlocal was imported from {ghzlocal.__file__}, not from {src}")
sys.exit(pytest.main(sys.argv[2:]))
"""


def mutate(source: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy of src/ at ``source``, or raise ValueError."""
    path = source / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"its old text occurs {count} times in src/{mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', or 'ERROR: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        source = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", source, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            mutate(source, mutant)
        except ValueError as exc:
            return f"ERROR: {exc}"
        env = dict(os.environ, PYTHONPATH=str(source), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, str(source), "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    # pytest exits 1 when a test failed; 0 when all passed; anything else
    # (no test collected, a collection error, the import check) is no kill.
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: exit {done.returncode}\n{done.stdout[-2000:]}"


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = sorted(set(argv) - names)
    if unknown or len(names) != len(MUTANTS):
        print(f"unknown or repeated mutant names: {unknown}", file=sys.stderr)
        return 2
    failed = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        began = time.perf_counter()
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{failed} mutant(s) not killed, {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
