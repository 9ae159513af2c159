"""The seam of the certification kernel: what the rest of the code may reach.

``ghzlocal._kernel`` is read through its entry ``factor_pieces`` and its
door ``block_pieces``, whose pieces carry their path.  The rest of the
package reaches none of its private names, and the tests, tools and demos
only those of a short allowlist, so that a change inside the kernel does
not rewrite the tests that watch it.
"""

import ast
import pathlib

from ghzlocal import _kernel

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The private kernel names that code outside src/ may reach, and why.
ALLOWED = {
    "_surviving_rows": "the row bound's soundness property runs it on adversarial rows",
    "_block_cosines": "the rounding of the cosine stand-ins at the band edges",
    "_saturation_edge": "the edge of the cosine stand-ins, to draw angles around it",
    "_certification_parties": "the angle hash, against its definition",
    "_kron_rows": "the Kronecker product, against a broadcast reference and to count K builds",
    "_chunk_rows": "the chunk size, to span chunks and pin the block sizes",
    "_block_rows": "the block size, to span blocks and to set it",
    "_CERT_CHUNK_BYTES": "the chunk budget, set to change the chunk size",
    "_SPLIT_ROW_COST": "the cost of a split, set to 0 to split every block that can",
    "_BOUND_ROW_COST": "the cost of the row bound, set to 0 to bound every block",
}

ACCESSORS = {"setattr", "getattr", "delattr", "hasattr"}


def reached(source: str) -> set[str]:
    """The private names of ``_kernel`` that Python ``source`` reaches.

    They are attributes of the module (also as ``ghzlocal._kernel._x``),
    names imported from it, and names passed to ``setattr`` and the like,
    ``monkeypatch.setattr`` included; a name that is not a string literal
    there is reported as ``<computed>``.
    """
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules |= {a.asname or a.name for a in node.names if a.name == "_kernel"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name.endswith("._kernel") and a.asname}

    def is_kernel(node):
        return (isinstance(node, ast.Name) and node.id in modules) or (
            isinstance(node, ast.Attribute) and node.attr == "_kernel")

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_kernel(node.value):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernel"):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and is_kernel(node.args[0]):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ACCESSORS:
                key = node.args[1]
                names.add(key.value if isinstance(key, ast.Constant) else "<computed>")
    return {name for name in names if name.startswith(("_", "<")) and not name.startswith("__")}


def test_outside_code_reaches_only_allowlisted_private_kernel_names():
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").rglob("*.py"),
             *(ROOT / "demos").rglob("*.py")]
    found = {}
    for path in files:
        for name in reached(path.read_text()):
            found.setdefault(name, []).append(path.relative_to(ROOT).as_posix())
    assert {name: paths for name, paths in found.items() if name not in ALLOWED} == {}
    assert len(ALLOWED) <= 10 and ALLOWED.keys() <= vars(_kernel).keys()


def test_the_rest_of_the_package_reaches_only_public_kernel_names():
    for path in (ROOT / "src" / "ghzlocal").glob("*.py"):
        assert path.name == "_kernel.py" or reached(path.read_text()) == set(), path.name


def test_the_scan_sees_each_way_to_reach_a_name():
    source = """
import ghzlocal._kernel as k
from ghzlocal import _kernel
from ghzlocal._kernel import _block, factor_pieces
import ghzlocal
_kernel._dense_factors(); k._live_factors; ghzlocal._kernel._two_pattern_factors
monkeypatch.setattr(_kernel, "_SPLIT_ROW_COST", 0)
setattr(k, name, 0)
_kernel.block_pieces
"""
    assert reached(source) == {"_block", "_dense_factors", "_live_factors",
                               "_two_pattern_factors", "_SPLIT_ROW_COST", "<computed>"}
