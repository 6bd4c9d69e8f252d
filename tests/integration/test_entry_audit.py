"""Every `src/` module, def and method is reached by an entry point.

`scripts/entry_audit.py` follows imports and name references from the
CLI, the benches, the e2e workloads and the examples.  What it finds
unreached is code no entry point can run; the only such code allowed is
the audit's `REFERENCE` list, each entry with its reason.  A def or
method that only tests call fails here: delete it, or name it there.
"""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "entry_audit.py"


def _entry_audit():
    """`entry_audit.py`, loaded as a module (it is a script, not a package)."""
    spec = importlib.util.spec_from_file_location("entry_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nothing_is_unreached_outside_the_references():
    entry_audit = _entry_audit()
    audit = entry_audit.Audit()
    audit.run()
    found = {where: (what, n) for what, where, n in entry_audit.unreached(audit)}
    assert {w: found[w] for w in found.keys() - entry_audit.REFERENCE.keys()} == {}
    # A reference that something now reaches, or that is gone, leaves the list.
    assert entry_audit.REFERENCE.keys() <= found.keys()
