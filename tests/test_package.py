import os
import subprocess
import sys

import rectipath

_LIST_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
import rectipath
print("\\n".join(sorted(sys.modules)))
"""


def test_import_loads_only_the_standard_library():
    # No runtime dependencies and no heavy import: a bare interpreter (-I -S:
    # no site packages, no environment) imports the package and nothing
    # outside the standard library.
    src = os.path.dirname(os.path.dirname(os.path.abspath(rectipath.__file__)))
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _LIST_MODULES, src],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "rectipath.spm" in out
    tops = {m.partition(".")[0] for m in out} - {"__main__", "rectipath"}
    foreign = sorted(tops - sys.stdlib_module_names)
    assert foreign == []
