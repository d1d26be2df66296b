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


_INSTALL_TRACER = """
import sys
sys.path[:0] = sys.argv[1:3]
import rectipath
from tracer import _PATCHES, Tracer
Tracer().install(rectipath)
for owner_path, attrs, _namer, _after in _PATCHES:
    mod, _, cls = owner_path.partition(".")
    owner = rectipath if mod == "rp" else sys.modules["rectipath." + mod]
    owner = getattr(owner, cls) if cls else owner
    for attr in attrs:
        fn = owner.__dict__[attr] if cls else getattr(owner, attr)
        print(owner_path, attr, fn.__qualname__)
"""


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py wraps library functions, methods and class-dict
    # entries by name at install; a rename or a removal breaks it there.
    # -B keeps the interpreter from writing bytecode under perfbench/.
    src = os.path.dirname(os.path.dirname(os.path.abspath(rectipath.__file__)))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    out = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL_TRACER, src, perfbench],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    wrapped = {tuple(line.split()[:2]) for line in out}
    assert all(line.split()[2] == "Tracer.wrap.<locals>.traced" for line in out), out
    for name in ("insert", "neighbors", "extract_range", "absorb"):
        assert ("treap.RootSourceTree", name) in wrapped
    assert ("fast._FastEngine", "__init__") in wrapped
