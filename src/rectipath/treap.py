"""What is left of the removed root-source treap: the names that
perfbench/tracer.py wraps at install.

No planner uses it.  The tracer imports this module and wraps the four
methods of RootSourceTree by name, so the class keeps them; the next change
to the benchmark drops those wrappers and deletes this module.
"""


class RootSourceTree:
    """Never built: it holds only the attribute names the tracer wraps."""

    def _removed(self, *args):
        raise NotImplementedError("the root-source treap was removed")

    insert = neighbors = extract_range = absorb = _removed
