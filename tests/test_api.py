"""The shape of the public API: which exported callables take optional
parameters."""

import inspect

import qminlab

# Every optional parameter of a callable exported by ``qminlab``.  The
# property checks and the root finder use fixed module constants
# (``patterns.PATTERN_TOL``, ``charpoly.ROOT_WIDTH``), so a tolerance knob
# added back to one of them fails this test until it is listed here.
OPTIONAL_PARAMETERS = {
    "ClassQuery": ["unicyclic_girth"],
    "ParseError": ["offset"],
    "find_extremal": ["tie_tol", "shards"],
}


def test_exported_callables_take_only_the_listed_optional_parameters():
    found = {}
    for name in dir(qminlab):
        obj = getattr(qminlab, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except ValueError:  # a class that keeps a builtin constructor
            assert issubclass(obj, BaseException), name
            continue
        optional = [
            p.name
            for p in parameters
            if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        if optional:
            found[name] = optional
    assert found == OPTIONAL_PARAMETERS
