"""Every public function and class of the package is reached by some command.

Each ``test_golden.CASES`` command runs in-process under a profile hook that
records every Python code object entered, on the main thread and on the
sampler's threads.  A name in a module's ``__all__`` passes when one of its
code objects was entered: a function's own code, or for a class any method
in its body, dataclass- and namedtuple-generated ones included.  Code that
several classes share (namedtuple's ``_asdict``, say) counts for none of
them.  Library surface that no command reaches fails here instead of
lingering; the abstract ``Marginal`` interface is exempt, since only its
implementation runs.
"""

import collections
import importlib
import inspect
import pkgutil
import sys
import threading

import pqdslln
from pqdslln.cli import EXIT_OK, main
from test_golden import CASES

EXEMPT = {"marginals.Marginal"}


def _method_codes(cls) -> set:
    codes = set()
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            codes.update(f.__code__ for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isfunction(value):
            codes.add(value.__code__)
    return codes


def _public_code() -> dict[str, set]:
    """Module-qualified public name -> the code objects that count as reaching it."""
    found = {}
    for info in pkgutil.iter_modules(pqdslln.__path__):
        module = importlib.import_module(f"pqdslln.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isclass(value):
                found[f"{info.name}.{name}"] = _method_codes(value)
            elif inspect.isfunction(value):
                found[f"{info.name}.{name}"] = {value.__code__}
    owners = collections.Counter(code for codes in found.values() for code in codes)
    return {name: {code for code in codes if owners[code] == 1} for name, codes in found.items()}


def test_every_public_name_is_entered_by_a_golden_command(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        for case, argv in CASES.items():
            assert main([*argv, "--outdir", str(tmp_path / case)]) == EXIT_OK, case
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    unreached = sorted(name for name, codes in _public_code().items() if name not in EXEMPT and not codes & entered)
    assert not unreached, f"no golden command enters {unreached}"
