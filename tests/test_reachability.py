"""Every public module-level function of the package is reached by some `qfi` command.

The reachability part of the output corpus (`corpus.REACHABILITY`) runs in
this process under `sys.setprofile`, which records the code object of every
Python call.  It covers each command and output format, one Kraus-form and
one spectral-form family of each parameter count, both `optimize-input`
objectives, `verify --suite all` and an exit-3 refusal.  A public function that no command calls is library code
that only its own tests keep alive: delete it, move it into the tests as an
oracle, or name it below with its reason.
"""

import importlib
import inspect
import pkgutil
import sys

import scipy.optimize  # noqa: F401  (imported before tracing: optimize-input loads it)

import qfibounds

from corpus import REACHABILITY, run, write_specs

# Called by no command, on purpose.
UNREACHED = {
    "verify.one_param_battery",  # bench/workloads.py reads the verify battery's points
    "verify.two_param_battery",  # test seam: the tests' two-parameter battery points
    "verify.random_povm",  # test seam: the tests draw the suites' random POVMs with it
}


def _public_functions() -> dict:
    """module.name -> code object of each public function a package module defines."""
    found = {}
    for info in pkgutil.iter_modules(qfibounds.__path__):
        module = importlib.import_module(f"qfibounds.{info.name}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = inspect.unwrap(value).__code__
    return found


def test_every_public_function_is_reached_by_a_command(tmp_path):
    write_specs(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [run(argv, tmp_path)[2] for argv in REACHABILITY]
    finally:
        sys.setprofile(None)
    assert codes.count(0) == len(codes) - 3  # two y-basis reports of qudits, one rank change
    unreached = {name for name, code in _public_functions().items() if code not in called}
    assert unreached == UNREACHED, sorted(unreached ^ UNREACHED)
