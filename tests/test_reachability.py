"""Every public module-level function of the package is reached by some `qfi` command.

A fixed corpus of commands runs in this process under `sys.setprofile`,
which records the code object of every Python call.  It covers each command
and output format, one Kraus-form and one spectral-form family of each
parameter count, both `optimize-input` objectives, `verify --suite all` and
an exit-3 refusal.  A public function that no command calls is library code
that only its own tests keep alive: delete it, move it into the tests as an
oracle, or name it below with its reason.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import scipy.optimize  # noqa: F401  (imported before tracing: optimize-input loads it)

import qfibounds
from qfibounds.cli import main

# Called by no command, on purpose.
UNREACHED = {
    "verify.one_param_battery",  # bench/workloads.py reads the verify battery's points
    "verify.two_param_battery",  # test seam: the tests' two-parameter battery points
    "verify.random_povm",  # test seam: the tests draw the suites' random POVMs with it
}

PAIR = ["eigenvector_1 = [0.7071067811865476+0i, 0.7071067811865476+0i]",
        "eigenvector_2 = [0.7071067811865476+0i, -0.7071067811865476+0i]"]
SPECS = {
    "dephasing": ["family = dephasing", "input_state = [0.6+0i, 0.8+0i]"],
    "plus": ["family = dephasing"],  # its Gram eigenvalues cross at theta 0.5
    "rotation": ["family = rotation", "axis = x"],
    "damping": ["family = amplitude-damping"],
    "depolarizing": ["family = depolarizing"],
    "random": ["family = random-kraus", "dim = 3", "env = 2", "seed = 11"],
    "example1": ["family = example1"],
    "custom": ["family = custom-spectral", "theta_domain = [0.05, 0.95]", *PAIR,
               "eigenvalue_1 = [1.0, -1.0]", "eigenvalue_2 = [0.0, 1.0]"],
    "dephasing-2p": ["family = dephasing-2p"],
    "rotation-2p": ["family = rotation-2p"],
    "damped-rotation": ["family = damped-rotation"],
    "random-2p": ["family = random-kraus", "dim = 2", "env = 2", "param_count = 2", "seed = 5"],
    "example2": ["family = example2", "theta_domain = [0.05, 0.95] x 2"],
    "custom-2p": ["family = custom-spectral", "theta_domain = [0.05, 0.45] x 2", *PAIR,
                  "eigenvalue_1 = [0.6, -0.3, 0.2]", "eigenvalue_2 = [0.4, 0.3, -0.2]"],
    "rank-change": ["family = random-kraus", "dim = 3", "env = 2", "seed = 3022"],
}


def _corpus(spec):
    """(argv, expected exit code) of each command; spec(name) is the path of a spec file."""
    estimate = ["--theta-true", "0.3", "--shots", "2000", "--reps", "4", "--seed", "3"]
    runs = []
    for name, theta in (("dephasing", "0.2"), ("rotation", "0.4"), ("damping", "0.3"),
                        ("depolarizing", "0.3"), ("random", "0.3"), ("example1", "0.3"),
                        ("custom", "0.3")):
        qubit = name not in ("random", "example1")
        runs += [
            (["report", spec(name), "--theta", theta], 0),
            (["report", spec(name), "--theta", theta, "--povm", "optimal"], 0),
            (["report", spec(name), "--theta", theta, "--povm", "y-basis"], 0 if qubit else 2),
            (["sweep", spec(name), "--theta-grid", "0.1:0.5:3", "--format", "csv"], 0),
            (["estimate", spec(name), *estimate, "--adaptive", "--n-pilot", "500"], 0),
        ]
    for name in ("dephasing-2p", "rotation-2p", "damped-rotation", "random-2p", "example2",
                 "custom-2p"):
        runs.append((["report", spec(name), "--theta", "0.2", "0.3", "--povm", "computational"], 0))
    runs += [
        (["sweep", spec("damping"), "--theta-grid", "0.2,0.6"], 0),
        (["report", spec("plus"), "--theta", "0.5"], 0),
        (["estimate", spec("damping"), *estimate, "--povm", "computational"], 0),
        (["optimize-input", spec("damping"), "--theta", "0.3", "--restarts", "1"], 0),
        (["optimize-input", spec("dephasing"), "--theta", "0.3", "--restarts", "1"], 0),
        (["optimize-input", spec("damping"), "--theta", "0.3", "--objective", "channel-bound",
          "--restarts", "1"], 0),
        (["report", spec("rank-change"), "--theta", "0"], 3),
        (["verify", "--suite", "all"], 0),
        (["verify", "--suite", "gap", "--format", "json"], 0),
    ]
    return runs


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
    def spec(name):
        path = tmp_path / f"{name}.qchan"
        path.write_text("\n".join(SPECS[name]) + "\n")
        return str(path)

    corpus = _corpus(spec)
    called, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sys.setprofile(profile)
        try:
            for argv, _ in corpus:
                codes.append(main(argv))
        finally:
            sys.setprofile(None)
    assert codes == [code for _, code in corpus], err.getvalue()
    unreached = {name for name, code in _public_functions().items() if code not in called}
    assert unreached == UNREACHED, sorted(unreached ^ UNREACHED)
