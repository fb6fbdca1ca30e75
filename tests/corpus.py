"""The standing output corpus: what every command of a fixed list prints, pinned.

`COMMANDS` lists `qfi` commands as argv lists, a token `@name` standing for
the path of a spec file holding `SPECS[name]`, and a leading token
`QFI_SEED=value` for that environment variable (unset otherwise).  It holds
the reachability corpus (`REACHABILITY`, which `test_reachability.py`
runs), the refusal grids of stacked sweeps, the end-to-end commands of the
console script (`CI`, pinned here so that CI's console-script step runs
only `qfi verify --suite all` and the README quick start; its sweep of
`@plus` over 0:1e-6 is one of the refusal grids), the exit-2 and exit-3
cases of `test_cli.py`, `report`
on every multi-parameter family with each named POVM, and
`report --povm optimal` on the `bounds` benchmark's channel sizes.  `PINS` holds, per command, the sha256 of its
stdout, stderr and exit code, with the spec directory written as `<dir>`.
`test_corpus.py` runs the list in one subprocess with one BLAS thread and
compares.

Run from the repository root, with the package on PYTHONPATH:

    PYTHONPATH=src python tests/corpus.py --repin
        rewrites PINS below from this tree: do it in the change that means to
        move output, and name each moved command in CHANGES.md;
    PYTHONPATH=src python tests/corpus.py --against PARENT/src
        prints each command whose output differs between this tree and the
        tree at PARENT/src (for example a `git archive` of the parent commit),
        with a diff of its stdout.

Both run the commands with one BLAS thread, as the pins are taken.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PAIR = ["eigenvector_1 = [0.7071067811865476+0i, 0.7071067811865476+0i]",
        "eigenvector_2 = [0.7071067811865476+0i, -0.7071067811865476+0i]"]
PLUS = "[0.7071067811865476+0i, 0.7071067811865476+0i]"
SPECS = {
    "dephasing": ["family = dephasing", "input_state = [0.6+0i, 0.8+0i]"],
    "plus": ["family = dephasing"],  # its Gram eigenvalues cross at theta 0.5
    "dephasing-plus": ["family = dephasing", "name = dephasing-plus", f"input_state = {PLUS}"],
    "rotation": ["family = rotation", "axis = x"],
    "rotation-z": ["family = rotation", "axis = z"],
    "rotation-z-plus": ["family = rotation", "axis = z", f"input_state = {PLUS}"],
    "damping": ["family = amplitude-damping"],
    "damping-one": ["family = amplitude-damping", "input_state = [0i, 1+0i]"],
    "depolarizing": ["family = depolarizing"],
    "random": ["family = random-kraus", "dim = 3", "env = 2", "seed = 11"],
    "random-4-1": ["family = random-kraus", "dim = 4", "env = 1", "seed = 5"],
    "random-8-8": ["family = random-kraus", "dim = 8", "env = 8", "seed = 11"],
    "example1": ["family = example1"],
    "custom": ["family = custom-spectral", "theta_domain = [0.05, 0.95]", *PAIR,
               "eigenvalue_1 = [1.0, -1.0]", "eigenvalue_2 = [0.0, 1.0]"],
    "spectral-rank-change": ["family = custom-spectral", "theta_domain = [0.0, 0.95]", *PAIR,
                             "eigenvalue_1 = [1.0, -1.0]", "eigenvalue_2 = [0.0, 1.0]"],
    "dephasing-2p": ["family = dephasing-2p"],
    "rotation-2p": ["family = rotation-2p"],
    "damped-rotation": ["family = damped-rotation"],
    "random-2p": ["family = random-kraus", "dim = 2", "env = 2", "param_count = 2", "seed = 5"],
    "random-3-2-2p": ["family = random-kraus", "dim = 3", "env = 2", "seed = 11",
                      "param_count = 2"],
    "random-2p-default": ["family = random-kraus", "param_count = 2"],
    "example2": ["family = example2", "theta_domain = [0.05, 0.95] x 2"],
    "example2-linear": ["family = example2", "f_coeffs = [0, 1, 0]", "g_coeffs = [0, 0, 1]"],
    "custom-2p": ["family = custom-spectral", "theta_domain = [0.05, 0.45] x 2", *PAIR,
                  "eigenvalue_1 = [0.6, -0.3, 0.2]", "eigenvalue_2 = [0.4, 0.3, -0.2]"],
    "custom-3-2p": ["family = custom-spectral", "theta_domain = [0.05, 0.45] x 2",
                    "eigenvector_1 = [1+0i, 0i, 0i]",
                    "eigenvector_2 = [0i, 0.7071067811865476+0i, 0.7071067811865476+0i]",
                    "eigenvector_3 = [0i, 0.7071067811865476+0i, -0.7071067811865476+0i]",
                    "eigenvalue_1 = [0.5, -0.3, 0.2]", "eigenvalue_2 = [0.3, 0.1, -0.4]",
                    "eigenvalue_3 = [0.2, 0.2, 0.2]"],
    "rank-change": ["family = random-kraus", "dim = 3", "env = 2", "seed = 3022"],
    "nan-scale": ["family = random-kraus", "scale = nan"],
    "huge-scale": ["family = random-kraus", "scale = 1e308"],
    "abc-scale": ["family = random-kraus", "scale = abc"],
    "bad-domain": ["family = dephasing", "theta_domain = [x, 0.9]"],
    "zero-params": ["family = random-kraus", "param_count = 0"],
    "negative-seed": ["family = random-kraus", "seed = -1"],
    "example2-one-domain": ["family = example2", "theta_domain = [0.1, 0.9]"],
    "unknown": ["family = warp"],
    "nan-input": ["family = dephasing", "input_state = [1+0i, nan]"],
    "nan-vector": ["family = custom-spectral", "theta_domain = [0.0, 0.95]",
                   "eigenvector_1 = [nan, 0i]", PAIR[1], "eigenvalue_1 = [1.0, -1.0]",
                   "eigenvalue_2 = [0.0, 1.0]"],
    "nan-value": ["family = custom-spectral", "theta_domain = [0.0, 0.95]", *PAIR,
                  "eigenvalue_1 = [nan, -1.0]", "eigenvalue_2 = [0.0, 1.0]"],
    "nan-slope": ["family = custom-spectral", "theta_domain = [0.0, 0.95]", *PAIR,
                  "eigenvalue_1 = [1.0, nan]", "eigenvalue_2 = [0.0, 1.0]"],
    **{f"random-{d}-{e}": ["family = random-kraus", f"dim = {d}", f"env = {e}", "seed = 4001"]
       for d, e in ((2, 1), (2, 2), (3, 2), (3, 5), (4, 4), (6, 3))},
}

ESTIMATE = ["--theta-true", "0.3", "--shots", "2000", "--reps", "4", "--seed", "3"]
REACHABILITY = []
for _name, _theta in (("dephasing", "0.2"), ("rotation", "0.4"), ("damping", "0.3"),
                      ("depolarizing", "0.3"), ("random", "0.3"), ("example1", "0.3"),
                      ("custom", "0.3")):
    REACHABILITY += [
        ["report", f"@{_name}", "--theta", _theta],
        ["report", f"@{_name}", "--theta", _theta, "--povm", "optimal"],
        ["report", f"@{_name}", "--theta", _theta, "--povm", "y-basis"],
        ["sweep", f"@{_name}", "--theta-grid", "0.1:0.5:3", "--format", "csv"],
        ["estimate", f"@{_name}", *ESTIMATE, "--adaptive", "--n-pilot", "500"],
    ]
REACHABILITY += [
    ["report", f"@{name}", "--theta", "0.2", "0.3", "--povm", "computational"]
    for name in ("dephasing-2p", "rotation-2p", "damped-rotation", "random-2p", "example2",
                 "custom-2p")
] + [
    ["sweep", "@damping", "--theta-grid", "0.2,0.6"],
    ["report", "@plus", "--theta", "0.5"],
    ["estimate", "@damping", *ESTIMATE, "--povm", "computational"],
    ["optimize-input", "@damping", "--theta", "0.3", "--restarts", "1"],
    ["optimize-input", "@dephasing", "--theta", "0.3", "--restarts", "1"],
    ["optimize-input", "@damping", "--theta", "0.3", "--objective", "channel-bound",
     "--restarts", "1"],
    ["report", "@rank-change", "--theta", "0"],
    ["verify", "--suite", "all"],
    ["verify", "--suite", "gap", "--format", "json"],
]

# grids whose rows are refused one by one
REFUSAL_GRIDS = [
    ["sweep", "@plus", "--theta-grid=0:1e-6:41"],
    ["sweep", "@plus", "--theta-grid=0.4999999:0.5000001:41"],
    ["sweep", "@dephasing-plus", "--theta-grid=0.4999999:0.5000001:41"],
    ["sweep", "@damping", "--theta-grid=0:1e-9:21"],
    ["sweep", "@damping", "--theta-grid=0.99999999:0.9999999999:401"],
    ["sweep", "@rank-change", "--theta-grid=-0.5:0.5:401"],
    ["sweep", "@rank-change", "--theta-grid=-0.2,0,0.2"],
    ["sweep", "@random", "--theta-grid=-0.9:0.9:401"],
    ["sweep", "@random", "--theta-grid=-0.9:0.9:41", "--format", "csv"],
    ["sweep", "@depolarizing", "--theta-grid=0.9998,0.99995,0.999999,1.0"],
    ["sweep", "@dephasing-plus", "--theta-grid", "0.3,0.5,0.500001,0.7"],
    ["sweep", "@spectral-rank-change", "--theta-grid=0,0.5"],
]

CI = [
    *(["verify", "--suite", "all", *seed] for seed in
      ([], ["--seed", "3"], ["--seed", "7"], ["--seed", "11"],
       ["--seed", "6180588700756636604"], ["--seed", "1"])),
    ["report", "@plus", "--theta", "0.3", "--tol", "nan"],
    ["report", "@plus", "--theta", "0.3", "--format", "csv"],
    ["report", "@plus", "--theta", "0"],
    ["estimate", "@plus", "--theta-true", "0.3", "--shots", "10000", "--reps", "24", "--seed", "5"],
    ["estimate", "@plus", "--theta-true", "0.3", "--shots", "10000", "--reps", "24", "--seed", "5",
     "--adaptive", "--n-pilot", "500"],
    ["estimate", "@plus", "--theta-true", "0.3", "--shots", "2000", "--reps", "5", "--adaptive",
     "--povm", "computational"],
    ["estimate", "@plus", "--theta-true", "0.3", "--shots", "2000", "--reps", "5", "--n-pilot",
     "300"],
    ["report", "@nan-scale", "--theta", "0.3"],
    ["report", "@huge-scale", "--theta", "0.3"],
    ["report", "@bad-domain", "--theta", "0.3"],
    ["sweep", "@example1", "--theta-grid", "0.05:0.95:41"],
    ["estimate", "@example1", "--theta-true", "0.4", "--shots", "10000", "--reps", "24", "--seed",
     "5", "--adaptive", "--n-pilot", "500"],
    ["estimate", "@random-4-1", "--theta-true", "0.3", "--shots", "10000", "--reps", "24", "--seed",
     "5", "--adaptive"],
    ["sweep", "@random-8-8", "--theta-grid=-0.9:0.9:19"],
    ["report", "@random-8-8", "--theta", "-0.5", "--povm", "optimal"],
    ["report", "@random-8-8", "--theta", "-0.5", "--povm", "computational"],
    ["sweep", "@damping", "--theta-grid=0.99999999:0.9999999999:41"],
    ["report", "@custom-3-2p", "--theta", "0.2", "0.3"],
    ["report", "@rotation-2p", "--theta", "0.2", "0.3", "--povm", "computational"],
    ["report", "@random-2p-default", "--theta", "0.2", "0.3", "--povm", "computational"],
    ["report", "@dephasing-2p", "--theta", "0.625", "0.8"],
]

# the exit-2 and exit-3 cases of test_cli.py; a leading QFI_SEED=value token sets the variable
COMMAND_ARGS = {"report": ["--theta", "0.3"], "sweep": ["--theta-grid", "0.2,0.4"],
                "estimate": ["--theta-true", "0.3"], "optimize-input": ["--theta", "0.3"]}
REFUSALS = [
    ["report", "@dephasing-plus", "--theta", "1.5"],
    ["report", "@unknown", "--theta", "0.2"],
    ["report", "@missing", "--theta", "0.2"],
    *(["report", f"@{name}", "--theta", "0.3"] for name in
      ("bad-domain", "abc-scale", "nan-scale", "huge-scale", "zero-params", "negative-seed",
       "example2-one-domain", "nan-input", "nan-vector", "nan-value", "nan-slope",
       "spectral-rank-change")),
    ["report", "@spectral-rank-change", "--theta", "0"],
    ["sweep", "@dephasing-plus", "--theta-grid", "0.5:1.5:3"],
    *(["estimate", "@dephasing-plus", "--theta-true", "0.3", "--shots", "2000", "--reps", "5",
       "--adaptive", "--povm", povm]
      for povm in ("optimal", "computational", "x-basis", "y-basis")),
    ["estimate", "@dephasing-plus", "--theta-true", "0.3", "--shots", "2000", "--reps", "5",
     "--n-pilot", "300", "--povm", "computational"],
    ["optimize-input", "@depolarizing", "--theta=1.0", "--restarts", "1"],
    ["optimize-input", "@depolarizing", "--theta=1.0", "--objective", "channel-bound",
     "--restarts", "1"],
    ["optimize-input", "@damping", "--theta=1e-5", "--objective", "channel-bound",
     "--restarts", "1"],
    ["sweep", "@random-3-2-2p", "--theta-grid", "0.2,0.4"],
    ["estimate", "@random-3-2-2p", "--theta-true", "0.3"],
    ["optimize-input", "@random-3-2-2p", "--theta", "0.3", "0.4"],
    ["report", "@random-8-8", "--theta", "0"],
    ["report", "@rank-change", "--theta", "0", "--povm", "x-basis"],
    ["verify", "--suite", "gap", "--seed", "-1"],
    ["QFI_SEED=-1", "verify", "--suite", "gap"],
    ["QFI_SEED=abc", "estimate", "@dephasing-plus", "--theta-true", "0.2", "--shots", "100",
     "--reps", "2"],
    ["QFI_SEED=5", "estimate", "@dephasing-plus", "--theta-true", "0.2", "--shots", "100",
     "--reps", "2", "--seed", "-1"],
    ["QFI_SEED=1.5", "optimize-input", "@dephasing-plus", "--theta", "0.3", "--restarts", "1"],
    ["verify", "--suite", "gap", "--seed", str(2**64)],
    ["estimate", "@dephasing-plus", "--theta-true", "0.2", "--shots", "100", "--reps", "2",
     "--seed", str(2**64)],
    ["optimize-input", "@dephasing-plus", "--theta", "0.3", "--restarts", "1", "--seed",
     str(2**65)],
    *([command, "@dephasing-plus", *args, *flag] for command, args in COMMAND_ARGS.items()
      for flag in (["--fd-step", "1e-3"], ["--fd-scheme", "central-2"], ["--richardson"])),
    *([command, "@dephasing-plus", *COMMAND_ARGS[command], *flag] for command, flag in
      (("report", ["--format", "csv"]), ("estimate", ["--format", "csv"]),
       ("optimize-input", ["--format", "csv"]), ("estimate", ["--tol", "0.5"]),
       ("optimize-input", ["--tol", "0.5"]))),
    *([command, "@missing", *COMMAND_ARGS[command], f"--tol={tol}"]
      for command in ("report", "sweep") for tol in ("nan", "inf", "-1", "0")),
    *(["sweep", "@dephasing-plus", f"--theta-grid={grid}"]
      for grid in ("abc", "0.1,abc", "a:b:3", "0:1:2.5", ",", "")),
    *(["optimize-input", "@damping", "--theta", "0.3", "--objective", "channel-bound",
       "--restarts", restarts] for restarts in ("0", "-2")),
    ["report", "@depolarizing", "--theta=1"],
    ["report", "@plus", "--theta", "0.5", "0.5"],
]

POVMS = ([], ["--povm", "computational"], ["--povm", "x-basis"], ["--povm", "y-basis"],
         ["--povm", "optimal"])
MULTI = [
    ["report", f"@{name}", "--theta", *theta, *povm]
    for name, theta in (("dephasing-2p", ("0.4", "0.3")), ("rotation-2p", ("0.2", "0.3")),
                        ("rotation-2p", ("0", "0")), ("damped-rotation", ("0.5", "0.4")),
                        ("random-2p", ("0.2", "0.3")), ("random-3-2-2p", ("0.3", "0.4")),
                        ("example2", ("0.6", "0.3")), ("example2-linear", ("0.6", "0.3")),
                        ("custom-2p", ("0.2", "0.3")), ("custom-3-2p", ("0.2", "0.3")))
    for povm in POVMS
] + [["report", "@dephasing-2p", "--theta", "0.625", "0.8", "--povm", "computational"]]

# report --povm optimal on the bounds benchmark's channels and random sizes
OPTIMAL = [
    ["report", f"@{name}", "--theta", theta, "--povm", "optimal"]
    for name, thetas in (("dephasing-plus", ("0.15", "0.85")), ("example1", ("0.25", "0.7")),
                         ("rotation-z-plus", ("-2.5", "1.2")), ("damping-one", ("0.3", "0.6")),
                         ("damping", ("0.35", "0.9")), ("depolarizing", ("0.2", "0.55")),
                         ("random-2-1", ("-0.4", "0.6")), ("random-2-2", ("-0.7", "0.1")),
                         ("random-3-2", ("0.45", "-0.2")), ("random-3-5", ("0.8", "-0.6")),
                         ("random-4-4", ("-0.3", "0.25")), ("random-6-3", ("0.5", "-0.55")),
                         ("random-8-8", ("0.35", "-0.85")))
    for theta in thetas
]



def key(argv) -> str:
    return " ".join(argv)


# each command once, where it first appears
COMMANDS = list({key(argv): argv for argv in
                 REACHABILITY + REFUSAL_GRIDS + CI + REFUSALS + MULTI + OPTIMAL}.values())


def write_specs(directory: Path) -> None:
    for name, lines in SPECS.items():
        (directory / f"{name}.qchan").write_text("\n".join(lines) + "\n")


def resolve(argv, directory) -> list[str]:
    """argv with each @name token the path of its spec file in directory."""
    return [str(Path(directory) / f"{token[1:]}.qchan") if token.startswith("@") else token
            for token in argv]


def run(argv, directory) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of one command run in this process, directory as <dir>."""
    from qfibounds.cli import main

    if argv[0].startswith("QFI_SEED="):
        os.environ["QFI_SEED"], argv = argv[0].removeprefix("QFI_SEED="), argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(resolve(argv, directory))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        finally:
            os.environ.pop("QFI_SEED", None)
    return tuple(text.getvalue().replace(str(directory), "<dir>") for text in (out, err)) + (code,)


def digest(result) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def outputs() -> dict:
    """key -> (stdout, stderr, exit code) of every command, in this process."""
    os.environ.pop("QFI_SEED", None)
    with tempfile.TemporaryDirectory() as directory:
        write_specs(Path(directory))
        return {key(argv): run(argv, directory) for argv in COMMANDS}


def dump(src: str | None = None) -> dict:
    """outputs() of the package at src (default: this process's PYTHONPATH), one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    if src is not None:
        env["PYTHONPATH"] = str(Path(src).resolve())
    done = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def _repin() -> None:
    pins = {name: digest(result) for name, result in dump().items()}
    body = "".join(f"    {name!r}:\n        {value!r},\n" for name, value in pins.items())
    path = Path(__file__)
    text = re.sub(r"(?ms)^PINS = \{\n.*?^\}\n", lambda _: f"PINS = {{\n{body}}}\n",
                  path.read_text())
    path.write_text(text)
    print(f"pinned {len(pins)} commands")


def _against(src: str) -> None:
    here, there = dump(), dump(src)
    for name in COMMANDS:
        name = key(name)
        if here[name] != there[name]:
            print(f"moved: {name} (exit {there[name][2]} -> {here[name][2]})")
            sys.stdout.writelines(difflib.unified_diff(
                there[name][0].splitlines(True), here[name][0].splitlines(True),
                "parent", "this tree", n=1))
            if here[name][1] != there[name][1]:
                print(f"  stderr: {there[name][1]!r} -> {here[name][1]!r}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        json.dump(outputs(), sys.stdout)
    elif sys.argv[1:] == ["--repin"]:
        _repin()
    elif sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        _against(sys.argv[2])
    else:
        sys.exit(__doc__)

PINS = {
    'report @dephasing --theta 0.2':
        '128874622721d7fc154e424002fcdc4b55e9a5fba15e06317eaafb36954de986',
    'report @dephasing --theta 0.2 --povm optimal':
        'e9fb02602e1af5ed9fadbfaa20c7fc7ca7e33b4cff5eaaf689b2221078273756',
    'report @dephasing --theta 0.2 --povm y-basis':
        '48dd4f0353bce41416dd0eb44df5de59194570a44d7a638b82c71dd44a6e559a',
    'sweep @dephasing --theta-grid 0.1:0.5:3 --format csv':
        'ea2443ed1330df2f88cda2df58607acaca3d57d55e118cc785a8a04bafd6b382',
    'estimate @dephasing --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        '9d6e1b2b1cd8b38b6b2134f899587278ef9a5cab7b9c49161e6e70e1512496a9',
    'report @rotation --theta 0.4':
        'd44c9fe4ef79ca6b62126cb2627587a1211748c753814d5f7ee4fcb045c8ae9b',
    'report @rotation --theta 0.4 --povm optimal':
        '01d66987d82852d3d840f26e83418dc9f9e32e795aeca96418e619b673c2a145',
    'report @rotation --theta 0.4 --povm y-basis':
        'f66edeca43f5e3c661cb92d7959c6e9cb8de6eb55636c1c6a15851ca719ae220',
    'sweep @rotation --theta-grid 0.1:0.5:3 --format csv':
        'e45eca5733a213776a999deafbc33543b1e56835652655ad23984b792f0b5207',
    'estimate @rotation --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        '92451bf7490c134c96df7b05baaa11b5e92b457d3763c64c72eb48d0fb37d212',
    'report @damping --theta 0.3':
        '2a590539d43f1d14e5fe7ff26f4f0e3dfe0e50bd7e2555d6ea4808db743b19c8',
    'report @damping --theta 0.3 --povm optimal':
        '261969644dbd1ddef9eabc2337770eb2f80d084dfdaad8840755cad8d6fca0e6',
    'report @damping --theta 0.3 --povm y-basis':
        'aa0241709a7bee7c2c4dfbedc6b428572f5b12971c5e2585b15c7cf1abfa4cec',
    'sweep @damping --theta-grid 0.1:0.5:3 --format csv':
        'bd15df39f73e2b7cbb6157d90e112f947d60ec25c5b766f9d3dc4ed0cd0fb4e5',
    'estimate @damping --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        '0d2e491da0aed788413f209338e452b0b449926b978f2f8a773e81feed31143f',
    'report @depolarizing --theta 0.3':
        '087c7cb155a9774741ae35eb940313f7034c11724cb9f06cb25124e968599381',
    'report @depolarizing --theta 0.3 --povm optimal':
        '3fd478c941585bf46c150629c04a21cd3a48bb9bedc8f2b760a274d776d1e81f',
    'report @depolarizing --theta 0.3 --povm y-basis':
        '57ab2f203a3b0f3917f39667add239080a1d2d588d807fc2bcc6068d789dd981',
    'sweep @depolarizing --theta-grid 0.1:0.5:3 --format csv':
        '0bc24788e633c3338aaff99c2bf46f9f05df7cf64d851095a88e9fa186063cd0',
    'estimate @depolarizing --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        'cd017656df80b42fd85520ccfb99547184645eacf99a17b45a58cecd5822cd1a',
    'report @random --theta 0.3':
        '1b078787cd03a25097dd612cc82a110096ab0445cbb6ae1799f86f8830c4d1e3',
    'report @random --theta 0.3 --povm optimal':
        'fc5e11b61c8c035fd2de83bf0b79ee8603e913b2dc1693c42f302eb9c329d647',
    'report @random --theta 0.3 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'sweep @random --theta-grid 0.1:0.5:3 --format csv':
        'd219bea58753940d0a11de93d706b0620fbbe5166ed54a77a6a08f62bcb050ee',
    'estimate @random --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        '73a7a781e6551f9ff0d60f1b7eb2888e3052ac0e3722d9d558933de6416227a2',
    'report @example1 --theta 0.3':
        'e250471132ce714e9950ac3ff17867fb239ae7618d8d7119b736cb546260084e',
    'report @example1 --theta 0.3 --povm optimal':
        '2a9a5941a746fc6b67b90630a7e4a090dd17fc7c1c35f2322c73065e65b9d622',
    'report @example1 --theta 0.3 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'sweep @example1 --theta-grid 0.1:0.5:3 --format csv':
        '1d26a3793e522e6272babeba809ce87dbfad527e8642a40db53f661d45d508d3',
    'estimate @example1 --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        'a543674575aa4c669cf492f32801bfcfca1bcf10e21b5cfa08a502203e996e13',
    'report @custom --theta 0.3':
        '83dab260ac0e61b7ce7ed03dec397c4b69badf6020fbd430ca4fad23d00dac17',
    'report @custom --theta 0.3 --povm optimal':
        'dc89e83fec5b4e2fb0c662cb793a81fb397fbaef27486ae8babb4b653051b131',
    'report @custom --theta 0.3 --povm y-basis':
        '22c8f9670b471b751261d5ce8cba1df173974947c56113c6ea5b22f71eb7c50e',
    'sweep @custom --theta-grid 0.1:0.5:3 --format csv':
        'de75dab5b180fde520abd974d5ef536922083fbd5e15b807651229f2561f7bc0',
    'estimate @custom --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --adaptive --n-pilot 500':
        '90f127db7c5451918476bfd6207c65ecaa6dfe5eac5b17981391deea91ee19d0',
    'report @dephasing-2p --theta 0.2 0.3 --povm computational':
        '3cd59a68dc6bb809d482b7d3b141686e97e8725ff8c7b6e6c57d12f51e76ac57',
    'report @rotation-2p --theta 0.2 0.3 --povm computational':
        'c63ebba32e8a983894bef442203bed25c0d134738b7125bbf4670fe254a25f52',
    'report @damped-rotation --theta 0.2 0.3 --povm computational':
        'b578f72cfcff282d25390089b193e4675d64512bb75e8a8873b65139c8ffc4a9',
    'report @random-2p --theta 0.2 0.3 --povm computational':
        '81382f2f0c0d23254fa9cd6f90c1b3f57cc98892665d3a3bf0e39f44fba89715',
    'report @example2 --theta 0.2 0.3 --povm computational':
        'c73071ad35dbf28a23158e2460c83ce441439791cd160904a9f7eb248bac1723',
    'report @custom-2p --theta 0.2 0.3 --povm computational':
        '8c8b0d0e7ec149b366718922c2ecdb0ba2b60e55775167ea18f0e9f58521bee3',
    'sweep @damping --theta-grid 0.2,0.6':
        '78eb7d0b758d12c019aa6c804e679c6c01a52f7af9aee12b4aae605ea5c96ff2',
    'report @plus --theta 0.5':
        'e120dde1073ffec8673b75f6133d35b167a06c24a8152ac409d209c2f6b4411d',
    'estimate @damping --theta-true 0.3 --shots 2000 --reps 4 --seed 3 --povm computational':
        'a9543799e43e7e3d523cd975663eb48ca7d8310f468c1045afb127d43b24e1d7',
    'optimize-input @damping --theta 0.3 --restarts 1':
        'e582d3235ecbad9851bb36780404f9d3e4ce8425209dadd28b7f12ae8841b043',
    'optimize-input @dephasing --theta 0.3 --restarts 1':
        '2ebeca16e985ccb96cab7abb752a3530c49c93993d446f1e2bd6bce82be3cf82',
    'optimize-input @damping --theta 0.3 --objective channel-bound --restarts 1':
        'c66876e87f5ea8077786df26f680f5e719ef77d2a5ac791863c9c2062738a680',
    'report @rank-change --theta 0':
        'a98abaa021245175e4b349181d21807e64fd5d9bd0709f3a1fa99987238c30ee',
    'verify --suite all':
        'bd3de948e0f244a10c55606d9d7480a0d51fff80522d290fcddc4b0bee64becd',
    'verify --suite gap --format json':
        'd63447affadc794e18d5680d058e5f00435297516785853dc89cf372c08c8f2b',
    'sweep @plus --theta-grid=0:1e-6:41':
        'ad9127f8f71fee820250e6ee20efd1168f9a75b4064c0a19c5c741784bb001ab',
    'sweep @plus --theta-grid=0.4999999:0.5000001:41':
        'dd8b98bbe6a4f2fdadc35f4772df1aba2b90b4ceb6e0bb31345d6630139d6410',
    'sweep @dephasing-plus --theta-grid=0.4999999:0.5000001:41':
        'bdc04190134f48dfe75c43e89b80d97129abbcb3f1e4a492af2f1911ced0b044',
    'sweep @damping --theta-grid=0:1e-9:21':
        '9bc67a4f3638aefd66af4789fbf8a4766b14a67d727e01fa618f1d43617b6fe9',
    'sweep @damping --theta-grid=0.99999999:0.9999999999:401':
        '6c4ffcbe36e2a93ba7829273554051a0f34fddfea3c69c0f265c2c03fae130bb',
    'sweep @rank-change --theta-grid=-0.5:0.5:401':
        '2b17518b01affbfd178335d49c23bcdcd41586ccb3409de26ad8887e02fff2be',
    'sweep @rank-change --theta-grid=-0.2,0,0.2':
        '176627df25d4585fcb06b9a4c0672a35f401b2a07abc2a6d97b36d75fcea44d7',
    'sweep @random --theta-grid=-0.9:0.9:401':
        '78b0709809696436fcde06f31dccc40b7a1fe8b8b1dc8818df59a8fac0eabee2',
    'sweep @random --theta-grid=-0.9:0.9:41 --format csv':
        '92458b3c077726a236121b54fe141b7a9619e59086cb2bc02c54fe173473b3bb',
    'sweep @depolarizing --theta-grid=0.9998,0.99995,0.999999,1.0':
        '3762d62b191450895a40aa5613d02c13ab9e5a11b6e7dd318ae036fe3f29737b',
    'sweep @dephasing-plus --theta-grid 0.3,0.5,0.500001,0.7':
        '57c13a144a5210daa1063eccad4586ffb44dbca50288bf62bda7904ddc282534',
    'sweep @spectral-rank-change --theta-grid=0,0.5':
        '10891312ccaabe3a7e485fb77fef016f2444563c906903fedda5ed6bacbce398',
    'verify --suite all --seed 3':
        'f16e6281d56316c0e932d04e5848b221caaeab2a5f8e96ca5217ba78d0cb823b',
    'verify --suite all --seed 7':
        '4dc0f9917655a446f6043831d2f5b59e88ca40f31d870061bd2b9c2deae42b65',
    'verify --suite all --seed 11':
        '283763142738b65c794e273e7a54e68de5a1a0c6675ded8cdca1bc5deabc57bb',
    'verify --suite all --seed 6180588700756636604':
        'b07588e6fbeaa4628cba290d0abd0177f6be9562624ce1c388aec3c986a9b464',
    'verify --suite all --seed 1':
        'fe32a07e0edf58a967f8c25b31911aa12799ca21dcb2bf2b6b6c20f89875bac3',
    'report @plus --theta 0.3 --tol nan':
        '941d76c3613fbab51f0d8096d1f087b3a0f4bf8b29b403c84aec0671e6eb1f81',
    'report @plus --theta 0.3 --format csv':
        '25697fc31cba1e96e0740375c843f8aad49964dd6052fb1986f7253bc6e54336',
    'report @plus --theta 0':
        'fad62f1aa3bda8ac64454977a50e6139a6a16078703620d800529b47bb0b5033',
    'estimate @plus --theta-true 0.3 --shots 10000 --reps 24 --seed 5':
        'f5a5961abed6e97b552fca8124720c0bf2e7f6babf0d6217dcdce8db81830f82',
    'estimate @plus --theta-true 0.3 --shots 10000 --reps 24 --seed 5 --adaptive --n-pilot 500':
        '7e77905d2d9b7846291fd05d6c7ef49b3ee3cb37dfce2f8e79199ba9bf6805cb',
    'estimate @plus --theta-true 0.3 --shots 2000 --reps 5 --adaptive --povm computational':
        '9aa7fde1e7a7ada7d16315e93a5ae82762d8386deab982ee06d3ad01b0991212',
    'estimate @plus --theta-true 0.3 --shots 2000 --reps 5 --n-pilot 300':
        '66c0ef5ddabac3f5986c4366c09ab6fdb5ece13f53881707a7d279663be3bbd5',
    'report @nan-scale --theta 0.3':
        '2fa7a4095a34fda009baa20dc663fa67eef7bb2c9a204162404c0e69c88e04b0',
    'report @huge-scale --theta 0.3':
        'ff683e739e0569e4df82dfe705189c3f466b681237b1f24c80e6f84ba689bb6d',
    'report @bad-domain --theta 0.3':
        '93bfc803b32d508e54b35ddee103fe3de589eb3bfea8d4fddadd6cc6514bd5c5',
    'sweep @example1 --theta-grid 0.05:0.95:41':
        'c9875e7b9eeea4444d3414b5bb3f6250bcd2bbb6941a38d2aa3cab01393115e7',
    'estimate @example1 --theta-true 0.4 --shots 10000 --reps 24 --seed 5 --adaptive --n-pilot 500':
        'c4696d7320ffff3a8afedf0a8ca776d189e17ed78b3521de2e52e9a96f8cc497',
    'estimate @random-4-1 --theta-true 0.3 --shots 10000 --reps 24 --seed 5 --adaptive':
        '5fec35a40f30fbf48572a510c6f7f07f7e819a2978310619721cab0861643fad',
    'sweep @random-8-8 --theta-grid=-0.9:0.9:19':
        '42c85e1da38e5569d940fa31bc98da700d0b00dad5b41cfe8719e9c950814787',
    'report @random-8-8 --theta -0.5 --povm optimal':
        '04573bcaec5e26800d7b900b84685d3ae0ca13dc0f3a7d0e6124248cc8029911',
    'report @random-8-8 --theta -0.5 --povm computational':
        '19c93435e703bb2b92af761045dce25d5b61d3e4a6478e1ab9d8437e26c3d3cc',
    'sweep @damping --theta-grid=0.99999999:0.9999999999:41':
        '05de417687c6e75f946fb793a3ec0faef61eb3ce883388d7fa5be9e3a4f6fb50',
    'report @custom-3-2p --theta 0.2 0.3':
        '687fa78119b32dfdf1cb001aae5058a6f152f444c6b0e6d5283c6fa274cc6660',
    'report @random-2p-default --theta 0.2 0.3 --povm computational':
        '72e7b16d3b3e8b742d271d45738cfffb73ce84c5700feed62f3b3573c024a9fb',
    'report @dephasing-2p --theta 0.625 0.8':
        'c62a67ff965ab7b913d4ae65dc96c7cedc132f79a4b5169290e8f9557bdc2f75',
    'report @dephasing-plus --theta 1.5':
        'e963ee884efa8737dc697deb576bf6d53e3baa2b3bcdf4a0516f4e881475682f',
    'report @unknown --theta 0.2':
        'ef528ad390beabfa8f3a5211e5eb44c154a4be10b7b3a142f45c878319194af1',
    'report @missing --theta 0.2':
        '5a0685201f50ad657307b85e56172958705b19631e3b28ae27739e31c40f3a15',
    'report @abc-scale --theta 0.3':
        'd3a4d8b7c09c6ded4208b7ef518c05724704f45cc3f3e9c28362264eee80c576',
    'report @zero-params --theta 0.3':
        'bbfe905a34274b5ac4274e2b8e0a6f37ad50cd56532e7993f73325b5e849af6e',
    'report @negative-seed --theta 0.3':
        '3846a18a810b5d1a95dea51bd41c429464eee8be4ab6ca6340583a47c6688ce1',
    'report @example2-one-domain --theta 0.3':
        '169aeb25bbc378f841d0cecca12e820868c23a38ccd960f76728fd1c4016dbf3',
    'report @nan-input --theta 0.3':
        '2bdae4d7fa45472f5661e97c3ea519ed7c7c2d5788fa4b279f317f585f7dde45',
    'report @nan-vector --theta 0.3':
        'e39ef9482d942eac8a2d017c930420017458c8a7170b0ab5833793d3a78cbb5d',
    'report @nan-value --theta 0.3':
        '3c07b58f5437f69e62ad8eb8e1b7ff680e1f804258d6f8f4d94de7857eb86964',
    'report @nan-slope --theta 0.3':
        '3c07b58f5437f69e62ad8eb8e1b7ff680e1f804258d6f8f4d94de7857eb86964',
    'report @spectral-rank-change --theta 0.3':
        '2df833099e76208ec5b31ae3bfdbfceb6f09c07f3fa8b2021599eec3159bdd66',
    'report @spectral-rank-change --theta 0':
        'c2b76b55609e0e33744e63f42708635358090d81e9b80d14d73596487cfefe04',
    'sweep @dephasing-plus --theta-grid 0.5:1.5:3':
        'e963ee884efa8737dc697deb576bf6d53e3baa2b3bcdf4a0516f4e881475682f',
    'estimate @dephasing-plus --theta-true 0.3 --shots 2000 --reps 5 --adaptive --povm optimal':
        '9aa7fde1e7a7ada7d16315e93a5ae82762d8386deab982ee06d3ad01b0991212',
    'estimate @dephasing-plus --theta-true 0.3 --shots 2000 --reps 5 --adaptive --povm computational':
        '9aa7fde1e7a7ada7d16315e93a5ae82762d8386deab982ee06d3ad01b0991212',
    'estimate @dephasing-plus --theta-true 0.3 --shots 2000 --reps 5 --adaptive --povm x-basis':
        '9aa7fde1e7a7ada7d16315e93a5ae82762d8386deab982ee06d3ad01b0991212',
    'estimate @dephasing-plus --theta-true 0.3 --shots 2000 --reps 5 --adaptive --povm y-basis':
        '9aa7fde1e7a7ada7d16315e93a5ae82762d8386deab982ee06d3ad01b0991212',
    'estimate @dephasing-plus --theta-true 0.3 --shots 2000 --reps 5 --n-pilot 300 --povm computational':
        '66c0ef5ddabac3f5986c4366c09ab6fdb5ece13f53881707a7d279663be3bbd5',
    'optimize-input @depolarizing --theta=1.0 --restarts 1':
        'f3356d57c89d7edccc65bc178ab2406f66551ced16d4d87e86ea255ef822389a',
    'optimize-input @depolarizing --theta=1.0 --objective channel-bound --restarts 1':
        'f3356d57c89d7edccc65bc178ab2406f66551ced16d4d87e86ea255ef822389a',
    'optimize-input @damping --theta=1e-5 --objective channel-bound --restarts 1':
        'f3356d57c89d7edccc65bc178ab2406f66551ced16d4d87e86ea255ef822389a',
    'sweep @random-3-2-2p --theta-grid 0.2,0.4':
        '87496a62415a72d2f46e4faf14102848bef4bc3d42aa34bcb852465f4a509759',
    'estimate @random-3-2-2p --theta-true 0.3':
        'da50f524f85e3182942373ca93dcb6febc535932840a9087cb957d48e2b51308',
    'optimize-input @random-3-2-2p --theta 0.3 0.4':
        '968ae1d91e87f9fb862fc04a3d4130818611a83f35dbca3448d00957411414ba',
    'report @random-8-8 --theta 0':
        '4c4445783c014849785e7229ed011a4e385e5306cc4fcf03f8039e8475bc19ac',
    'report @rank-change --theta 0 --povm x-basis':
        '3fb281834ce0396ec6708131993901dec094f661df322d4d7b7ca9222066fff0',
    'verify --suite gap --seed -1':
        '47fdbac41c4126fe65beb037033af8a1f4ec966c77afb72112868976f8bb1b7e',
    'QFI_SEED=-1 verify --suite gap':
        'eddda00d747f8a985b8fe57ca007621a000750d32eafa55ee6de7ee81495f7d5',
    'QFI_SEED=abc estimate @dephasing-plus --theta-true 0.2 --shots 100 --reps 2':
        'fff22d88fc282a2f2df1e6d7c2ed2c59b7d9e4a12bfd890479f5a95cde6a40cc',
    'QFI_SEED=5 estimate @dephasing-plus --theta-true 0.2 --shots 100 --reps 2 --seed -1':
        '47fdbac41c4126fe65beb037033af8a1f4ec966c77afb72112868976f8bb1b7e',
    'QFI_SEED=1.5 optimize-input @dephasing-plus --theta 0.3 --restarts 1':
        '6290866879b5fbe87038960458ce105aa053d9559a81efb75cba53e9b868b9e1',
    'verify --suite gap --seed 18446744073709551616':
        '86b8d69793d9a7c4a918e1befa19e914f47eaacef4faf998b0c54e5619230ff0',
    'estimate @dephasing-plus --theta-true 0.2 --shots 100 --reps 2 --seed 18446744073709551616':
        '86b8d69793d9a7c4a918e1befa19e914f47eaacef4faf998b0c54e5619230ff0',
    'optimize-input @dephasing-plus --theta 0.3 --restarts 1 --seed 36893488147419103232':
        '3cd4e6c3c5e5a131d691b0b7c27131cd83fa35b70a663f98e5664e30c3347006',
    'report @dephasing-plus --theta 0.3 --fd-step 1e-3':
        '7f2f0595af4671807c3a8149628e99a0023f606a2299f2b7068547e6c80e2425',
    'report @dephasing-plus --theta 0.3 --fd-scheme central-2':
        '516a2f4279288128694a24e8df0c0e0370e2ad47a9f4f2f92a60c45b109f9285',
    'report @dephasing-plus --theta 0.3 --richardson':
        '6bb2adc465f23acee26c67f7511a01dc9164f7161a93b2def93b072482ba59e2',
    'sweep @dephasing-plus --theta-grid 0.2,0.4 --fd-step 1e-3':
        '7f2f0595af4671807c3a8149628e99a0023f606a2299f2b7068547e6c80e2425',
    'sweep @dephasing-plus --theta-grid 0.2,0.4 --fd-scheme central-2':
        '516a2f4279288128694a24e8df0c0e0370e2ad47a9f4f2f92a60c45b109f9285',
    'sweep @dephasing-plus --theta-grid 0.2,0.4 --richardson':
        '6bb2adc465f23acee26c67f7511a01dc9164f7161a93b2def93b072482ba59e2',
    'estimate @dephasing-plus --theta-true 0.3 --fd-step 1e-3':
        '7f2f0595af4671807c3a8149628e99a0023f606a2299f2b7068547e6c80e2425',
    'estimate @dephasing-plus --theta-true 0.3 --fd-scheme central-2':
        '516a2f4279288128694a24e8df0c0e0370e2ad47a9f4f2f92a60c45b109f9285',
    'estimate @dephasing-plus --theta-true 0.3 --richardson':
        '6bb2adc465f23acee26c67f7511a01dc9164f7161a93b2def93b072482ba59e2',
    'optimize-input @dephasing-plus --theta 0.3 --fd-step 1e-3':
        '7f2f0595af4671807c3a8149628e99a0023f606a2299f2b7068547e6c80e2425',
    'optimize-input @dephasing-plus --theta 0.3 --fd-scheme central-2':
        '516a2f4279288128694a24e8df0c0e0370e2ad47a9f4f2f92a60c45b109f9285',
    'optimize-input @dephasing-plus --theta 0.3 --richardson':
        '6bb2adc465f23acee26c67f7511a01dc9164f7161a93b2def93b072482ba59e2',
    'report @dephasing-plus --theta 0.3 --format csv':
        '25697fc31cba1e96e0740375c843f8aad49964dd6052fb1986f7253bc6e54336',
    'estimate @dephasing-plus --theta-true 0.3 --format csv':
        '25697fc31cba1e96e0740375c843f8aad49964dd6052fb1986f7253bc6e54336',
    'optimize-input @dephasing-plus --theta 0.3 --format csv':
        '25697fc31cba1e96e0740375c843f8aad49964dd6052fb1986f7253bc6e54336',
    'estimate @dephasing-plus --theta-true 0.3 --tol 0.5':
        '3b118a8df87e2b6c789eb177bdc73a1c01808fa80fc711132f71a417f234cc31',
    'optimize-input @dephasing-plus --theta 0.3 --tol 0.5':
        '3b118a8df87e2b6c789eb177bdc73a1c01808fa80fc711132f71a417f234cc31',
    'report @missing --theta 0.3 --tol=nan':
        '941d76c3613fbab51f0d8096d1f087b3a0f4bf8b29b403c84aec0671e6eb1f81',
    'report @missing --theta 0.3 --tol=inf':
        '30a80551c9cd666852b916c27e3251f72e76b3a85a81a786a59f213e66545445',
    'report @missing --theta 0.3 --tol=-1':
        '66f8d304ea240a1b9f45d06ec752428c494694e4391cd0e219faacd457a3b651',
    'report @missing --theta 0.3 --tol=0':
        '294de1f289c53f7eb71c68478e3542b689e56a310406f56663a17688b31f9dc9',
    'sweep @missing --theta-grid 0.2,0.4 --tol=nan':
        '941d76c3613fbab51f0d8096d1f087b3a0f4bf8b29b403c84aec0671e6eb1f81',
    'sweep @missing --theta-grid 0.2,0.4 --tol=inf':
        '30a80551c9cd666852b916c27e3251f72e76b3a85a81a786a59f213e66545445',
    'sweep @missing --theta-grid 0.2,0.4 --tol=-1':
        '66f8d304ea240a1b9f45d06ec752428c494694e4391cd0e219faacd457a3b651',
    'sweep @missing --theta-grid 0.2,0.4 --tol=0':
        '294de1f289c53f7eb71c68478e3542b689e56a310406f56663a17688b31f9dc9',
    'sweep @dephasing-plus --theta-grid=abc':
        'b7153cbad2b39a298d2b13e3f48c7033c9654b13f4985d86d700b2c96624e7c4',
    'sweep @dephasing-plus --theta-grid=0.1,abc':
        'b7153cbad2b39a298d2b13e3f48c7033c9654b13f4985d86d700b2c96624e7c4',
    'sweep @dephasing-plus --theta-grid=a:b:3':
        '231178a03667d83a1c23b41b14365fc6f4d5f496ea94803d3f1b43948f0e8137',
    'sweep @dephasing-plus --theta-grid=0:1:2.5':
        '600e16a143a877bf229ec301c117719fad46eec25863f90c0c8246f0356567f2',
    'sweep @dephasing-plus --theta-grid=,':
        'ac2ba73387819b87a7ddd9fef07440a3eae3928f07b2aa6af1a37c29e8e3653c',
    'sweep @dephasing-plus --theta-grid=':
        'd6e689835dd401206316d772d3321ec8098661a37abfb530a26512c62d1f36a0',
    'optimize-input @damping --theta 0.3 --objective channel-bound --restarts 0':
        'c9b37f125ae3b8d1326c335a0300f369e5dcc305496ead88341a8c1769a37879',
    'optimize-input @damping --theta 0.3 --objective channel-bound --restarts -2':
        'df910f82ce862883545b155b83661c3b3883785a4a63ae694c8454fcc633db6b',
    'report @depolarizing --theta=1':
        '7ae279829d9fbb8ab2b462db16bc4ae30d456baf4ae7825d4514519a4913619f',
    'report @plus --theta 0.5 0.5':
        'aa12cfb78f789c3ec6c2c1944a7df7209b396a60b38325924a21d614c0b71797',
    'report @dephasing-2p --theta 0.4 0.3':
        '96cf713df0b86ddf8d6d195f1ce574d26d70930cc2499779629ab6ce3d2f0b1a',
    'report @dephasing-2p --theta 0.4 0.3 --povm computational':
        '59157adeaac0eb26b4e457f9aa49620dcbb5cf7613df38bcc475895aba02e4ab',
    'report @dephasing-2p --theta 0.4 0.3 --povm x-basis':
        '044d25b52c2129df012ecde69a92689b2d707449fa869a6e480fe54ad760feda',
    'report @dephasing-2p --theta 0.4 0.3 --povm y-basis':
        'b49c35b203d2055987f824b3c760373894d78a0287a5d2d17ef4a37a1f50c164',
    'report @dephasing-2p --theta 0.4 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @rotation-2p --theta 0.2 0.3':
        '481ab521edbaa476f3008b617283371e1f7fa4c7bdf4cdee29ec87fc48d4e617',
    'report @rotation-2p --theta 0.2 0.3 --povm x-basis':
        '6f01273654aec00ee038e20f20c8438653722033906de354abfdce8678fe83d9',
    'report @rotation-2p --theta 0.2 0.3 --povm y-basis':
        '2aee19f4cd4c21b94179e762ffa8417b49a529aa32bf1da9df7f3e6ff189fdaf',
    'report @rotation-2p --theta 0.2 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @rotation-2p --theta 0 0':
        '88a4d958986d6ebb2218d211944cff0893d104f745bc82ca157ee32d7e077195',
    'report @rotation-2p --theta 0 0 --povm computational':
        '320d0d2e54136d8aca32f0f130e9f5a350ff8ee4190cac7675192191602f7809',
    'report @rotation-2p --theta 0 0 --povm x-basis':
        'e28413c770767143fcda44768e6c30dc3d5c23b8bcf757202e9ad010f6043dba',
    'report @rotation-2p --theta 0 0 --povm y-basis':
        '63ec2c77a93716d21dc8706e32f65cf02ca4cbacb001b8ecd1e7ac968b587987',
    'report @rotation-2p --theta 0 0 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @damped-rotation --theta 0.5 0.4':
        '47817b435736ebac364fb86adb04cd05ac559f6db32001524b7d14fa172ecdea',
    'report @damped-rotation --theta 0.5 0.4 --povm computational':
        '5bfde60745a050a884d9df1405bf6f16fd81f7e54599ba67f7e1c3c4fcf8a7cd',
    'report @damped-rotation --theta 0.5 0.4 --povm x-basis':
        '1b799ab93d0823c4962ec3b0518ade094c5061d0727e7b14a5e9c0c3e2b8a6ce',
    'report @damped-rotation --theta 0.5 0.4 --povm y-basis':
        'c490bbb515143814fcf9f39c4a5d6a84e797239120524f39543f43ca55752614',
    'report @damped-rotation --theta 0.5 0.4 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @random-2p --theta 0.2 0.3':
        'cae20c426094f5dd40d50fce6070e76badaac265ff2a559b92fb8268e959e435',
    'report @random-2p --theta 0.2 0.3 --povm x-basis':
        'a0cc5c6974fd7322d9173835d58af3f4fc3d81e6de00bbe54ae385cbdf376e73',
    'report @random-2p --theta 0.2 0.3 --povm y-basis':
        '23d6ab89020459170e71e88bf859b436c7ddeede9e0a5a808e3aa973d5f42705',
    'report @random-2p --theta 0.2 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @random-3-2-2p --theta 0.3 0.4':
        '4c08af448a1d39213d73111e95f01ddf65d1ac9026cd87ca02c70046f55dc33a',
    'report @random-3-2-2p --theta 0.3 0.4 --povm computational':
        'd6f3775e08ab5fb452779846724556d5dc46c59cf19675debd4ff24424cf78a5',
    'report @random-3-2-2p --theta 0.3 0.4 --povm x-basis':
        '3fb281834ce0396ec6708131993901dec094f661df322d4d7b7ca9222066fff0',
    'report @random-3-2-2p --theta 0.3 0.4 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'report @random-3-2-2p --theta 0.3 0.4 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @example2 --theta 0.6 0.3':
        '338c559fadc51dc424def26b45c22f23692f18ac3fdce0815a2f4ac5a36196cf',
    'report @example2 --theta 0.6 0.3 --povm computational':
        '2287fb73b8dc00b4b45cd98922735864697331a485436772509ef28c9cc951a0',
    'report @example2 --theta 0.6 0.3 --povm x-basis':
        '3fb281834ce0396ec6708131993901dec094f661df322d4d7b7ca9222066fff0',
    'report @example2 --theta 0.6 0.3 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'report @example2 --theta 0.6 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @example2-linear --theta 0.6 0.3':
        '0b619dc715c9da7c2208a74c826bff1af5ef0bd8f1e185ca7eb869ec0977eb87',
    'report @example2-linear --theta 0.6 0.3 --povm computational':
        '24e26cd514a2d51e28dc41dac6c6073b24dd242ea9cfd64d931bebbdc29ff623',
    'report @example2-linear --theta 0.6 0.3 --povm x-basis':
        '3fb281834ce0396ec6708131993901dec094f661df322d4d7b7ca9222066fff0',
    'report @example2-linear --theta 0.6 0.3 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'report @example2-linear --theta 0.6 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @custom-2p --theta 0.2 0.3':
        '9d559307884eeab319d6292e395dc9532ac5e71ddafebde41ac9c4bde36ca297',
    'report @custom-2p --theta 0.2 0.3 --povm x-basis':
        '3b512ab9b0fadc09b448b0beaca72e2157231f301dca2d243f93a0fc37fd4330',
    'report @custom-2p --theta 0.2 0.3 --povm y-basis':
        '0612007a8f13fd2efbaf356f755378f6efaf4763913fcc01cd5a33a24b06d6c0',
    'report @custom-2p --theta 0.2 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @custom-3-2p --theta 0.2 0.3 --povm computational':
        '632923e4aff7d62ef1db4e3299c70f897769526590e67c140330026bf228527c',
    'report @custom-3-2p --theta 0.2 0.3 --povm x-basis':
        '3fb281834ce0396ec6708131993901dec094f661df322d4d7b7ca9222066fff0',
    'report @custom-3-2p --theta 0.2 0.3 --povm y-basis':
        '78c8e1cf320dd1d943c85fc70a6d01aa7ad315c75bc4ea2ef4ad9b4aaf208b12',
    'report @custom-3-2p --theta 0.2 0.3 --povm optimal':
        'ec81fb754e6222cd3675c4d8fe914dc44a6d4c2e763cb8085bb0551a1355d4ef',
    'report @dephasing-2p --theta 0.625 0.8 --povm computational':
        'c62a67ff965ab7b913d4ae65dc96c7cedc132f79a4b5169290e8f9557bdc2f75',
    'report @dephasing-plus --theta 0.15 --povm optimal':
        'd16255cecfb7de35ae9fe0d62ff4faa61ec378396cc2f594321da18e3d64ec6d',
    'report @dephasing-plus --theta 0.85 --povm optimal':
        'bb5a61e259e4fcdbd59159e4bb85ec8a9e59214ee2e1dab4de9e1fb30b9d39ed',
    'report @example1 --theta 0.25 --povm optimal':
        'd9d7a7f68785f0675a3bc4a8b8e60cc971f9d8e105b36e70ff3cdda6ee422dbd',
    'report @example1 --theta 0.7 --povm optimal':
        '378e944939f9ab662770acbcf2a70ce30b34712c0547b27aa632527de47372fe',
    'report @rotation-z-plus --theta -2.5 --povm optimal':
        '1b6d25488d96d2a626b80f68800c03e7cabc92b71e667fd8b86937e92720711a',
    'report @rotation-z-plus --theta 1.2 --povm optimal':
        '608081e9e5cada38f22fbc0da0cb707824a107d762e337fbfae9a09c4ca97b80',
    'report @damping-one --theta 0.3 --povm optimal':
        'a1aa0af08a3bcf52bfc335d9df1261591bba84880bf9ad6e70d1e57437491954',
    'report @damping-one --theta 0.6 --povm optimal':
        '1231a4f7715066d2379cd76a143bf14b4abcf14081e7b54391031530a478eec6',
    'report @damping --theta 0.35 --povm optimal':
        '20943967cd4a533682d1ccfdd16968ff680f3fb3599913bdbddd7d879495a84d',
    'report @damping --theta 0.9 --povm optimal':
        '1b04a6950aa2762c84d70e38c7b6efbeb5b236839c94fc6ed880ecc224afc8a6',
    'report @depolarizing --theta 0.2 --povm optimal':
        'c6b4d41e569cd2d6b3ed5ba56aa9a14387420501c868dc9eca05fe67778ae546',
    'report @depolarizing --theta 0.55 --povm optimal':
        '61bde951ef774714560197e0468f15aa7340e8cd46e80c8267da4b3d4014f023',
    'report @random-2-1 --theta -0.4 --povm optimal':
        '6e90da9ba354a04cf8d8c90b501bcb0518d49902dc173630b0c8c74ae7827da1',
    'report @random-2-1 --theta 0.6 --povm optimal':
        '095292988eb87b6842b7990f78a9a8735a2d892675c73e344fb6c05533d6b5de',
    'report @random-2-2 --theta -0.7 --povm optimal':
        'fcf44bf0ae94727567842458423a3ac7946391a53b252308f2e2f154fb25c94a',
    'report @random-2-2 --theta 0.1 --povm optimal':
        '268d499b56a77de7bb1041d6507ef2400de195c9d50718864ede1d222532fa90',
    'report @random-3-2 --theta 0.45 --povm optimal':
        'fba8db0d78b8c6996d3c43010a8df405a850129f35351138faf73415f1e922fc',
    'report @random-3-2 --theta -0.2 --povm optimal':
        'aa95c2508c79f8fd7938650ae668df5a377bfc473e097c82d39ca691ddbe0028',
    'report @random-3-5 --theta 0.8 --povm optimal':
        'f7d52a9ea9195201ef283ca00093faf06aad19d01f347473ae363efa1788c2c2',
    'report @random-3-5 --theta -0.6 --povm optimal':
        '86c554fc5f08d44429cca0ae99a6ab8ece0174a22eb2222a19739260999baad2',
    'report @random-4-4 --theta -0.3 --povm optimal':
        '538a89abe89ed37a43b2481659b96234c87a3cae236506bc691aec47fb63bd13',
    'report @random-4-4 --theta 0.25 --povm optimal':
        '0038dd3f6ceef6ef53d1a67ef75fabc8b3096f6dc632b90a8860b427eaf526cd',
    'report @random-6-3 --theta 0.5 --povm optimal':
        '7d92a320701722e0caea660aaf79c00dfc5ee94d06f172c81bfa9298d4aab206',
    'report @random-6-3 --theta -0.55 --povm optimal':
        'b87436baf75a682742fef46fec2f072ea74706e3be35b521d11a7ef70fdf0b0b',
    'report @random-8-8 --theta 0.35 --povm optimal':
        '3334399b307a1c92abdf85340ce94e793bbc0239114c4015f22f16415000be89',
    'report @random-8-8 --theta -0.85 --povm optimal':
        '1394228bf905aa88875dcfce6d6e68128583b34b9e32d8b6ac83a7d8a15b8ac3',
}



