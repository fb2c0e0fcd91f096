"""What a program that uses the engine as a library loads.

`import gradedqft.cli` loads the engine and the standard-library modules
the engine runs.  The command line's own modules (argparse, configparser,
ast) load when the command line or an INI config needs them, and no
engine class is a dataclass, so neither `dataclasses` nor the `inspect`
it pulls in is loaded.
"""

import os
import pathlib
import subprocess
import sys

import gradedqft

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
DATA = pathlib.Path(__file__).parent / "data"
CLI_ONLY = {"dataclasses", "inspect", "argparse", "configparser", "ast"}


def _run(*args: str) -> subprocess.CompletedProcess:
    run = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    run = _run("-c", code + "\nimport sys\nprint(' '.join(sys.modules))")
    return set(run.stdout.split())


def test_the_library_path_loads_no_command_line_module():
    bare = _modules_after("pass")
    imported = _modules_after("import gradedqft.cli")
    assert "gradedqft.identities" in imported
    assert (imported - bare) & CLI_ONLY == set()
    verified = _modules_after(
        "from gradedqft import cli\n"
        "cfg = cli.load_config(None)\n"
        "cli.context_from_config(cfg)\n"
        "assert cli.run_verify(cfg, ['algebra'])['failed'] == 0")
    assert (verified - bare) & CLI_ONLY == set()


def test_the_command_line_loads_its_modules_when_it_runs():
    run = _run("-m", "gradedqft", "--help")
    assert run.stdout.startswith("usage: gradedqft")
    # an INI config goes through configparser and ast.literal_eval
    run = _run("-m", "gradedqft", "dump-lattice", "--config",
               str(DATA / "lattice4.ini"))
    assert run.stdout.startswith("[base] 4 modes")
    assert "p3 = ('0', '-1', '0')" in run.stdout
