"""What a property draws depends on the property alone, not on the code that is loaded.

``tests/conftest.py`` gives Hypothesis an empty pool of local constants through
a private hook; these tests fail loudly when the hook moves, and check that a
newly loaded literal changes no draw.  They also check the ``deep`` profile
that conftest registers.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis.internal.conjecture import providers

import conftest

TESTS_DIR = Path(__file__).parent

# one derandomized property over all floats, run in a fresh process that loads conftest's hook and, when a
# directory is given, a local module holding a literal that no other module holds
DRAWS = """
import sys
sys.path.insert(0, sys.argv[1])
import conftest
if len(sys.argv) > 2:
    sys.path.insert(0, sys.argv[2])
    import extra_literal
from hypothesis import given, settings, strategies as st
drawn = []
@settings(max_examples=200, derandomize=True, database=None)
@given(st.floats())
def draw(x):
    drawn.append(x)
draw()
print(repr(drawn))
"""


def test_the_local_constant_hook_is_in_place():
    name = f"hypothesis.internal.conjecture.providers.{conftest.LOCAL_CONSTANTS_HOOK}"
    gone = f"{name} is gone: tests/conftest.py cannot empty the local-constant pool, so draws follow the loaded code"
    assert hasattr(providers, conftest.LOCAL_CONSTANTS_HOOK), gone
    assert conftest.LOCAL_CONSTANTS_HOOK in inspect.getsource(providers.HypothesisProvider), gone
    assert getattr(providers, conftest.LOCAL_CONSTANTS_HOOK) is conftest.no_local_constants
    assert len(conftest.no_local_constants()) == 0


def test_a_newly_loaded_literal_changes_no_draw(tmp_path):
    (tmp_path / "extra_literal.py").write_text("K = 123.456789\n", encoding="utf-8")
    runs = [
        subprocess.run([sys.executable, "-c", DRAWS, str(TESTS_DIR), *extra],
                       capture_output=True, text=True, check=True).stdout
        for extra in ([], [str(tmp_path)])
    ]
    assert runs[0].startswith("[") and runs[0] == runs[1]


# a property at the suite's settings, and a test after it that prints what the property drew
DEEP_RUN = """
from conftest import PROPERTIES
from hypothesis import given, strategies as st
drawn = []
@PROPERTIES
@given(st.integers())
def test_draw(x):
    drawn.append(x)
def test_print():
    print("drew", len(drawn), drawn)
"""


def test_the_deep_profile_draws_ten_times_the_examples_from_the_seed_it_prints(tmp_path):
    (tmp_path / "test_deep.py").write_text(DEEP_RUN, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS_DIR), *sys.path])}

    def run(*options):
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "-p", "conftest", *options,
             "test_deep.py"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        return completed.stdout

    default = run()
    deep = run("--hypothesis-profile=deep")
    assert "drew 200 " in default and "hypothesis profile" not in default
    assert "drew 2000 " in deep
    (seed,) = re.findall(r"hypothesis profile 'deep': seed (\d+) \(--hypothesis-seed=\1\)", deep)
    again = run("--hypothesis-profile=deep", f"--hypothesis-seed={seed}")
    drew = re.compile(r"drew .*")
    assert drew.search(again).group() == drew.search(deep).group()
