"""What a property draws depends on the property alone, not on the code that is loaded.

``tests/conftest.py`` gives Hypothesis an empty pool of local constants through
a private hook; these tests fail loudly when the hook moves, and check that a
newly loaded literal changes no draw.
"""

import inspect
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
