import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci`: the same examples on every run, and no
# example database carried between runs
settings.register_profile("ci", derandomize=True, database=None)
