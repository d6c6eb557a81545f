"""README's Python examples run as written."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    out = StringIO()
    with redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the quickstart's edit distance, as its comment states
    assert out.getvalue().splitlines()[0] == "1"
