"""The README's library example, run as written, must print what its
comment says, so the README cannot drift from the library unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_matches_its_comment():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    comment = blocks[0].rstrip().splitlines()[-1]
    assert comment.startswith("# ")
    claims = dict(pair.split(" = ") for pair in comment[2:].split(", "))
    assert claims == {"r.lhs": "25/4", "r.rhs": "4", "r.gap": "9/4", "r.equality": "False"}
    for expr, value in claims.items():
        assert str(eval(expr, namespace)) == value, expr
