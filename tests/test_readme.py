"""README's library example runs as a doctest, so its printed outputs cannot drift."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(example, {}, "README library example", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted and not failed
