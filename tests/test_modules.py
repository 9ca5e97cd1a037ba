"""Each library module uses only the public names of the others."""

import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "freesplit")
PRIVATE_REACH = re.compile(r"\b(partitions|blowup|complexes|freegroup|verify|cli)\._\w*")


def test_no_module_uses_another_modules_private_name():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "complexes.py" in modules
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as handle:
            source = handle.read()
        match = PRIVATE_REACH.search(source)
        assert match is None, "%s uses %s" % (name, match.group(0))
