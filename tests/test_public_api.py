import re
from pathlib import Path

import chainmix

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api():
    """{name: module} from the README's "Public API" list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in re.split(r"\n- ", section)[1:]:
        module, names = item.split(":", 1)
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, f"{name} is listed twice"
            listed[name] = module.strip("` ")
    return listed


def test_readme_lists_the_public_api():
    listed = _readme_api()
    assert set(listed) == set(chainmix.__all__)
    assert len(chainmix.__all__) == len(set(chainmix.__all__))
    for name, module in listed.items():
        assert getattr(chainmix, name).__module__ == module, name
