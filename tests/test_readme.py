"""README's quick start is the block that CI's console-script step runs,
word for word, so the README's commands are the ones that are run."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_quick_start() -> list[str]:
    """The lines of the first ``bash`` block under README's "Quick start"."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Quick start\n")[1]
    return section.split("```bash\n")[1].split("\n```")[0].split("\n")


def ci_quick_start() -> list[str]:
    """The ``run: |`` lines of the workflow's console-script step, dedented."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    lines = lines.split("\n")
    step = next(i for i, line in enumerate(lines) if "name: Console-script quick start" in line)
    run = next(i for i in range(step, len(lines)) if lines[i].strip() == "run: |") + 1
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run:]:
        if not line.startswith(" " * indent):
            break
        block.append(line[indent:])
    return block


def test_readme_quick_start_is_the_ci_step():
    ci = ci_quick_start()
    assert len(ci) > 5
    assert readme_quick_start() == ci
