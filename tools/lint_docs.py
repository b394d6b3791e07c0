"""Doc-consistency lint (the CI ``docs`` job).

Two checks keep the prose and the code from drifting apart:

1. **Docstring coverage** — every public entry point of every
   ``repro`` module (everything in ``__all__``, plus public methods and
   properties of public classes) must carry a non-empty docstring.
   "Public API" here means: if it is exported, it is documented.

2. **Executable documentation** — fenced ``python`` code blocks in
   README.md and ``docs/*.md`` are executed.  Blocks written as doctest
   sessions (``>>>``) run under :mod:`doctest` and must produce the
   shown output; plain blocks are executed top to bottom in a fresh
   namespace and must not raise.  Blocks tagged ``python no-run``
   (network servers, CLI transcripts) are only compiled.

Usage::

    PYTHONPATH=src python tools/lint_docs.py            # both checks
    PYTHONPATH=src python tools/lint_docs.py --docstrings-only
    PYTHONPATH=src python tools/lint_docs.py --blocks-only

Exit status 0 means the docs match the code.
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
import traceback

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

def audited_modules() -> list[str]:
    """Every module of the ``repro`` package, found by walking it."""
    import repro

    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )


#: Markdown files whose ``python`` code blocks must execute.
DOC_FILES = ["README.md", "docs/api.md", "docs/core.md", "docs/kex.md",
             "docs/net.md", "docs/observability.md", "docs/parallel.md",
             "docs/relay.md", "docs/scenarios.md"]

_FENCE = re.compile(r"^```(\w[\w-]*(?: [\w-]+)*)?\s*$")


def _has_doc(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def check_docstrings() -> list[str]:
    """Return one problem string per missing/empty public docstring."""
    problems: list[str] = []
    for module_name in audited_modules():
        module = importlib.import_module(module_name)
        if not _has_doc(module):
            problems.append(f"{module_name}: module docstring missing")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems.append(f"{module_name}: no __all__")
            continue
        for name in exported:
            obj = getattr(module, name)
            if type(obj).__module__ in ("typing", "collections.abc"):
                continue  # type aliases are documented by `#:` comments
            if not (inspect.isclass(obj) or callable(obj)):
                continue  # re-exported constants document themselves
            if not _has_doc(obj):
                problems.append(f"{module_name}.{name}: docstring missing")
            if inspect.isclass(obj):
                problems.extend(_check_class(module_name, name, obj))
    return problems


def _check_class(module_name: str, class_name: str, cls) -> list[str]:
    problems = []
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        target = None
        if inspect.isfunction(member):
            target = member
        elif isinstance(member, property):
            target = member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            target = member.__func__
        if target is not None and not _has_doc(target):
            problems.append(
                f"{module_name}.{class_name}.{attr}: docstring missing"
            )
    return problems


def _code_blocks(path: pathlib.Path):
    """Yield ``(start_line, info_string, source)`` per fenced block."""
    lines = path.read_text(encoding="utf-8").splitlines()
    block: list[str] | None = None
    info = ""
    start = 0
    for lineno, line in enumerate(lines, 1):
        match = _FENCE.match(line.strip())
        if block is None and match and match.group(1):
            block, info, start = [], match.group(1), lineno
        elif block is not None and line.strip() == "```":
            yield start, info, "\n".join(block) + "\n"
            block = None
        elif block is not None:
            block.append(line)


def check_code_blocks() -> list[str]:
    """Execute documentation code blocks; return one string per failure."""
    problems: list[str] = []
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    for rel in DOC_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: documented file does not exist")
            continue
        for start, info, source in _code_blocks(path):
            tokens = info.split()
            if tokens[0] != "python":
                continue
            where = f"{rel}:{start}"
            if "no-run" in tokens[1:]:
                try:
                    compile(source, where, "exec")
                except SyntaxError as exc:
                    problems.append(f"{where}: syntax error: {exc}")
                continue
            if ">>>" in source:
                test = parser.get_doctest(source, {}, where, rel, start)
                failures = runner.run(test, clear_globs=True).failed
                if failures:
                    problems.append(f"{where}: {failures} doctest failure(s)")
            else:
                try:
                    exec(compile(source, where, "exec"), {"__name__": where})
                except Exception:
                    problems.append(
                        f"{where}: block raised\n"
                        + traceback.format_exc(limit=2)
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    """Run the requested checks; print problems; non-zero on any."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--docstrings-only", action="store_true")
    group.add_argument("--blocks-only", action="store_true")
    args = parser.parse_args(argv)

    problems: list[str] = []
    if not args.blocks_only:
        problems += check_docstrings()
    if not args.docstrings_only:
        problems += check_code_blocks()

    if problems:
        print(f"{len(problems)} doc-consistency problem(s):\n")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("docs OK: public API fully docstring-covered, "
          "all documentation code blocks execute")
    return 0


if __name__ == "__main__":
    sys.exit(main())
