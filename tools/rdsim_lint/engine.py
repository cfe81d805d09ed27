"""Engine for rdsim_lint: file loading, escapes, reports, rule running.

A rule is any object with a `name` attribute and a
`check(tree: SourceTree) -> list[Violation]` method. The engine loads the
`src/` tree once (raw lines plus the two cleaned views from cpp.clean()),
runs each rule, drops violations whose line carries a matching
`// lint:allow(rule[: reason])` escape, and renders text / JSON reports.

Exit-code contract (of `python3 -m tools.rdsim_lint.cli --rules <rule>`):
  0 clean · 1 violations · 2 configuration/usage error (ConfigError).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import cpp

SOURCE_GLOBS = ("*.hpp", "*.cpp")


class ConfigError(Exception):
    """A lint's repo-specific configuration no longer matches the tree."""


@dataclass
class Violation:
    rule: str
    file: str      #: repo-relative path ('' for tree-wide findings)
    line: int      #: 1-based; 0 for file/tree-wide findings
    message: str

    def __str__(self) -> str:
        where = f"{self.file}:{self.line}" if self.line else (self.file or "-")
        return f"{where}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "message": self.message}


class SourceFile:
    def __init__(self, root: Path, path: Path):
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.raw = path.read_text()
        self.raw_lines = self.raw.splitlines()
        cleaned = cpp.clean(self.raw)
        #: comments stripped AND string/char contents blanked
        self.masked_lines = cleaned.masked_lines()
        self.masked_text = cleaned.masked
        #: comments stripped, string literals kept (for rules *about* strings)
        self.code_lines = cleaned.code_lines()
        self._allows: dict[int, set[str]] = {}
        for line_no, raw_line in enumerate(self.raw_lines, start=1):
            rules = cpp.allowed_rules(raw_line)
            if rules:
                self._allows[line_no] = rules

    def allowed(self, line_no: int) -> set[str]:
        return self._allows.get(line_no, set())


class SourceTree:
    """All first-party sources under <root>/src, loaded once."""

    def __init__(self, root: Path):
        self.root = root
        src = root / "src"
        if not src.is_dir():
            raise ConfigError(f"no src/ directory under {root}")
        paths: list[Path] = []
        for glob in SOURCE_GLOBS:
            paths.extend(src.rglob(glob))
        self.files = [SourceFile(root, p) for p in sorted(paths)]
        self._by_rel = {f.rel: f for f in self.files}
        self._struct_index: cpp.StructIndex | None = None

    def file(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)

    def struct_index(self) -> cpp.StructIndex:
        """Struct/member index over every header (built lazily, shared)."""
        if self._struct_index is None:
            index = cpp.StructIndex()
            for f in self.files:
                if f.rel.endswith(".hpp"):
                    index.add_file(f.rel, f.masked_text)
            self._struct_index = index
        return self._struct_index


@dataclass
class Report:
    root: str
    rules: list[str]
    violations: list[Violation]
    notes: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "rdsim.lint/1",
                "root": self.root,
                "rules": self.rules,
                "clean": not self.violations,
                "counts": self.counts(),
                "violations": [v.to_json() for v in self.violations],
                "notes": self.notes,
            },
            indent=2) + "\n"


def run_rules(tree: SourceTree, rules: list) -> Report:
    """Run rules and apply line-level lint:allow escapes uniformly."""
    violations: list[Violation] = []
    notes: list[str] = []
    for rule in rules:
        found = rule.check(tree)
        for v in found:
            sf = tree.file(v.file)
            if sf is not None and v.rule in sf.allowed(v.line):
                continue
            violations.append(v)
        notes.extend(getattr(rule, "notes", []))
    return Report(root=str(tree.root), rules=[r.name for r in rules],
                  violations=violations, notes=notes)
