"""Layering lint (ctest `layering_lint`).

The build graph is a DAG and the `#include` graph must mirror it. Each
src/ subdirectory is one layer; a file may include only files of its own
layer or a lower-ranked one:

    rank 0  base         src/util/thread_annotations.hpp  (dependency-free)
    rank 0  check-core   src/check/{contracts,hash,replay}.*  (includes base only)
    rank 1  util         src/util/
    rank 2  obs          src/obs/
    rank 3  net          src/net/
    rank 4  sim          src/sim/
    rank 5  trace        src/trace/
    rank 6  check-replay src/check/frame_hash.*  (hashes sim/trace state)
    rank 7  metrics      src/metrics/
    rank 8  mitigate     src/mitigate/
    rank 9  core         src/core/

(The check directory holds two layers: the dependency-free contract/hash/
replay primitives that everything may use, and the frame-hash replay checker
that sits above sim and trace. This mirrors the rdsim_check /
rdsim_check_replay split in src/CMakeLists.txt.)

Rules:

  layer-violation   file includes a header from a higher-ranked layer
                    (a back-edge; would make the dependency graph cyclic)
  include-cycle     a cycle in the file-level include graph, reported once
                    per cycle at its lexicographically-smallest file
  dangling-include  a quoted include that resolves to no file in the tree
  missing-include   a file names entities from layer namespace `X::` (or
                    `rdsim::X::`) without directly including any header of
                    that layer — it compiles only via transitive includes,
                    which header refactors then silently break. A few
                    functions are declared in a namespace whose layer does
                    not own them (DECLARED_IN); a use of one of those needs
                    a header of the layer that declares it instead

The rule keeps the full graph; `dot()` renders the layer-aggregated
dependency graph (violating edges in red) for the CI artifact.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath

from .. import cpp
from ..engine import ConfigError, SourceTree, Violation

#: directory name -> layer name
DIR_LAYER = {
    "check": "check-core",
    "util": "util",
    "obs": "obs",
    "net": "net",
    "sim": "sim",
    "trace": "trace",
    "metrics": "metrics",
    "mitigate": "mitigate",
    "core": "core",
}

#: per-file overrides of the directory mapping
FILE_LAYER = {
    "src/check/frame_hash.hpp": "check-replay",
    "src/check/frame_hash.cpp": "check-replay",
    # Dependency-free annotation macros; rank 0 so even check-core can carry
    # thread-safety annotations without inverting the check < util ordering.
    "src/util/thread_annotations.hpp": "base",
}

RANK = {
    "base": 0,
    "check-core": 0,
    "util": 1,
    "obs": 2,
    "net": 3,
    "sim": 4,
    "trace": 5,
    "check-replay": 6,
    "metrics": 7,
    "mitigate": 8,
    "core": 9,
}

#: namespace -> directory for the missing-include check. Only top-level
#: layer namespaces are mapped; sub-namespaces (units::, …) stay with their
#: header and are covered transitively by their layer's own hygiene.
NAMESPACE_DIR = {
    "check": "check",
    "util": "util",
    "obs": "obs",
    "net": "net",
    "sim": "sim",
    "trace": "trace",
    "metrics": "metrics",
    "mitigate": "mitigate",
    "core": "core",
}

#: qualified name -> directory of the header that declares it, for the
#: functions whose namespace is not their layer's. check::campaign_hash and
#: its per-run and per-subject parts hash core types, so core declares them
#: (src/core/campaign_hash.hpp) in rdsim::check beside the other hashes.
DECLARED_IN = {
    "check::campaign_hash": "core",
    "check::hash_run": "core",
    "check::hash_subject": "core",
}

_NS_USE_RE = re.compile(
    r"(?<![\w:])(?:rdsim::)?"
    r"(check|util|obs|net|sim|trace|metrics|mitigate|core)::(\w*)"
)


def file_layer(rel: str) -> str | None:
    override = FILE_LAYER.get(rel)
    if override is not None:
        return override
    parts = PurePosixPath(rel).parts
    if len(parts) < 3 or parts[0] != "src":
        return None
    return DIR_LAYER.get(parts[1])


class LayeringRule:
    name = "layering"

    def __init__(self) -> None:
        self.notes: list[str] = []
        #: file-level include graph: rel -> [(line, included rel)]
        self.includes: dict[str, list[tuple[int, str]]] = {}
        #: layer-level aggregate: (src layer, dst layer) -> edge count
        self.layer_edges: dict[tuple[str, str], int] = {}
        #: layer-level edges that violate the DAG
        self.bad_layer_edges: set[tuple[str, str]] = set()

    # -- include resolution --------------------------------------------------

    @staticmethod
    def _resolve(including: str, path: str, tree: SourceTree) -> str | None:
        """Quoted includes are repo-relative ("net/packet.hpp" style) in this
        codebase, but tolerate sibling-relative too."""
        for candidate in (f"src/{path}",
                          str(PurePosixPath(including).parent / path)):
            if tree.file(candidate) is not None:
                return candidate
        return None

    def check(self, tree: SourceTree) -> list[Violation]:
        violations: list[Violation] = []
        self.includes = {}
        self.layer_edges = {}
        self.bad_layer_edges = set()

        for sf in tree.files:
            layer = file_layer(sf.rel)
            if layer is None:
                raise ConfigError(
                    f"{sf.rel} belongs to no known layer — extend DIR_LAYER "
                    "in tools/rdsim_lint/rules/layering.py and document the "
                    "new layer's rank in docs/correctness.md")
            resolved: list[tuple[int, str]] = []
            for line_no, path in cpp.parse_includes(sf.code_lines):
                target = self._resolve(sf.rel, path, tree)
                if target is None:
                    violations.append(Violation(
                        "dangling-include", sf.rel, line_no,
                        f'#include "{path}" resolves to no file under src/'))
                    continue
                resolved.append((line_no, target))
                target_layer = file_layer(target)
                key = (layer, target_layer)
                if layer != target_layer:
                    self.layer_edges[key] = self.layer_edges.get(key, 0) + 1
                if RANK[target_layer] > RANK[layer]:
                    self.bad_layer_edges.add(key)
                    violations.append(Violation(
                        "layer-violation", sf.rel, line_no,
                        f"{layer} (rank {RANK[layer]}) must not include "
                        f"{target} from layer {target_layer} "
                        f"(rank {RANK[target_layer]})"))
            self.includes[sf.rel] = resolved

        violations.extend(self._find_cycles())
        violations.extend(self._missing_includes(tree))
        return violations

    # -- cycles --------------------------------------------------------------

    def _find_cycles(self) -> list[Violation]:
        violations: list[Violation] = []
        WHITE, GREY, BLACK = 0, 1, 2
        color = {rel: WHITE for rel in self.includes}
        stack: list[str] = []
        reported: set[frozenset[str]] = set()

        def visit(rel: str) -> None:
            color[rel] = GREY
            stack.append(rel)
            for _line, target in self.includes.get(rel, ()):
                if color.get(target, BLACK) == WHITE:
                    visit(target)
                elif color.get(target) == GREY:
                    cycle = stack[stack.index(target):] + [target]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        anchor = min(cycle)
                        violations.append(Violation(
                            "include-cycle", anchor, 0,
                            "include cycle: " + " -> ".join(cycle)))
            stack.pop()
            color[rel] = BLACK

        for rel in sorted(self.includes):
            if color[rel] == WHITE:
                visit(rel)
        return violations

    # -- namespace-use hygiene -----------------------------------------------

    def _missing_includes(self, tree: SourceTree) -> list[Violation]:
        violations: list[Violation] = []
        for sf in tree.files:
            own_dir = PurePosixPath(sf.rel).parts[1]
            directly_included_dirs = {
                PurePosixPath(target).parts[1]
                for _line, target in self.includes.get(sf.rel, ())
            }
            # a .cpp gets its own header's includes for free only if it
            # includes that header — which the resolver already tracks, so no
            # special case is needed.
            #: (what is used, directory that declares it) -> first line
            first_use: dict[tuple[str, str], int] = {}
            for line_no, code in enumerate(sf.masked_lines, start=1):
                if "namespace" in code:
                    continue  # namespace declarations are not uses
                for m in _NS_USE_RE.finditer(code):
                    ns, name = m.group(1), m.group(2)
                    qualified = f"{ns}::{name}"
                    if qualified in DECLARED_IN:
                        key = (qualified, DECLARED_IN[qualified])
                    else:
                        key = (f"{ns}::", NAMESPACE_DIR[ns])
                    first_use.setdefault(key, line_no)
            for (used, need_dir), line_no in sorted(first_use.items(),
                                                    key=lambda kv: kv[1]):
                if need_dir == own_dir or need_dir in directly_included_dirs:
                    continue
                violations.append(Violation(
                    "missing-include", sf.rel, line_no,
                    f"uses {used} but includes no header from src/{need_dir}/"
                    " — add the direct include instead of relying on "
                    "transitive includes"))
        return violations

    # -- DOT artifact ----------------------------------------------------------

    def dot(self) -> str:
        """Layer-aggregated dependency graph, violating edges in red."""
        lines = [
            "// rdsim layer dependency graph (generated by rdsim_lint)",
            "digraph rdsim_layers {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
        ]
        used = {l for edge in self.layer_edges for l in edge}
        for layer in sorted(used, key=lambda l: RANK[l]):
            lines.append(f'  "{layer}" [label="{layer}\\nrank {RANK[layer]}"];')
        for (src, dst), count in sorted(self.layer_edges.items()):
            style = ', color=red, penwidth=2' if (src, dst) in \
                self.bad_layer_edges else ''
            lines.append(
                f'  "{src}" -> "{dst}" [label="{count}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def make_rule() -> LayeringRule:
    return LayeringRule()
