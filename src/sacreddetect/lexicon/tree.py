"""The lexicon tree: concepts organized by religious tradition.

The on-disk format is a human-editable indented text file -- the tree is
hand-curated, so editability comes first:

    exclude: love, hope, submission
    Christianity:
      chaplain: chaplain, chaplains
    general:
      god: god, gods

Two-space indentation nests a concept under its parent; ``name: v1, v2``
attaches matchable surface forms to a concept; ``exclude:`` (top level
only) lists forms that must never match. ``#`` lines are comments.
``match`` writes a canonical JSON export of the loaded tree next to its
labels, as the record of which lexicon it ran with; it is not read back.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..errors import LexiconError

log = logging.getLogger(__name__)

INDENT = 2
GENERAL_ROOT = "general"


@dataclass
class LexiconNode:
    name: str
    variants: list[str] = field(default_factory=list)
    children: list["LexiconNode"] = field(default_factory=list)


@dataclass
class Lexicon:
    roots: list[LexiconNode]
    exclusions: list[str] = field(default_factory=list)

    def walk(self) -> Iterator[tuple[tuple[str, ...], LexiconNode]]:
        """Depth-first (document order) over (root-to-node path, node)."""

        def _walk(node: LexiconNode, path: tuple[str, ...]):
            here = path + (node.name,)
            yield here, node
            for child in node.children:
                yield from _walk(child, here)

        for root in self.roots:
            yield from _walk(root, ())

    def all_variants(self) -> list[str]:
        out = []
        for _, node in self.walk():
            out.extend(node.variants)
        return out

    def duplicate_variants(self) -> dict[str, list[tuple[str, ...]]]:
        """Variants housed under more than one node, with their paths.

        Allowed -- a word may signal multiple traditions -- but reported so
        curators see the overlap.
        """
        where: dict[str, list[tuple[str, ...]]] = {}
        for path, node in self.walk():
            for v in node.variants:
                where.setdefault(v, []).append(path)
        return {v: paths for v, paths in where.items() if len(paths) > 1}


def normalize_form(form: str) -> str:
    """Lowercase, trimmed, internal whitespace collapsed to single spaces.

    The one normalization of lexicon forms and report phrases alike.
    """
    return " ".join(form.lower().split())


def parse_lexicon_text(text: str) -> Lexicon:
    """Parse the indented tree format. Raises LexiconError with line numbers."""
    roots: list[LexiconNode] = []
    exclusions: list[str] = []
    stack: list[LexiconNode] = []  # stack[d] is the open node at depth d

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % INDENT:
            raise LexiconError(f"line {lineno}: indentation must be a multiple of {INDENT} spaces")
        depth = indent // INDENT
        line = raw.strip()
        if ":" not in line:
            raise LexiconError(f"line {lineno}: expected 'name: variants', got {line!r}")
        name, _, variants_part = line.partition(":")
        name = name.strip()
        if not name:
            raise LexiconError(f"line {lineno}: empty concept name")

        variants = []
        if variants_part.strip():
            for piece in variants_part.split(","):
                form = normalize_form(piece)
                if not form:
                    raise LexiconError(f"line {lineno}: empty surface form in {line!r}")
                variants.append(form)

        if name == "exclude":
            if depth != 0:
                raise LexiconError(f"line {lineno}: 'exclude' is a top-level directive")
            exclusions.extend(variants)
            continue

        if depth > len(stack):
            raise LexiconError(f"line {lineno}: indentation jumps more than one level")
        node = LexiconNode(name=name, variants=variants)
        del stack[depth:]
        if depth == 0:
            roots.append(node)
        else:
            stack[depth - 1].children.append(node)
        stack.append(node)

    return validate_lexicon(Lexicon(roots=roots, exclusions=sorted(set(exclusions))))


def validate_lexicon(lexicon: Lexicon) -> Lexicon:
    if not lexicon.roots:
        raise LexiconError("lexicon has no roots")
    if not any(r.name.lower() == GENERAL_ROOT for r in lexicon.roots):
        raise LexiconError(f"lexicon lacks the '{GENERAL_ROOT}' root for cross-traditional terms")

    for path, node in lexicon.walk():
        if [p.lower() for p in path].count(node.name.lower()) > 1:
            raise LexiconError(
                f"concept name {node.name!r} repeats along the path {' > '.join(path)}"
            )
        for v in node.variants:
            if v != normalize_form(v):
                raise LexiconError(f"variant {v!r} under {node.name!r} is not normalized")

    exclusion_set = set(lexicon.exclusions)
    overlap = exclusion_set & set(lexicon.all_variants())
    if overlap:
        raise LexiconError(
            "surface form(s) listed both as variant and exclusion: "
            + ", ".join(sorted(overlap))
        )

    duplicates = lexicon.duplicate_variants()
    if duplicates:
        log.info(
            "%d variant(s) appear under multiple nodes: %s",
            len(duplicates),
            ", ".join(sorted(duplicates)),
        )
    return lexicon


def lexicon_to_json(lexicon: Lexicon) -> str:
    """Canonical JSON export (document order preserved)."""

    def node_dict(node: LexiconNode) -> dict:
        return {
            "name": node.name,
            "variants": list(node.variants),
            "children": [node_dict(c) for c in node.children],
        }

    payload = {
        "roots": [node_dict(r) for r in lexicon.roots],
        "exclusions": list(lexicon.exclusions),
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def load_lexicon(path: str | Path) -> Lexicon:
    """Load and validate a lexicon file in the indented tree format."""
    path = Path(path)
    if not path.is_file():
        raise LexiconError(f"lexicon file not found: {path}")
    return parse_lexicon_text(path.read_text(encoding="utf-8"))
