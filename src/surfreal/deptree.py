"""Dependency trees and the shallow transform.

The shallow transform turns a fully ordered dependency parse into the
inputs of the word-ordering-plus-inflection task: token ids are
replaced by a uniformly random permutation (so linear order carries no
signal), surface forms are dropped, and the original order is kept
aside as the aligned reference.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .conllu_io import EMPTY, ConlluError, UdSentence, UdToken, misc_get

ALIGN_KEY = "original_id"
# a MISC column as shallow_to_conllu writes it when there is an alignment
_ALIGNED_MISC = re.compile(rf"\t{ALIGN_KEY}=\d+$", re.MULTILINE)


class NodeInfo(NamedTuple):
    """Payload of one tree node: everything except the surface form.
    A ``NamedTuple``, like :class:`~surfreal.conllu_io.UdToken`."""

    lemma: str
    upos: str
    feats: str
    deprel: str


@dataclass
class DepTree:
    """Rooted tree over node ids. ``children`` lists are sorted ascending
    so traversal order is a function of the ids alone."""

    root: int
    nodes: dict[int, NodeInfo]
    children: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        for kids in self.children.values():
            kids.sort()

    def kids(self, node_id: int) -> list[int]:
        return self.children.get(node_id, [])

    def size(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)


@dataclass
class ShallowSentence:
    """A shuffled tree plus, when known, the reference realization.

    ``alignment`` maps a shuffled node id to the position (0-based) of
    its token in the reference; it is None for synthetic data where no
    reference order exists.
    """

    tree: DepTree
    reference_forms: tuple[str, ...] | None = None
    alignment: dict[int, int] | None = None


def build_tree(sentence: UdSentence) -> DepTree:
    """The tree of a sentence under its own ids.  Raises ConlluError unless
    exactly one token has head 0; other tree faults, such as a cycle under
    one root, are ``validate_sentence``'s job, which ``parse_block`` runs."""
    nodes = {t.id: NodeInfo(t.lemma, t.upos, t.feats, t.deprel) for t in sentence.tokens}
    children: dict[int, list[int]] = {}
    roots = []
    for t in sentence.tokens:
        if t.head == 0:
            roots.append(t.id)
        else:
            children.setdefault(t.head, []).append(t.id)
    return DepTree(root=_only_root(roots), nodes=nodes, children=children)


def _only_root(roots: list[int]) -> int:
    if len(roots) != 1:
        raise ConlluError(f"expected exactly one root, found {len(roots)}")
    return roots[0]


def shallow_transform(sentence: UdSentence, seed: int) -> ShallowSentence:
    """Build the shallow-task instance for one parsed sentence.

    Node ids are renamed by a seeded uniform permutation; the same seed
    always yields the same instance.  ``alignment[new_id]`` gives the
    0-based reference position of the token that became ``new_id``.
    Like :func:`build_tree`, raises ConlluError unless exactly one token
    has head 0, and leaves other tree faults to ``validate_sentence``.
    """
    n = len(sentence.tokens)
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)

    # the token with id i is renamed to perm[i - 1]
    nodes = {}
    children: dict[int, list[int]] = {}
    roots = []
    alignment = {}
    for i, t in enumerate(sentence.tokens):
        new_id = perm[t.id - 1]
        nodes[new_id] = NodeInfo(t.lemma, t.upos, t.feats, t.deprel)
        alignment[new_id] = i
        if t.head == 0:
            roots.append(new_id)
        else:
            children.setdefault(perm[t.head - 1], []).append(new_id)
    tree = DepTree(root=_only_root(roots), nodes=nodes, children=children)
    return ShallowSentence(
        tree=tree,
        reference_forms=tuple(t.form for t in sentence.tokens),
        alignment=alignment,
    )


def unwritable_form(sentence: UdSentence) -> UdToken | None:
    """The first token whose form a space-separated reference line cannot
    carry (an empty form, or one holding whitespace), else None."""
    forms = sentence.forms()
    if " ".join(forms).split() == forms:
        return None
    return next(t for t in sentence.tokens if t.form.split() != [t.form])


def strip_alignment(shallow: ShallowSentence) -> ShallowSentence:
    """The same instance without reference order or forms, as a realizer sees it."""
    return ShallowSentence(tree=shallow.tree, reference_forms=None, alignment=None)


def shallow_to_conllu(shallow: ShallowSentence) -> UdSentence:
    """Encode a shallow instance as a CoNLL-U sentence.

    Rows are ordered by node id, forms are ``_``, and when an alignment
    is present each row carries ``original_id=<refpos+1>`` in MISC.
    """
    tree = shallow.tree
    alignment = shallow.alignment
    parent = {kid: head for head, kids in tree.children.items() for kid in kids}
    tokens = []
    for node_id in tree.node_ids():
        info = tree.nodes[node_id]
        misc = EMPTY if alignment is None else f"{ALIGN_KEY}={alignment[node_id] + 1}"
        tokens.append(UdToken(node_id, EMPTY, info.lemma, info.upos, EMPTY, info.feats,
                              parent.get(node_id, 0), info.deprel, EMPTY, misc))
    return UdSentence(tokens=tokens)


def strip_alignment_text(text: str) -> str:
    """Serialized :func:`shallow_to_conllu` output as it would be without
    alignment: each ``original_id`` MISC column becomes ``_``, the same text
    that encoding ``strip_alignment(s)`` gives, without a second encode."""
    return _ALIGNED_MISC.sub("\t_", text)


def shallow_from_conllu(
    sentence: UdSentence, reference_forms: tuple[str, ...] | None = None
) -> ShallowSentence:
    """Decode a shallow instance; inverse of :func:`shallow_to_conllu`.

    Alignment is reconstructed from ``original_id`` MISC entries when
    every token has one, else left as None.
    """
    tree = build_tree(sentence)
    alignment = {}
    for t in sentence.tokens:
        value = misc_get(t.misc, ALIGN_KEY)
        if value is None:
            alignment = None
            break
        try:
            alignment[t.id] = int(value) - 1
        except ValueError:
            raise ConlluError(f"non-integer {ALIGN_KEY} {value!r} for token {t.id}") from None
    if alignment is not None:
        positions = sorted(alignment.values())
        if positions != list(range(len(sentence.tokens))):
            raise ConlluError("original_id values are not a permutation of 1..n")
    return ShallowSentence(tree=tree, reference_forms=reference_forms, alignment=alignment)
