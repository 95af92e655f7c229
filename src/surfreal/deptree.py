"""Dependency trees and the shallow transform.

The shallow transform turns a fully ordered dependency parse into the
inputs of the word-ordering-plus-inflection task: token ids are
replaced by a uniformly random permutation (so linear order carries no
signal), surface forms are dropped, and the original order is kept
aside as the aligned reference.  The builders read rows by index and
build rows with ``tuple.__new__``, a C-level call, only from fields whose
count and types are already checked: parsed rows, or a tree's nodes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Sequence

from .conllu_io import EMPTY, ConlluError, UdSentence, UdToken, misc_get

ALIGN_KEY = "original_id"
# a MISC column as shallow_to_conllu writes it when there is an alignment
_ALIGNED_MISC = re.compile(rf"\t{ALIGN_KEY}=\d+$", re.MULTILINE)
_new_row = tuple.__new__
_node_fields = itemgetter(2, 3, 5, 7)  # a UdToken's lemma, upos, feats, deprel


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


def _tree(tokens: list[UdToken], new_id: Sequence[int]) -> DepTree:
    """The tree of ``tokens`` with each id and head ``i`` renamed to
    ``new_id[i]`` (``new_id[0]`` is 0).  Raises ConlluError unless exactly
    one token has head 0."""
    nodes = {}
    children: dict[int, list[int]] = {}
    roots = []
    for t in tokens:
        node_id = new_id[t[0]]
        nodes[node_id] = _new_row(NodeInfo, _node_fields(t))
        if t[6] == 0:
            roots.append(node_id)
        else:
            children.setdefault(new_id[t[6]], []).append(node_id)
    if len(roots) != 1:
        raise ConlluError(f"expected exactly one root, found {len(roots)}")
    return DepTree(root=roots[0], nodes=nodes, children=children)


def build_tree(sentence: UdSentence) -> DepTree:
    """The tree of a sentence under its own ids, which must be 1..n in order
    with heads in 0..n, as ``validate_sentence`` checks.  Raises ConlluError
    unless exactly one token has head 0; other tree faults, such as a cycle
    under one root, are ``validate_sentence``'s job, which ``parse_block`` runs."""
    tokens = sentence.tokens
    return _tree(tokens, range(len(tokens) + 1))


def shallow_transform(sentence: UdSentence, seed: int) -> ShallowSentence:
    """Build the shallow-task instance for one parsed sentence.

    Node ids are renamed by a seeded uniform permutation; the same seed
    always yields the same instance.  ``alignment[new_id]`` gives the
    0-based reference position of the token that became ``new_id``.
    Takes the same input as :func:`build_tree` and raises the same errors.
    """
    tokens = sentence.tokens
    perm = list(range(1, len(tokens) + 1))
    random.Random(seed).shuffle(perm)
    # the token with id i is renamed to perm[i - 1], and its position is i - 1
    return ShallowSentence(
        tree=_tree(tokens, [0, *perm]),
        reference_forms=tuple(t[1] for t in tokens),
        alignment=dict(zip(perm, range(len(perm)))),
    )


def unwritable_word(words: list[str]) -> int | None:
    """The index of the first word (a form, a lemma) that a space-separated
    token line cannot carry: an empty word, or one holding whitespace.  None
    if there is none."""
    if " ".join(words).split() == words:  # one C-level pass; the loop names the word
        return None
    return next(i for i, word in enumerate(words) if word.split() != [word])


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
        lemma, upos, feats, deprel = tree.nodes[node_id]
        misc = EMPTY if alignment is None else f"{ALIGN_KEY}={alignment[node_id] + 1}"
        tokens.append(_new_row(UdToken, (node_id, EMPTY, lemma, upos, EMPTY, feats,
                                         parent.get(node_id, 0), deprel, EMPTY, misc)))
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
        value = misc_get(t[9], ALIGN_KEY)
        if value is None:
            alignment = None
            break
        try:
            alignment[t[0]] = int(value) - 1
        except ValueError:
            raise ConlluError(f"non-integer {ALIGN_KEY} {value!r} for token {t[0]}") from None
    if alignment is not None:
        positions = sorted(alignment.values())
        if positions != list(range(len(sentence.tokens))):
            raise ConlluError("original_id values are not a permutation of 1..n")
    return ShallowSentence(tree=tree, reference_forms=reference_forms, alignment=alignment)
