"""Turn shallow trees into flat token sequences for sequence models.

Linearization is a depth-first pre-order walk from the root; the visit
order of each node's children is drawn uniformly at random per node, so
re-linearizing the same tree with different seeds yields different but
equally valid sequences.  Optional scoping brackets mark subtree
boundaries, and an optional form list appends the inflection candidates
for lemmas that have more than one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .conllu_io import DataError
from .deptree import DepTree, ShallowSentence

OPEN = "("
CLOSE = ")"
FORMS_SEP = "<forms>"
SEGMENT_EQ = "="
SEGMENT_OR = "|"

# collision guard: these appear as literal tokens in source sequences,
# so literal parentheses in text are rewritten on ingestion
LRB = "-lrb-"
RRB = "-rrb-"


_ESCAPES = {"(": LRB, ")": RRB}


def escape_token(token: str) -> str:
    return _ESCAPES.get(token, token)


@dataclass
class LinearSeq:
    """A linearized tree: ``tokens`` is the flat sequence, ``node_of``
    maps positions of lemma tokens back to tree node ids (markers and
    form-list tokens have no entry).  ``node_of``'s keys ascend in
    insertion order, as :func:`linearize` inserts them."""

    tokens: list[str]
    node_of: dict[int, int] = field(default_factory=dict)

    def node_order(self) -> list[int]:
        """Node ids in traversal order: ``node_of``'s values, as its keys ascend."""
        return list(self.node_of.values())

    def text(self) -> str:
        return " ".join(self.tokens)


def linearize(s: ShallowSentence, rng_seed: int, scoped: bool = False) -> LinearSeq:
    """Emit the tree as a token sequence, deterministic for a fixed seed.

    Each node contributes its (escaped) lemma before any of its children;
    with ``scoped`` on, a node with children wraps all of its child
    subtrees in a single bracket pair.  The children's order comes from one
    ``random.Random(rng_seed)`` stream: one ``shuffle`` per node with two or
    more children, in visit order.
    """
    shuffle = random.Random(rng_seed).shuffle
    escape = _ESCAPES.get
    nodes = s.tree.nodes
    children = s.tree.children
    tokens: list[str] = []
    node_of: dict[int, int] = {}
    # node ids still to visit, and the CLOSE marker where a bracket pair ends; top last
    stack: list = [s.tree.root]
    while stack:
        node_id = stack.pop()
        if node_id is CLOSE:
            tokens.append(CLOSE)
            continue
        node_of[len(tokens)] = node_id
        lemma = nodes[node_id][0]
        tokens.append(escape(lemma, lemma))
        kids = children.get(node_id)
        if not kids:
            continue
        if len(kids) > 1:  # shuffle draws nothing for one item
            kids = kids.copy()
            shuffle(kids)
        if scoped:
            tokens.append(OPEN)
            stack.append(CLOSE)
        stack.extend(reversed(kids))
    return LinearSeq(tokens=tokens, node_of=node_of)


def append_form_list(
    seq: LinearSeq, lexicon, tree: DepTree,
    *, segments: dict[tuple[str, str], tuple[str, ...]] | None = None,
) -> LinearSeq:
    """Append inflection candidates for each relevant node, in traversal order.

    A node is relevant when its (lemma, upos) pair has at least two
    distinct observed forms in the lexicon.  Each relevant node adds one
    segment ``lemma = form | form | ...`` after a reserved separator, its
    lemma escaped as well as its forms;
    with no relevant nodes the sequence is returned unchanged.  Segments
    are built once per (lemma, upos) into ``segments``, a memo that calls
    with the same lexicon may share (a fresh one when None).
    """
    if segments is None:
        segments = {}
    nodes = tree.nodes
    form_list = [FORMS_SEP]
    for node_id in seq.node_order():
        key = nodes[node_id][:2]  # (lemma, upos)
        segment = segments.get(key)
        if segment is None:
            segment = segments[key] = _form_list_segment(
                key[0], lexicon.relevant_forms(*key))
        form_list += segment
    if len(form_list) == 1:  # no relevant node
        return seq
    return LinearSeq(tokens=seq.tokens + form_list, node_of=dict(seq.node_of))


def _form_list_segment(lemma: str, forms: tuple[tuple[str, int], ...]) -> tuple[str, ...]:
    """``lemma = form | form | ...`` for a relevant node, else ()."""
    if not forms:
        return ()
    segment = [escape_token(lemma), SEGMENT_EQ]
    for i, (form, _count) in enumerate(forms):
        if i:
            segment.append(SEGMENT_OR)
        segment.append(escape_token(form))
    return tuple(segment)


def emit_training_pairs(
    dataset: list[ShallowSentence],
    k_linearizations: int,
    scoped: bool,
    lexicon,
    rng_seed: int,
) -> list[tuple[str, str]]:
    """Emit k source/target lines per sentence, interleaved by epoch block.

    Block e holds one linearization of every sentence, so a trainer
    consuming the file in order sees each sentence once per block; the
    seed for sentence i in block e is ``rng_seed + e*len(dataset) + i``,
    distinct across all pairs.  Targets are the reference forms and never
    vary between blocks.  With a ``lexicon`` every source gets its form
    list (see :func:`append_form_list`); with None it gets none.
    """
    if k_linearizations < 1:
        raise ValueError("k_linearizations must be >= 1")
    targets = []
    for s in dataset:
        if s.reference_forms is None:
            raise DataError("training pairs need reference forms for every sentence")
        targets.append(" ".join(map(escape_token, s.reference_forms)))
    pairs = []
    segments: dict[tuple[str, str], tuple[str, ...]] = {}
    for e in range(k_linearizations):
        for i, s in enumerate(dataset):
            seq = linearize(s, rng_seed + e * len(dataset) + i, scoped=scoped)
            if lexicon is not None:
                seq = append_form_list(seq, lexicon, s.tree, segments=segments)
            pairs.append((seq.text(), targets[i]))
    return pairs


def write_pair_files(pairs: list[tuple[str, str]], src_path, tgt_path) -> None:
    """Write parallel .src/.tgt files, one example per line."""
    with open(src_path, "w", encoding="utf-8") as src, open(tgt_path, "w", encoding="utf-8") as tgt:
        for source, target in pairs:
            src.write(source + "\n")
            tgt.write(target + "\n")
