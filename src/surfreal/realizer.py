"""Surface realization by restricted beam search.

The search space is deliberately narrow: every output token is an
inflection candidate of one input node, every node is used exactly
once, and the output length equals the node count.  Word-order and
inflection preferences come from a pluggable Scorer; the n-gram scorer
is the statistical reference implementation and the oracle scorer is a
test instrument that reproduces the aligned reference.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from collections.abc import Hashable
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

from .conllu_io import DataError, UdSentence, parse_pairs
from .deptree import NodeInfo, ShallowSentence
from .ngram import NGramModel

# morphological features that select an inflection; everything else
# (lexicalized or syntactic marks) is dropped from lexicon keys
KEPT_FEATS = frozenset({"Case", "Degree", "Mood", "Number", "Person", "Tense", "VerbForm"})
# the token fields a lexicon row is counted by
_LEXICON_ROW = attrgetter("lemma", "upos", "feats", "form")


def feats_key(feats: str) -> tuple[tuple[str, str], ...]:
    kept = [(k, v) for k, v in parse_pairs(feats) if k in KEPT_FEATS]
    return tuple(sorted(kept))


def _rank_forms(counter: Counter) -> tuple[tuple[str, int], ...]:
    # descending count, ties by form string
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


class FormLexicon:
    """Observed surface forms per (lowercased lemma, upos, feature subset).

    Lookup never fails: (lemma, upos, feats) falls back to (lemma, upos),
    then (lemma,), then to the lemma string itself with count 1.
    """

    def __init__(self, full: dict, by_lemma_upos: dict, by_lemma: dict):
        self.full = full
        self.by_lemma_upos = by_lemma_upos
        self.by_lemma = by_lemma

    def candidates(self, lemma: str, upos: str, feats: str) -> tuple[tuple[str, int], ...]:
        key = (lemma.lower(), upos, feats_key(feats))
        hit = self.full.get(key)
        if hit is None:
            hit = self.by_lemma_upos.get((lemma.lower(), upos))
        if hit is None:
            hit = self.by_lemma.get(lemma.lower())
        if hit is None:
            hit = ((lemma, 1),)
        return hit

    def candidates_for(self, info: NodeInfo) -> tuple[tuple[str, int], ...]:
        return self.candidates(info.lemma, info.upos, info.feats)

    def relevant_forms(self, lemma: str, upos: str) -> tuple[tuple[str, int], ...]:
        """The (lemma, upos) pair's observed forms when it has at least two, else ()."""
        hit = self.by_lemma_upos.get((lemma.lower(), upos), ())
        return hit if len(hit) >= 2 else ()


def build_form_lexicon(gold: list[UdSentence]) -> FormLexicon:
    # count each distinct (lemma, upos, feats, form) row once, then fold the
    # counts into the three tables (_rank_forms sorts, so order does not matter)
    rows: Counter = Counter()
    for sentence in gold:
        rows.update(map(_LEXICON_ROW, sentence.tokens))
    keys: dict[str, tuple] = {}
    full: dict[tuple, Counter] = defaultdict(Counter)
    by_lemma_upos: dict[tuple, Counter] = defaultdict(Counter)
    by_lemma: dict[str, Counter] = defaultdict(Counter)
    for (lemma, upos, feats, form), n in rows.items():
        lemma = lemma.lower()
        key = keys.get(feats)
        if key is None:
            key = keys[feats] = feats_key(feats)
        full[lemma, upos, key][form] += n
        by_lemma_upos[lemma, upos][form] += n
        by_lemma[lemma][form] += n
    return FormLexicon(
        full={k: _rank_forms(c) for k, c in full.items()},
        by_lemma_upos={k: _rank_forms(c) for k, c in by_lemma_upos.items()},
        by_lemma={k: _rank_forms(c) for k, c in by_lemma.items()},
    )


@dataclass(frozen=True)
class NodeHandle:
    """Identity plus payload of the tree node a candidate form realizes."""

    node_id: int
    info: NodeInfo


class Scorer(ABC):
    """Log-probability of a candidate continuation; pure and read-only.

    ``state_key`` may name the part of a history the scores depend on:
    when it returns a key other than None, ``score_next`` must depend only
    on that key and the candidate form (not on the node, nor on the rest
    of the history), and the beam search then scores each (key, form) once
    per sentence.  The default, None, makes it score every candidate.
    """

    @abstractmethod
    def score_next(self, history: list[str], candidate_form: str,
                   candidate_node: NodeHandle) -> float: ...

    def state_key(self, history: list[str]) -> Hashable | None:
        return None


class NGramScorer(Scorer):
    """An n-gram model's log-probability; its state is the model's context.

    A subclass whose ``score_next`` reads the node or more of the history
    than the model's context must override ``state_key`` to return None;
    otherwise the beam search reuses one candidate's score for every other
    candidate with the same context and form.
    """

    def __init__(self, model: NGramModel):
        self.model = model

    def score_next(self, history, candidate_form, candidate_node) -> float:
        return self.model.logprob(candidate_form, history)

    def state_key(self, history) -> tuple[str, ...]:
        return self.model.context_key(history)


class OracleScorer(Scorer):
    """0 for the continuation matching the next reference position
    (right node and right surface form), -1e9 for everything else."""

    WRONG = -1e9

    def __init__(self, reference: ShallowSentence):
        if reference.alignment is None or reference.reference_forms is None:
            raise DataError("oracle scorer needs an aligned reference")
        self.alignment = reference.alignment
        self.forms = reference.reference_forms

    def score_next(self, history, candidate_form, candidate_node) -> float:
        pos = len(history)
        if self.alignment.get(candidate_node.node_id) == pos and candidate_form == self.forms[pos]:
            return 0.0
        return self.WRONG


@dataclass
class RealizationResult:
    tokens: list[str]
    node_order: list[int]
    score: float
    beam_size: int


def beam_realize(
    sentence: ShallowSentence,
    scorer: Scorer,
    beam_size: int,
    lexicon: FormLexicon,
) -> RealizationResult:
    """Beam search of exactly n steps over the restricted continuations.

    Each step scores every candidate, in the canonical order (beam rank,
    then the canonical continuation order), and keeps only a flat score
    per candidate; a hypothesis, the plain tuple (score, forms, unused node
    ids in ascending order, node order), is built only for the candidates
    that survive the step.  The canonical continuation order is ascending
    node id, then the node's lexicon candidates in their order (descending
    count, then form string).  ``scorer.score_next`` is called once per
    candidate, in that order, when ``scorer.state_key`` returns None for
    the parent's history; otherwise it is called once per distinct
    (state key, form) per sentence, for the first candidate in that
    order that needs it, and the delta is reused for every later
    candidate with the same key and form.  A candidate's score is its
    parent's score plus the delta on either path.
    Candidates are ranked by score with ties broken by that generation
    order, so decoding is fully deterministic.  Retention is
    slot-nested rather than plain top-k: each survivor takes the lowest
    free beam slot at or above its parent's slot, and a candidate with
    no free slot left is pruned.  The slots 1..s then hold exactly what
    a width-s search would keep (slot 1 is the greedy chain), so the
    best final score never decreases as the beam widens.  With a beam at
    least as large as the number of reachable hypotheses nothing is
    ever pruned and the search is exhaustive.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    tree = sentence.tree
    n = tree.size()
    if n < 1:
        raise ValueError("sentence has no nodes")
    # per node, its (node id, form) moves in candidate order; a parent's
    # candidates are the moves of its unused nodes, in ascending node id
    moves_of = {node_id: tuple((node_id, form) for form, _count
                               in lexicon.candidates_for(tree.nodes[node_id]))
                for node_id in tree.node_ids()}
    handles = {node_id: NodeHandle(node_id, tree.nodes[node_id]) for node_id in tree.node_ids()}
    rows: dict[Hashable, dict[str, float]] = {}  # state key -> form -> delta, this sentence

    beam = [(0.0, (), tuple(tree.node_ids()), ())]  # (score, forms, remaining, node order)
    slots = [1]
    for _step in range(n):
        scores: list[float] = []
        moves: list[tuple[int, str]] = []  # (node id, form) per candidate
        parent_of: list[int] = []          # beam index of each candidate's parent
        for parent_index, (base, forms, remaining, _node_order) in enumerate(beam):
            history = list(forms)
            block = list(chain.from_iterable(map(moves_of.__getitem__, remaining)))
            moves += block
            parent_of += [parent_index] * len(block)
            key = scorer.state_key(history)
            if key is None:
                scores += [base + scorer.score_next(history, form, handles[node_id])
                           for node_id, form in block]
                continue
            row = rows.setdefault(key, {})
            for node_id, form in block:
                delta = row.get(form)
                if delta is None:
                    delta = row[form] = scorer.score_next(history, form, handles[node_id])
                scores.append(base + delta)
        # stable: equal scores keep generation order
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)

        # a survivor's slot is at most its parent's plus the survivors before it,
        # so no slot above top is ever taken and the table need not reach beam_size
        top = min(beam_size, max(slots) + len(scores))
        # union-find over slots: next_free[s] chases the lowest free slot >= s;
        # top + 1 is the overflow sentinel meaning "prune"
        next_free = list(range(top + 2))

        def _free_slot(slot: int) -> int:
            root = slot
            while next_free[root] != root:
                root = next_free[root]
            while next_free[slot] != root:
                next_free[slot], slot = root, next_free[slot]
            return root

        parents, parent_slots = beam, slots
        beam, slots = [], []
        for i in order:
            parent_index = parent_of[i]
            slot = _free_slot(parent_slots[parent_index])
            if slot > top:
                continue
            next_free[slot] = slot + 1
            _base, forms, remaining, node_order = parents[parent_index]
            node_id, form = moves[i]
            k = remaining.index(node_id)
            beam.append((scores[i], forms + (form,), remaining[:k] + remaining[k + 1:],
                         node_order + (node_id,)))
            slots.append(slot)
            if len(beam) == beam_size:
                break  # every slot is taken: the rest would overflow

    # the kept list is in score order (generation order on ties), so the
    # first element is the returned argmax
    score, forms, _remaining, node_order = beam[0]
    return RealizationResult(
        tokens=list(forms),
        node_order=list(node_order),
        score=score,
        beam_size=beam_size,
    )


@dataclass
class CoverageReport:
    """How often the aligned reference form is among a node's candidates."""

    covered_nodes: int
    total_nodes: int
    covered_sentences: int
    total_sentences: int


def lexicon_coverage(dataset: list[ShallowSentence], lexicon: FormLexicon) -> CoverageReport:
    """Diagnostic for oracle decoding: a node is covered when its reference
    form appears among its lexicon candidates; a missed node caps the
    oracle realization below exact match."""
    covered_nodes = total_nodes = covered_sents = 0
    counted_sents = 0
    for s in dataset:
        if s.alignment is None or s.reference_forms is None:
            continue
        counted_sents += 1
        all_covered = True
        for node_id, pos in s.alignment.items():
            total_nodes += 1
            ref_form = s.reference_forms[pos]
            if any(form == ref_form for form, _ in lexicon.candidates_for(s.tree.nodes[node_id])):
                covered_nodes += 1
            else:
                all_covered = False
        if all_covered:
            covered_sents += 1
    return CoverageReport(covered_nodes, total_nodes, covered_sents, counted_sents)
