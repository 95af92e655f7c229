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
from functools import lru_cache
from heapq import heapify, heappop, heapreplace
from operator import attrgetter
from typing import NamedTuple

from .conllu_io import DataError, UdSentence, parse_pairs
from .deptree import NodeInfo, ShallowSentence
from .ngram import NGramModel

# morphological features that select an inflection; everything else
# (lexicalized or syntactic marks) is dropped from lexicon keys
KEPT_FEATS = frozenset({"Case", "Degree", "Mood", "Number", "Person", "Tense", "VerbForm"})
# the token fields a lexicon row is counted by
_LEXICON_ROW = attrgetter("lemma", "upos", "feats", "form")


@lru_cache(maxsize=4096)  # a corpus repeats few distinct FEATS strings
def feats_key(feats: str) -> tuple[tuple[str, str], ...]:
    kept = [(k, v) for k, v in parse_pairs(feats) if k in KEPT_FEATS]
    return tuple(sorted(kept))


def _rank_forms(counter: Counter) -> tuple[tuple[str, int], ...]:
    # descending count, ties by form string
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


class FormLexicon:
    """Observed surface forms, ranked, in one table keyed by (lowercased
    lemma, upos, feature subset), (lemma, upos) and (lemma,): the key's
    length is its fallback tier, and no entry is empty.

    Lookup never fails: (lemma, upos, feats) falls back to (lemma, upos),
    then (lemma,), then to the lemma string itself with count 1.
    """

    def __init__(self, ranked: dict[tuple, tuple[tuple[str, int], ...]]):
        self.ranked = ranked

    def candidates(self, lemma: str, upos: str, feats: str) -> tuple[tuple[str, int], ...]:
        ranked, low = self.ranked, lemma.lower()
        return (ranked.get((low, upos, feats_key(feats))) or ranked.get((low, upos))
                or ranked.get((low,)) or ((lemma, 1),))

    def candidates_for(self, info: NodeInfo) -> tuple[tuple[str, int], ...]:
        return self.candidates(info.lemma, info.upos, info.feats)

    def relevant_forms(self, lemma: str, upos: str) -> tuple[tuple[str, int], ...]:
        """The (lemma, upos) pair's observed forms when it has at least two, else ()."""
        hit = self.ranked.get((lemma.lower(), upos), ())
        return hit if len(hit) >= 2 else ()


def build_form_lexicon(gold: list[UdSentence]) -> FormLexicon:
    """Count the gold tokens' forms under their three lexicon keys; lemmas are
    lowercased in every key."""
    # count each distinct (lemma, upos, feats, form) row once, then add the
    # counts under the row's three keys (_rank_forms sorts, so order does not matter)
    rows: Counter = Counter()
    for sentence in gold:
        rows.update(map(_LEXICON_ROW, sentence.tokens))
    table: dict[tuple, Counter] = defaultdict(Counter)
    for (lemma, upos, feats, form), n in rows.items():
        lemma = lemma.lower()
        for key in (lemma, upos, feats_key(feats)), (lemma, upos), (lemma,):
            table[key][form] += n
    return FormLexicon({key: _rank_forms(c) for key, c in table.items()})


class Scorer(ABC):
    """Log-probability of a candidate continuation; pure and read-only.

    ``history`` is the tuple of forms the hypothesis has emitted so far and
    ``node_id`` the id of the tree node that ``candidate_form`` realizes.
    ``state_key`` may name the part of a history the scores depend on:
    when it returns a key other than None, ``score_next`` must depend only
    on that key and the candidate form (not on the node, nor on the rest
    of the history), and the beam search then scores each (key, form) once
    per sentence.  The default, None, makes it score every candidate.
    """

    @abstractmethod
    def score_next(self, history: tuple[str, ...], candidate_form: str,
                   node_id: int) -> float: ...

    def state_key(self, history: tuple[str, ...]) -> Hashable | None:
        return None


class NGramScorer(Scorer):
    """An n-gram model's log-probability; its state is the model's context.

    The node id is not read.  A subclass whose ``score_next`` reads the
    node or more of the history than the model's context must override
    ``state_key`` to return None; otherwise the beam search reuses one
    candidate's score for every other candidate with the same context and
    form.
    """

    def __init__(self, model: NGramModel):
        self.model = model

    def score_next(self, history, candidate_form, node_id) -> float:
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

    def score_next(self, history, candidate_form, node_id) -> float:
        pos = len(history)
        if self.alignment.get(node_id) == pos and candidate_form == self.forms[pos]:
            return 0.0
        return self.WRONG


class RealizationResult(NamedTuple):
    tokens: list[str]
    node_order: list[int]
    score: float
    beam_size: int


def _ranked_candidates(ranked: list, base: float, parent_index: int, remaining: int):
    """A parent's candidates, best first, as (-score, parent index, node bit,
    lexicon rank, form) with score = base + delta.

    ``ranked`` holds (-delta, moves) groups in ascending order, each group's
    (node bit, lexicon rank, form) moves in ascending order; moves of nodes
    whose bit is not set in ``remaining`` are skipped.  Rounding is
    monotone, so adding the base keeps the groups in order, except that
    neighbouring deltas can sum to equal scores: such groups are read
    together and their moves put back in generation order (node, then rank).
    """
    i, end = 0, len(ranked)
    while i < end:
        neg_delta, moves = ranked[i]
        score = base - neg_delta  # base - (-delta) is exactly base + delta
        i += 1
        if i < end and base - ranked[i][0] == score:
            tied = list(moves)
            while i < end and base - ranked[i][0] == score:
                tied += ranked[i][1]
                i += 1
            moves = sorted(tied)
        neg_score = -score
        for bit, rank, form in moves:
            if bit & remaining:
                yield (neg_score, parent_index, bit, rank, form)


def beam_realize(
    sentence: ShallowSentence,
    scorer: Scorer,
    beam_size: int,
    lexicon: FormLexicon,
) -> RealizationResult:
    """Beam search of exactly n steps over the restricted continuations.

    The canonical continuation order is ascending node id, then the
    node's lexicon candidates in their order (descending count, then form
    string); the generation order of a step's candidates is beam rank,
    then that order.  ``scorer.score_next`` gets the parent's forms tuple
    itself as the history, and the candidate's node id.  It is called once
    per candidate, in generation order, when ``scorer.state_key`` returns
    None for the parent's forms; otherwise it is called once per distinct
    (state key, form) per sentence, for the first candidate in that
    order that needs it, and the delta is reused for every later
    candidate with the same key and form.  A candidate's score is its
    parent's score plus the delta on either path.  Every step still
    fills the rows of every (key, form) its parents need, before it
    ranks anything.
    Candidates are ranked by score with ties broken by generation order,
    so decoding is fully deterministic.  Retention is slot-nested rather
    than plain top-k: each survivor takes the lowest free beam slot at or
    above its parent's slot, and a candidate with no free slot left is
    pruned.  The slots 1..s then hold exactly what a width-s search would
    keep (slot 1 is the greedy chain), so the best final score never
    decreases as the beam widens.  With a beam at least as large as the
    number of reachable hypotheses nothing is ever pruned and the search
    is exhaustive.
    Candidates are never all built.  Per state key the beam keeps the
    row's forms ranked by delta, each with the moves that place it (a
    parent whose key is None gets a ranking of its own candidates); each
    parent reads its candidates lazily from that ranking, best first,
    skipping its placed nodes, and a heap merges the parents in the
    ranking above.  A parent whose free slot has overflowed leaves the
    merge, since its later candidates would overflow too, and the step
    ends once every slot is taken, so a step's cost follows the
    candidates the merge reaches rather than all it could rank.  A
    hypothesis, the plain tuple (score, forms, unused nodes, node order),
    is built only for a survivor.  Its unused nodes are an int bit set
    over the sorted node ids (bit i stands for the i-th smallest id), so
    placing a node and testing one are single int operations.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    tree = sentence.tree
    n = tree.size()
    if n < 1:
        raise ValueError("sentence has no nodes")
    node_ids = tree.node_ids()
    moves_of = []  # per node, in id order, its (node bit, lexicon rank, form) moves
    moves_by_form = defaultdict(list)  # per form, its moves in generation order
    for i, node_id in enumerate(node_ids):
        moves = tuple(
            (1 << i, rank, form)
            for rank, (form, _count) in enumerate(lexicon.candidates_for(tree.nodes[node_id])))
        moves_of.append(moves)
        for move in moves:
            moves_by_form[move[2]].append(move)
    state_key, score_next = scorer.state_key, scorer.score_next
    # state key -> [the forms scored, the bit set of nodes with a form not yet
    # scored, (-delta, the form's moves) per scored form, sorted], this sentence
    tables: dict[Hashable, list] = {}

    def _unused(nodes: int):
        """The (node id, moves) of each node in ``nodes``, in ascending id."""
        while nodes:
            i = (nodes & -nodes).bit_length() - 1
            nodes &= nodes - 1
            yield node_ids[i], moves_of[i]

    all_nodes = (1 << n) - 1
    beam = [(0.0, (), all_nodes, ())]  # (score, forms, unused nodes, node order)
    slots = [1]
    for _step in range(n):
        streams = []  # per parent, its candidates not yet in the merge
        for parent_index, (base, forms, remaining, _node_order) in enumerate(beam):
            key = state_key(forms)
            if key is None:  # a group per candidate
                ranked = sorted([(-score_next(forms, move[2], node_id), (move,))
                                 for node_id, moves in _unused(remaining) for move in moves])
            else:
                table = tables.get(key)
                if table is None:
                    table = tables[key] = [set(), all_nodes, []]
                scored, uncovered, ranked = table
                missing = remaining & uncovered
                if missing:
                    for node_id, moves in _unused(missing):
                        for _bit, _rank, form in moves:
                            if form not in scored:
                                scored.add(form)
                                ranked.append((-score_next(forms, form, node_id),
                                               moves_by_form[form]))
                    table[1] = uncovered ^ missing
                    ranked.sort()
            streams.append(_ranked_candidates(ranked, base, parent_index, remaining))
        # streams start only now, so each reads its key's table as this step left it
        heads = [head for stream in streams if (head := next(stream, None)) is not None]
        heapify(heads)

        # union-find over the taken slots: taken[s] chases the lowest free slot >= s,
        # and a free slot above beam_size means "prune"
        taken: dict[int, int] = {}
        parents, parent_slots = beam, slots
        beam, slots = [], []
        while heads:
            neg_score, parent_index, bit, _rank, form = heads[0]
            slot = parent_slots[parent_index]
            if slot in taken:
                root = taken[slot]
                while root in taken:
                    root = taken[root]
                while slot != root:
                    taken[slot], slot = root, taken[slot]
                if slot > beam_size:
                    # slots only fill, so none will free up for this parent's later candidates
                    heappop(heads)
                    continue
            taken[slot] = slot + 1
            _base, forms, remaining, node_order = parents[parent_index]
            beam.append((-neg_score, forms + (form,), remaining ^ bit,
                         node_order + (node_ids[bit.bit_length() - 1],)))
            slots.append(slot)
            if len(beam) == beam_size:
                break  # every slot is taken: the rest would overflow
            following = next(streams[parent_index], None)
            if following is None:
                heappop(heads)
            else:
                heapreplace(heads, following)

    # the kept list is in score order (generation order on ties), so the
    # first element is the returned argmax
    score, forms, _remaining, node_order = beam[0]
    return RealizationResult(
        tokens=list(forms),
        node_order=list(node_order),
        score=score,
        beam_size=beam_size,
    )


class CoverageReport(NamedTuple):
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
