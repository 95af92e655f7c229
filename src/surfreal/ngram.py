"""Interpolated n-gram language model used as the reference scorer.

Jelinek-Mercer interpolation: P_k = lam * ML_k + (1 - lam) * P_{k-1},
grounded in a uniform distribution over the vocabulary plus a reserved
unknown token.  A context never observed at order k contributes no
maximum-likelihood mass, so the query passes through to order k-1
unweighted; this keeps every conditional distribution normalized.  A
deep order with a lambda near 1 can underflow a probability to 0.0,
which has no log: ``logprob`` raises DataError for it.

The model's one store is its context tree: a node per observed context, with
the counts of the tokens seen after it (a dict the model alone holds), their
total and the nodes one token longer.  A query walks it from the empty context
back through its context's tokens, one order per node, up to the first
unobserved context.  ``logprob`` memoizes each (token, context) score;
``_MEMO_MAX`` bounds that memo.

``NGramModel(order, lam, counts)`` builds the tree from the counts alone (the
vocabulary is the tokens of the order-1 counts) and checks the model rules:
counts ``train_ngram`` never makes raise ValueError, so every model keeps each
distribution normalized.  The constructor copies the counts it is given (``load``
hands over the dicts it parsed, which no caller holds, uncopied), and ``counts``
hands out copies, so no caller shares a node's counts.
``train_ngram`` walks its windows into a tree itself.  Files and pickles (memo
dropped) carry the counts, read off the tree by one walk and rebuilt by the
constructor; files reload to bit-identical scores.  ``save`` writes each order
as the walk reaches it, so it holds one order's contexts and lines at a time.
``load`` checks the line rules (number spellings, save's sort order, the final
line feed, the header's vocabulary size): DataError for those and the model's.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress, islice
from operator import itemgetter

from .conllu_io import DataError
from .deptree import unwritable_word

BOS = "<s>"
UNK = "<unk>"
_HEADER_TAG = "ngram-counts-v1"
# logprob memo entries kept before the memo is cleared; bounds memory on long runs
_MEMO_MAX = 1_000_000


class NGramModel:
    def __init__(self, order: int, lam: float, counts: dict[int, dict[tuple, Counter]]):
        """A model of ``counts[k][context]``, the Counter (or dict) of the tokens seen
        after each order-k context of k - 1 tokens, which it copies.  Its vocabulary
        is the tokens of the order-1 counts.  Counts ``train_ngram`` never makes raise
        ValueError: an order outside 1..order; an order-k context that does not hold
        k - 1 tokens; an empty Counter or a count below 1; a token, or a context token
        other than the begin marker, outside the vocabulary; an order 1..order without
        counts; a vocabulary token that is a reserved marker, empty or holds
        whitespace; a context whose one-shorter suffix has no counts."""
        self._build(order, lam, {k: {ctx: dict(ctx_counts) for ctx, ctx_counts in by_ctx.items()}
                                 for k, by_ctx in counts.items()})

    def _build(self, order: int, lam: float, counts: dict[int, dict[tuple, dict]]) -> None:
        """Check the model rules and build the tree on ``counts``, whose dicts the nodes
        then hold: the constructor's path, on its copy, and load's, on the dicts it
        parsed, which no caller sees."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < lam < 1:
            raise ValueError("lambda must be strictly between 0 and 1")
        vocab = {token for ctx_counts in counts.get(1, {}).values() for token in ctx_counts}
        # trained counts hold n-grams of vocabulary tokens only, after begin markers
        context_tokens = vocab | {BOS}
        for k, by_ctx in counts.items():
            for ctx, ctx_counts in by_ctx.items():
                if not 1 <= k <= order:
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} are outside "
                                     f"orders 1..{order}")
                if len(ctx) != k - 1:
                    raise ValueError(f"an order-{k} context holds {k - 1} tokens, not "
                                     f"{len(ctx)}: {' '.join(ctx)!r}")
                # each counted n-gram was seen at least once, and only those are kept
                if not ctx_counts or min(ctx_counts.values()) < 1:
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} are empty or "
                                     "hold a count below 1")
                if not (context_tokens.issuperset(ctx) and vocab.issuperset(ctx_counts)):
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} hold a "
                                     "token outside the unigram vocabulary")
        # and at least one n-gram of every order 1..order
        missing = next((k for k in range(1, order + 1) if not counts.get(k)), None)
        if missing is not None:
            raise ValueError(f"no order-{missing} counts in an order-{order} model")
        if _uncountable(vocab):  # and only tokens train_ngram counts
            raise ValueError("a vocabulary token is reserved, empty or holds whitespace")
        # per observed context a node [its counts, their total, longer]: longer[t] is the
        # node of the context one token longer, t in front; ascending, so suffixes first
        nodes: dict[tuple, list] = {}
        for k in sorted(counts):
            for ctx, ctx_counts in counts[k].items():
                node = nodes[ctx] = [ctx_counts, sum(ctx_counts.values()), {}]
                if ctx:
                    shorter = nodes.get(ctx[1:])
                    if shorter is None:  # never in trained counts: they hold every suffix
                        raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} but no "
                                         f"order-{k - 1} counts after {' '.join(ctx[1:])!r}")
                    shorter[2][ctx[0]] = node
        self._keep(order, lam, vocab, nodes[()])  # there: order 1 has counts

    def _keep(self, order: int, lam: float, vocab: set[str], root: list) -> None:
        """Take the tree at ``root``, over ``vocab``, as the model's one store: _build's
        last step, and train_ngram's path, whose tokens are checked."""
        self.order, self.lam, self.vocab, self._root = order, lam, vocab, root
        self._base = 1.0 / (len(vocab) + 1)  # vocab plus the unknown token
        self._memo: dict[tuple, float] = {}

    def _levels(self):
        """Each order k with its (context, node) pairs, read off the tree by one walk
        that holds two orders at a time; a context is the tuple of its k - 1 tokens."""
        level = [((), self._root)]
        for k in range(1, self.order + 1):
            yield k, level
            level = [((token,) + ctx, longer)
                     for ctx, node in level for token, longer in node[2].items()]

    def _counts(self, wrap) -> dict[int, dict[tuple, dict]]:
        """``counts[k][context]`` as the constructor takes them, read off the tree, each
        node's token counts passed through ``wrap``."""
        return {k: {ctx: wrap(node[0]) for ctx, node in level} for k, level in self._levels()}

    @property
    def counts(self) -> dict[int, dict[tuple, Counter]]:
        """The counts as Counter copies, made on each read, so a caller who changes them
        changes no distribution."""
        return self._counts(Counter)

    # queries ---------------------------------------------------------------

    def context_key(self, history: tuple[str, ...] | list[str]) -> tuple[str, ...]:
        """Last order-1 history tokens, left-padded with begin markers."""
        need = self.order - 1
        if len(history) >= need:
            return tuple(history[-need:]) if need else ()  # history[-0:] is all of it
        return (BOS,) * (need - len(history)) + tuple(history)

    def prob(self, token: str, history: tuple[str, ...] | list[str]) -> float:
        tok = token if token in self.vocab else UNK
        return self._p(tok, self.context_key(history))

    def _p(self, token: str, ctx: tuple[str, ...]) -> float:
        """P_order(token | ctx), built up from the uniform base one order at a time."""
        lam, p, node = self.lam, self._base, self._root
        tokens = reversed(ctx)  # nearest first, then None, which keys no node
        while node is not None:
            counter, total, longer = node
            p = lam * (counter.get(token, 0) / total) + (1.0 - lam) * p
            node = longer.get(next(tokens, None))
        return p

    def logprob(self, token: str, history: tuple[str, ...] | list[str]) -> float:
        ctx = self.context_key(history)
        key = (token, ctx)
        cached = self._memo.get(key)
        if cached is None:
            if len(self._memo) >= _MEMO_MAX:
                self._memo.clear()
            p = self._p(token if token in self.vocab else UNK, ctx)
            if not p:  # (1 - lam)^k times the base, for a deep order or a lambda near 1
                raise DataError(f"P({token!r} | {' '.join(ctx)!r}) underflows to 0.0 in the "
                                f"order-{self.order} model with lambda {self.lam!r}, so it has "
                                "no log probability")
            cached = self._memo[key] = math.log(p)
        return cached

    def __reduce__(self):
        # its counts, which the constructor copies as it rebuilds the tree: no memo, and no
        # order-deep tree to recurse into
        return type(self), (self.order, self.lam, self._counts(lambda token_counts: token_counts))

    # persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the counts, one order at a time: each order's lines, sorted by context
        tuple and then token, as the walk reaches it."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:  # LF on every platform
            fh.write(f"{_HEADER_TAG}\torder={self.order}\tlambda={self.lam!r}"
                     f"\tvocab={len(self.vocab)}\n")
            for k, level in self._levels():
                lines = []
                for ctx, node in sorted(level, key=itemgetter(0)):
                    head = f"{k}\t{' '.join(ctx)}\t"
                    lines += [f"{head}{token}\t{n}\n" for token, n in sorted(node[0].items())]
                fh.write("".join(lines))

    @classmethod
    def load(cls, path) -> "NGramModel":
        """Read a file written by :meth:`save`; malformed content raises DataError."""
        try:
            # only a line feed ends a line: a carriage return save never writes stays
            # in the line, and the spelling checks reject it
            with open(path, encoding="utf-8", newline="\n") as fh:
                line = fh.readline()
                header = line.rstrip("\n").split("\t")
                if len(header) != 4 or header[0] != _HEADER_TAG:
                    raise ValueError(f"no {_HEADER_TAG} header")
                order = int(header[1].removeprefix("order="))
                lam = float(header[2].removeprefix("lambda="))
                vocab_size = int(header[3].removeprefix("vocab="))
                # int() and float() also read spellings save never writes (1_0, +2, 02,
                # " 2", non-ASCII digits): only save's own spelling of a number loads
                if header[1:] != [f"order={order}", f"lambda={lam!r}", f"vocab={vocab_size}"]:
                    raise ValueError(f"header fields {header[1:]} are not as save writes them")
                counts: dict[int, dict[tuple, dict[str, int]]] = {}
                spelled: dict[str, int] = {}  # count spellings already checked, so each once
                # save writes the lines sorted by (order, context tuple, token), so each
                # (order, context)'s lines come together: parse those once
                last_k_str = last_ctx_str = last_token = None
                last_key = ()  # sorts before every (order, context)
                for line in fh:
                    k_str, ctx_str, token, count_str = line.rstrip("\n").split("\t")
                    if k_str != last_k_str or ctx_str != last_ctx_str:
                        k = int(k_str)
                        ctx = tuple(ctx_str.split(" ")) if ctx_str else ()
                        if k_str != last_k_str and str(k) != k_str:
                            raise ValueError(f"order {k_str!r} for {token!r} is not as "
                                             "save writes it")
                        last_k_str, last_ctx_str, last_token = k_str, ctx_str, None
                    count = spelled.get(count_str)
                    if count is None:
                        count = int(count_str)
                        if str(count) != count_str:
                            raise ValueError(f"count {count_str!r} for {token!r} is not as "
                                             "save writes it")
                        spelled[count_str] = count
                    # in save's order each line sorts after the one before, so none repeats
                    if last_token is None:  # the first line of its (order, context)
                        ordered = (k, ctx) > last_key
                        last_key = k, ctx
                        ctx_counts = counts.setdefault(k, {})[ctx] = {}
                    else:
                        ordered = token > last_token
                    if not ordered:
                        raise ValueError(f"order-{k} count for {token!r} after {ctx_str!r} "
                                         "does not sort after the line before it")
                    ctx_counts[token] = count
                    last_token = token
                if not line.endswith("\n"):  # save ends every line with one, the last too
                    raise ValueError("the last line does not end with a line feed")
            # order 1's empty context, its tokens sorted and so distinct: the vocabulary
            counted = len(counts.get(1, {}).get((), ()))
            if counted != vocab_size:
                raise ValueError(f"vocab size mismatch: header {vocab_size}, counted {counted}")
            model = cls.__new__(cls)
            model._build(order, lam, counts)  # dicts only this call holds: no copy
            return model
        except ValueError as err:  # UnicodeDecodeError and the constructor's model rules too
            raise DataError(f"{path} is not a valid n-gram count file: {err}") from None


def _uncountable(vocab: set[str]) -> bool:
    """Whether ``vocab`` holds a reserved marker, an empty token or one with whitespace."""
    return BOS in vocab or UNK in vocab or unwritable_word(list(vocab)) is not None


def train_ngram(references: list[list[str]], order: int = 3, lam: float = 0.7) -> NGramModel:
    """Count all k-grams (k <= order) ending at real-token positions.

    Sentences are left-padded with order-1 begin markers; no end marker
    is used.  A token that is empty, holds whitespace or is a reserved
    marker raises DataError naming its 1-based sentence number (its line
    in a reference file); a corpus without any token raises DataError too.

    The corpus is laid out once as one token stream, each sentence after its
    order-1 begin markers: one pointer per token and marker.  Every window of
    ``order`` stream tokens that ends at a real token is counted in one C-level
    pass over ``order`` staggered ``islice`` views of the stream, which copy
    nothing; windows that end at a begin marker are passed over, not stored.
    A k-gram is the last k tokens of the window that ends where it ends, so
    each distinct window is walked into the context tree, nearest context token
    first, adding its count at one node per order; no context is a tuple.  The
    checks above make every model rule hold, so the model takes the tree as is.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < lam < 1:
        raise ValueError("lambda must be strictly between 0 and 1")
    vocab = set(chain.from_iterable(references))
    # C-level passes over the corpus and its types; the sentence loop only runs
    # to name the first sentence with a bad token
    if _uncountable(vocab):
        for number, sent in enumerate(references, 1):
            for token in sent:
                if token in (BOS, UNK):
                    raise DataError(f"sentence {number}: reserved token {token!r}")
                if unwritable_word([token]) is not None:
                    raise DataError(f"sentence {number}: token {token!r} is empty or "
                                    "contains whitespace")
    if not vocab:
        raise DataError(f"empty training corpus: no tokens in {len(references)} sentences")
    pad = [BOS] * (order - 1)
    stream: list[str] = []
    for sent in references:
        stream += pad
        stream += sent
    windows = zip(*(islice(stream, start, None) for start in range(order)))
    ends_real = map(BOS.__ne__, islice(stream, order - 1, None))  # each window's last token
    root = [{}, 0, {}]  # a node as the constructor builds them
    grams = Counter(compress(windows, ends_real))
    while grams:  # each window let go once it is in the tree
        window, n = grams.popitem()
        token, node = window[-1], root
        for nearer in window[-2::-1]:  # the context's tokens, nearest first
            node[0][token] = node[0].get(token, 0) + n
            node[1] += n
            node = node[2].get(nearer) or node[2].setdefault(nearer, [{}, 0, {}])
        node[0][token] = node[0].get(token, 0) + n
        node[1] += n
    model = NGramModel.__new__(NGramModel)
    model._keep(order, lam, vocab, root)
    return model
