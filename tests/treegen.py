"""Hypothesis strategies for valid dependency-tree sentences.

Field values are arbitrary text without tab, newline or carriage return
(which CoNLL-U columns cannot hold), plus a few values that look like
the alignment MISC the shallow encoding writes.
"""

from hypothesis import strategies as st

from surfreal.conllu_io import UdSentence, UdToken

FIELDS = st.one_of(
    st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
            max_size=6),
    st.sampled_from(["_", "original_id=1", "Number=Sing|original_id=2"]),
)


@st.composite
def heads(draw, n: int) -> dict[int, int]:
    """Head of each id 1..n in a random tree: ids join in a random order,
    each under one that joined before it; the first is the root."""
    order = draw(st.permutations(range(1, n + 1)))
    tree = {order[0]: 0}
    for k in range(1, n):
        tree[order[k]] = order[draw(st.integers(0, k - 1))]
    return tree


@st.composite
def sentences(draw, max_tokens: int = 8) -> UdSentence:
    n = draw(st.integers(1, max_tokens))
    head = draw(heads(n))
    tokens = [UdToken(i, draw(FIELDS), draw(FIELDS), draw(FIELDS), draw(FIELDS), draw(FIELDS),
                      head[i], draw(FIELDS), draw(FIELDS), draw(FIELDS))
              for i in range(1, n + 1)]
    return UdSentence(tokens=tokens)
