"""The self-similar automaton over the binary alphabet for a GF(2^n) field.

States of the nucleus automaton:

    e     identity: fixes both letters, both restrictions e
    a     swaps the letters, both restrictions e
    b(x)  one per nonzero field element x: fixes both letters,
          restriction under '1' is b(alpha*x), under '0' it is
          a when Tr(x) = 1 and e otherwise

b(0) is identified with e at construction.  Group elements are finite
products of states (leftmost factor acts last).  Two identities hold in
every such group, the same as for Grigorchuk's {b, c, d}:

    b(x) b(y) = b(x + y)        a a = e

(the directed states fix every letter and their restrictions add
coordinate-wise, since alpha*(x + y) = alpha*x + alpha*y and the trace
is additive).  Words are therefore kept in normal form: no e, no a a,
no two neighbouring directed states, so a word alternates between a and
b(x).  element, multiply and restriction return normal forms, and a
hand-built word is reduced by the first restriction applied to it.
The product of two normal forms is rewritten only at the seam (_join):
a a cancels inward, and a merged b(x + y) sits between two a's, so the
cascade stops there.  Since every generator is an involution, the
inverse is the reversed word, a normal form again, and a word of at
most one factor is its own inverse.

The normal form is syntactic only.  Equality of elements is decided
semantically by bisimulation: restriction maps a word to a word of the
same or smaller length, so the reachable pair space is finite and the
worklist search terminates.  Two single states are compared in closed
form: distinct states are distinct elements, as a swaps the first
letter, e and b(x) fix it, and b(x) b(y)^-1 = b(x + y) != e by the
joint-kernel identity of the field.  The same facts let a germ walk
(groupoid.germ_equal) finish in one move once both restrictions are
states.  verify_nucleus derives closure and pair contraction from the
classes of the normal form, with no walk, and returns the certificate's
contraction dict.

Restriction along a whole word w is read in closed form, one factor at
a time (_walk): by (g h)|w = g|h(w) h|w the factors go right to left,
each reading the image made by the factors to its right.  a swaps w[0]
and restricts to e.  b(x) restricts to b(alpha^r x) along 1^r and to
a^Tr(alpha^r x) along the next 0, so with r the index of the first 0 it
restricts to b(alpha^|w| x) when w has no 0, fixes w and restricts to e
when Tr(alpha^r x) = 0, and otherwise, as a, swaps w[r + 1] or, when w
ends at r, restricts to a.  The one cache on the object is the
insert-only memo of resolved comparisons of longer words; a certify
run, whose only walks are the 2^n germ walks of groupoid.meet_set, each
starting on two single states, leaves it empty.  It is a pure function
of its keys, so two threads racing on one key only repeat work.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ._record import Record, slot_setters
from .gf2n import FieldContext

STATE_E = ("e",)
STATE_A = ("a",)

_SWAP = {"0": "1", "1": "0"}


def directed_state(x: int):
    """The state b(x); b(0) collapses to the identity."""
    return STATE_E if x == 0 else ("b", x)


def _reduce(states) -> tuple:
    """Normal form of a word: drop e, cancel a a, merge b(x) b(y) into
    b(x + y).  One left-to-right pass with a stack suffices, because each
    rewrite only ever exposes a new neighbour pair at the top."""
    out = []
    for s in states:
        kind = s[0]
        if kind == "e" or (kind == "b" and not s[1]):
            continue
        if out and out[-1][0] == kind:
            top = out.pop()
            if kind == "b" and top[1] != s[1]:
                out.append(("b", top[1] ^ s[1]))
        else:
            out.append(s)
    return tuple(out)


def _join(u: tuple, v: tuple) -> tuple:
    """Normal form of the product of two normal forms u and v, equal to
    _reduce(u + v).

    Only the seam can be rewritten: a a = e cancels and exposes the next
    pair, b(x) b(y) = b(x + y) cancels when x = y and otherwise leaves a
    b that sits between two a's, so the cascade stops there.  A word not
    in normal form may come back unreduced, still a word for the same
    element, since every rewrite is a group identity."""
    i, j = len(u), 0
    while i and j < len(v):
        x, y = u[i - 1], v[j]
        if x[0] != y[0]:
            break
        i -= 1
        j += 1
        if x[0] == "b" and x[1] != y[1]:
            return u[:i] + (("b", x[1] ^ y[1]),) + v[j:]
    return u[:i] + v[j:]


class GroupElement(Record):
    """A word in nucleus states.  == and hash are syntactic (factor tuples);
    semantic equality lives in MultispinalGroup.equal."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple) -> None:
        _set_factors(self, factors)

    def __len__(self) -> int:
        return len(self.factors)


(_set_factors,) = slot_setters(GroupElement)


class MultispinalGroup:
    """Automaton, action, restriction and decidable equality for one field."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.identity = GroupElement(())
        self.gen_a = GroupElement((STATE_A,))
        self._eq_memo: dict = {}

    # -- states ---------------------------------------------------------

    @cached_property
    def nucleus_states(self) -> tuple:
        """e, the directed states by power of alpha, then a."""
        ctx = self.ctx
        directed = tuple(("b", ctx.pow_alpha(j)) for j in range(1, ctx.k + 1))
        return (STATE_E,) + directed + (STATE_A,)

    def state_name(self, s) -> str:
        if s == STATE_E:
            return "e"
        if s == STATE_A:
            return "a"
        return f"b{self.ctx.discrete_log[s[1]]}" if s[1] != 1 else f"b{self.ctx.k}"

    def output_swaps(self, s) -> bool:
        return s == STATE_A

    def restrict_letter_state(self, s, ch: str):
        if s == STATE_E or s == STATE_A:
            return STATE_E
        x = s[1]
        if ch == "1":
            return directed_state(self.ctx.mul_alpha(x))
        return STATE_A if self.ctx.trace(x) else STATE_E

    # -- elements ---------------------------------------------------------

    def element(self, *states) -> GroupElement:
        return GroupElement(_reduce(states))

    def iota(self, x: int) -> GroupElement:
        """Embedding of the additive group: field element -> directed state."""
        self.ctx._check(x)
        return GroupElement((("b", x),) if x else ())

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return GroupElement(_reduce(g.factors + h.factors))

    def inverse(self, g: GroupElement) -> GroupElement:
        # every nucleus state is an involution, so reversing suffices,
        # and a word of at most one factor is its own inverse
        return g if len(g.factors) <= 1 else GroupElement(g.factors[::-1])

    def _step(self, factors: tuple, ch: str) -> tuple[tuple, str]:
        """(restriction along ch, output letter): the one-letter case of
        _walk, for any word, with the restriction in normal form."""
        image, rest = self._walk(factors, ch)
        return rest, image

    def _walk(self, factors: tuple, word: str) -> tuple[str, tuple]:
        """(image of word, restriction along word) of a factor tuple.

        Walks the factors right to left, each state along the whole word
        in closed form (module docstring), and reduces the collected
        restrictions once.  Accepts any word, reduced or not; along a
        nonempty word the restriction is in normal form.
        """
        if not word or not factors:
            return word, factors  # the identity fixes every word
        ctx = self.ctx
        log, tp, k = ctx.discrete_log, ctx.trace_of_power, ctx.k
        end = len(word) - 1
        rest = []
        for s in reversed(factors):
            if s[0] == "a":
                word = _SWAP[word[0]] + word[1:]
            elif s[0] == "b" and s[1]:
                r = word.find("0")
                if r < 0:
                    rest.append(("b", ctx.power_table[(log[s[1]] + end + 1) % k]))
                elif tp[(log[s[1]] + r) % k]:
                    if r < end:
                        word = word[: r + 1] + _SWAP[word[r + 1]] + word[r + 2 :]
                    else:
                        rest.append(STATE_A)
        # the restriction is collected right to left; the normal form of
        # the reversed word is the reverse of the normal form
        return word, _reduce(rest)[::-1]

    def act(self, g: GroupElement, word: str) -> str:
        """Image of a finite word; length-preserving."""
        return self._walk(g.factors, word)[0]

    def act_letter(self, g: GroupElement, ch: str) -> str:
        return self._walk(g.factors, ch)[0]

    def restrict(self, g: GroupElement, word: str) -> GroupElement:
        """g|_word."""
        return GroupElement(self._walk(g.factors, word)[1])

    # -- semantic equality ------------------------------------------------

    def equal(self, g: GroupElement, h: GroupElement) -> bool:
        """True iff g and h act identically on every finite word."""
        return self._bisimilar(g.factors, h.factors)

    def _bisimilar(self, u: tuple, v: tuple) -> bool:
        """equal on factor tuples, so that walks holding tuples need not
        wrap them.

        Coinductive check: breadth-first search over pairs of words,
        failing on the first output mismatch; identical words are equal
        and need no search.  Soundness rests on the action being
        faithful; termination on restriction keeping words inside a
        finite set.

        Two words of at most one factor are decided in closed form: they
        are equal iff their normal forms are.  a swaps the first letter
        and e and b(x) fix it, and b(x) b(y)^-1 = b(x + y) != e for
        x != y, which is the joint-kernel identity (only 0 lies in every
        ker(Tr o alpha^j); it holds for every FieldContext, as the trace
        is onto).  For the same reason the search stops at the first
        pair of distinct single states it reaches, since equal elements
        have equal restrictions.  Neither case touches the memo, except
        that such a stop records the root as False.
        """
        if u == v:
            return True
        if len(u) <= 1 and len(v) <= 1:
            return _reduce(u) == _reduce(v)
        root = (u, v) if u <= v else (v, u)
        memo = self._eq_memo
        cached = memo.get(root)
        if cached is not None:
            return cached
        step = self._step
        seen = {root}
        queue = deque([root])
        while queue:
            u, v = queue.popleft()
            for ch in "01":
                u2, cu = step(u, ch)
                v2, cv = step(v, ch)
                if cu != cv:
                    memo[root] = False
                    memo.setdefault((u, v), False)  # (u, v) is normalized in the queue
                    return False
                if u2 == v2:
                    continue
                if len(u2) <= 1 and len(v2) <= 1:  # distinct states, in normal form
                    memo[root] = False
                    return False
                pair = (u2, v2) if u2 <= v2 else (v2, u2)
                known = memo.get(pair)
                if known is False:
                    memo[root] = False
                    return False
                if known is None and pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        for pair in seen:
            memo[pair] = True
        return True

    def in_nucleus(self, g: GroupElement):
        """The nucleus state g is equal to, or None.

        A normal form of at most one factor is a nucleus state already.
        Otherwise tries the likely candidate first: products of directed
        states sum their field elements, so the XOR of directed parts (or
        a, when the element swaps) is checked before the full scan.
        """
        reduced = _reduce(g.factors)
        if len(reduced) <= 1:
            return reduced[0] if reduced else STATE_E
        swaps = self.act_letter(g, "0") != "0"
        if swaps:
            if self.equal(g, self.gen_a):
                return STATE_A
            return None
        acc = 0
        for s in g.factors:
            if s[0] == "b":
                acc ^= s[1]
        guess = directed_state(acc)
        if self.equal(g, GroupElement(() if guess == STATE_E else (guess,))):
            return guess
        for s in self.nucleus_states:
            if s == STATE_A or s == guess:
                continue
            if self.equal(g, self.element(s)):
                return s
        return None

    # -- nucleus checks -----------------------------------------------------

    def verify_nucleus(self) -> dict:
        """Check restriction-closure and contraction of products of pairs,
        and return the contraction fragment of the certificate.

        The (k + 2)^2 pairs (g, h) of nucleus states fall into classes by
        the normal form.  e h, h e, a a and b(x) b(y) are single states
        as words, so they contract at depth 0.  The 2k pairs a b(x) and
        b(x) a restrict at the letter c to b(x)|_c and b(x)|_(not c), as
        a|_c = e: they contract at depth 1 when both one-letter
        restrictions of b(x) are states, and are listed under "failures"
        otherwise.  Depth 0 is ruled out for them because b(x) != e for
        x != 0, which is the joint-kernel identity of the field section.
        Contraction of longer products follows from iterating the pair
        statement.  No word is walked, so the memo is not touched.
        """
        states = self.nucleus_states
        state_set = set(states)
        leaving = [
            s for s in states if any(self.restrict_letter_state(s, ch) not in state_set for ch in "01")
        ]
        closure_ok = not leaving
        bad = [self.state_name(s) for s in leaving if s[0] == "b"]
        failures = [[b, "a"] for b in bad] + [["a", b] for b in bad]
        class_depth = 1 if self.ctx.joint_kernel_is_trivial() else 0
        return {
            "n": self.ctx.n,
            "state_count": len(states),
            "closure_ok": closure_ok,
            "pairs_checked": len(states) ** 2,
            "max_contraction_depth": class_depth if len(bad) < self.ctx.k else 0,
            "failures": failures,
            "pass": closure_ok and not failures,
        }
