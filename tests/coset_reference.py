"""The coset enumerator as it stood before relators were prepared as ints and
scanned once up to inversion: plain HLT that scans every relator, inverse
and duplicate included, at every live coset.  The tests hold the package's
enumerator to the same ``CosetResult`` on every input."""

from collections import deque
from typing import Optional

from igmax.errors import VerificationFailed
from igmax.presentation import GroupPresentation, coxeter_presentation  # noqa: F401
from igmax.verification import CosetResult


class _BudgetHit(Exception):
    pass


class _Enumerator:
    """Mutable coset table; letters are 2*gen for the generator and
    2*gen+1 for its inverse, so ``letter ^ 1`` flips direction."""

    def __init__(self, n_gens: int, relators: list[tuple[int, ...]], max_cosets: int):
        self.width = 2 * n_gens
        self.relators = relators
        self.max_cosets = max_cosets
        self.rows: list[Optional[dict[int, int]]] = [None, {}]
        self.parent = [0, 1]
        self.defined = 1
        self.queue: deque[tuple[int, int]] = deque()

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def define(self, a: int, letter: int) -> int:
        if self.defined >= self.max_cosets:
            raise _BudgetHit
        self.defined += 1
        new = len(self.rows)
        self.rows.append({letter ^ 1: a})
        self.parent.append(new)
        self.rows[a][letter] = new
        return new

    def set_edge(self, a: int, letter: int, b: int) -> None:
        """Record a·letter = b, queueing a coincidence on clash."""
        a, b = self.find(a), self.find(b)
        row = self.rows[a]
        existing = row.get(letter)
        if existing is not None:
            existing = self.find(existing)
            if existing != b:
                self.queue.append((existing, b))
            return
        row[letter] = b
        back = self.rows[b].get(letter ^ 1)
        if back is None:
            self.rows[b][letter ^ 1] = a
        else:
            back = self.find(back)
            if back != a:
                self.queue.append((back, a))

    def drain(self) -> None:
        while self.queue:
            x, y = self.queue.popleft()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            row = self.rows[y]
            self.rows[y] = None
            for letter, t in row.items():
                self.set_edge(x, letter, self.find(t))

    def scan_and_fill(self, a: int, word: tuple[int, ...]) -> None:
        a = self.find(a)
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j:
                nxt = self.rows[f].get(word[i])
                if nxt is None:
                    break
                f = self.find(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.queue.append((f, b))
                    self.drain()
                return
            while j >= i:
                nxt = self.rows[b].get(word[j] ^ 1)
                if nxt is None:
                    break
                b = self.find(nxt)
                j -= 1
            if j < i:
                self.queue.append((f, b))
                self.drain()
                return
            if i == j:
                self.set_edge(f, word[i], b)
                self.drain()
                return
            f = self.define(f, word[i])
            i += 1

    def live(self) -> list[int]:
        return [c for c in range(1, len(self.rows)) if self.rows[c] is not None]

    def run(self) -> None:
        alpha = 1
        while alpha < len(self.rows):
            if self.rows[alpha] is not None:
                for word in self.relators:
                    self.scan_and_fill(alpha, word)
                    if self.rows[alpha] is None:
                        break
                if self.rows[alpha] is not None:
                    for letter in range(self.width):
                        if self.rows[alpha] is None:
                            break
                        if self.rows[alpha].get(letter) is None:
                            self.define(alpha, letter)
            alpha += 1

    def audit(self) -> None:
        live = self.live()
        for c in live:
            row = self.rows[c]
            for letter in range(self.width):
                target = row.get(letter)
                if target is None:
                    raise VerificationFailed("open entry in a table reported closed")
                if self.rows[self.find(target)] is None:
                    raise VerificationFailed("table entry points at a dead coset")
        for c in live:
            for word in self.relators:
                x = c
                for letter in word:
                    x = self.find(self.rows[x][letter])
                if x != c:
                    raise VerificationFailed("relator does not close on a live coset")


def coset_enumerate(pres: GroupPresentation, max_cosets: int = 100_000) -> CosetResult:
    """Order of the presented group, or inconclusive under the bound.

    >>> coset_enumerate(coxeter_presentation(4)).order
    24
    """
    index = {g: i for i, g in enumerate(pres.generators)}
    relators = []
    for rel in pres.relations:
        word = tuple(
            2 * index[g] + (0 if e > 0 else 1) for g, e in rel.relator()
        )
        if word:
            relators.append(word)
    enum = _Enumerator(len(pres.generators), relators, max_cosets)
    try:
        enum.run()
    except _BudgetHit:
        return CosetResult(False, None, enum.defined, len(enum.live()))
    enum.audit()
    live = len(enum.live())
    return CosetResult(True, live, enum.defined, live)
