"""Alternating-subset trees for explicit Muller conditions, the memory
numbers they induce, and the parity automaton built over their leaves."""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Alphabet, Automaton, MalformedInput, MullerCondition,
                   ParityAcceptance, ScaleGuard, bit_indices, zielonka_children)


@dataclass(frozen=True)
class ZielonkaTree:
    """Tree of alternating colour subsets.

    The root is labelled by the full alphabet; the children of a node are the
    inclusion-maximal non-empty strict subsets of its label on the opposite
    side of the accepting family.  Children are ordered by ascending label
    bitset, which makes the shape canonical.
    """

    alphabet: Alphabet
    label: int
    accepting: bool
    children: tuple["ZielonkaTree", ...]

    def height(self) -> int:
        """Number of nodes on a longest root-to-leaf path."""
        return 1 + max((child.height() for child in self.children), default=0)

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)

    def label_names(self) -> tuple[str, ...]:
        return self.alphabet.names(self.label)


MAX_TREE_LETTERS = 16


def check_tree_alphabet(cond: MullerCondition) -> None:
    """Scale guard of every construction that enumerates the condition's
    letter subsets."""
    if len(cond.alphabet) > MAX_TREE_LETTERS:
        raise ScaleGuard(f"tree construction enumerates subsets; alphabet of"
                         f" {len(cond.alphabet)} symbols, limit {MAX_TREE_LETTERS}")


def zielonka_tree(cond: MullerCondition) -> ZielonkaTree:
    """Build the alternating-subset tree of an explicit Muller condition."""
    check_tree_alphabet(cond)
    labels: dict[int, list[int]] = {}  # a label recurs under many parents

    def build(label: int, accepting: bool) -> ZielonkaTree:
        if label not in labels:
            labels[label] = zielonka_children(label, cond.accepting.__contains__)
        children = tuple(build(sub, not accepting) for sub in labels[label])
        return ZielonkaTree(cond.alphabet, label, accepting, children)

    full = cond.alphabet.full_mask
    return build(full, full in cond.accepting)


def general_memory(cond: MullerCondition) -> int:
    return memory_requirements(cond).general_memory


def is_half_positional(cond: MullerCondition) -> bool:
    """True when one memory state suffices, i.e. no accepting node branches."""
    return memory_requirements(cond).half_positional


def is_genbuchi_recognizable(cond: MullerCondition) -> bool:
    """True when the condition is a finite conjunction of met colour sets.

    Holds exactly when the tree has height at most two and, if the height is
    two, the root is accepting.
    """
    return memory_requirements(cond).genbuchi_recognizable


def priorities_used(cond: MullerCondition) -> tuple[int, bool]:
    """(number of distinct priorities, whether the top priority is even)."""
    req = memory_requirements(cond)
    return req.priorities_used, req.top_priority_even


@dataclass(frozen=True)
class MemoryRequirements:
    general_memory: int
    half_positional: bool
    genbuchi_recognizable: bool
    priorities_used: int
    top_priority_even: bool


def memory_requirements(cond: MullerCondition) -> MemoryRequirements:
    """Numbers read off the condition's tree, without building it.

    A node is accepting exactly when its label is, and its children depend
    only on its label, so each distinct label is worked out once, though it
    recurs under many parents.  General memory counts one at a leaf, the sum
    over the children at an accepting node and their maximum at a rejecting
    one.  The tree's height is the number of priorities.
    """
    check_tree_alphabet(cond)
    memo: dict[int, tuple[int, int, bool]] = {}  # label: memory, height, no branching

    def numbers(label: int) -> tuple[int, int, bool]:
        if label not in memo:
            accepting = label in cond.accepting
            below = [numbers(sub) for sub in
                     zielonka_children(label, cond.accepting.__contains__)]
            memo[label] = (1, 1, True) if not below else (
                (sum if accepting else max)(memory for memory, _, _ in below),
                1 + max(height for _, height, _ in below),
                (not accepting or len(below) == 1) and all(flat for _, _, flat in below))
        return memo[label]

    memory, height, flat = numbers(cond.alphabet.full_mask)
    accepting = cond.alphabet.full_mask in cond.accepting
    return MemoryRequirements(
        general_memory=memory,
        half_positional=flat,
        genbuchi_recognizable=height == 1 or (height == 2 and accepting),
        priorities_used=height,
        top_priority_even=accepting,
    )


def parity_automaton_from_tree(tree: ZielonkaTree) -> Automaton:
    """Deterministic parity automaton over the leaves of the tree.

    States are the leaves in depth-first order.  Reading a symbol moves up to
    the deepest node on the current leaf's path whose label contains the
    symbol, emits that node's priority, and restarts at the first leaf of the
    cyclically next child below that node.  Priorities decrease with depth
    and the root's priority is even exactly when the root is accepting.

    One walk numbers the leaves; a second keeps, for the current path, the
    step that leaving each node takes and the deepest node holding each
    symbol, so every transition is one lookup.
    """
    if tree.label != tree.alphabet.full_mask:
        raise MalformedInput("tree root must be labelled by the whole alphabet")
    first_leaf: dict[int, int] = {}  # node id -> index of the first leaf below it

    def number(node: ZielonkaTree, start: int) -> int:
        first_leaf[id(node)] = start
        if not node.children:
            return start + 1
        for child in node.children:
            start = number(child, start)
        return start

    n_leaves = number(tree, 0)
    height = tree.height()
    base = (height - 1) % 2 if tree.accepting else height % 2
    # priority of a node at depth d is (height - 1 - d) + base
    deepest = [0] * len(tree.alphabet)  # depth of the deepest path node holding each symbol
    steps: list[tuple[int, int]] = []  # (target, colour) of leaving each path node
    rows: list[tuple[tuple[int, int], ...]] = []

    def visit(node: ZielonkaTree, depth: int) -> None:
        saved = [(a, deepest[a]) for a in bit_indices(node.label)]
        for a, _ in saved:
            deepest[a] = depth
        colour = height - 1 - depth
        if not node.children:
            steps.append((first_leaf[id(node)], colour))
            rows.append(tuple(steps[d] for d in deepest))
            steps.pop()
        for position, child in enumerate(node.children):
            nxt = node.children[(position + 1) % len(node.children)]
            steps.append((first_leaf[id(nxt)], colour))
            visit(child, depth + 1)
            steps.pop()
        for a, old in saved:
            deepest[a] = old

    visit(tree, 0)
    out_symbols = tuple(str(p) for p in range(base, height + base))
    acceptance = ParityAcceptance(tuple(range(base, height + base)))
    return Automaton(n_leaves, 0, tree.alphabet, Alphabet(out_symbols),
                     tuple(rows), acceptance)


def parity_automaton(cond: MullerCondition) -> Automaton:
    """Minimal-by-leaves deterministic parity automaton for the condition."""
    return parity_automaton_from_tree(zielonka_tree(cond))


def ascii_tree(tree: ZielonkaTree) -> str:
    """Plain ASCII rendering of the tree, one node per line."""
    lines: list[str] = []

    def render(node: ZielonkaTree, prefix: str, is_root: bool, is_last: bool) -> None:
        mark = "[+]" if node.accepting else "[-]"
        label = "{" + ",".join(node.label_names()) + "}"
        if is_root:
            lines.append(label + " " + mark)
            child_prefix = ""
        else:
            connector = "`-- " if is_last else "+-- "
            lines.append(prefix + connector + label + " " + mark)
            child_prefix = prefix + ("    " if is_last else "|   ")
        for i, child in enumerate(node.children):
            render(child, child_prefix, False, i == len(node.children) - 1)

    render(tree, "", True, True)
    return "\n".join(lines)


def trees_isomorphic(left: ZielonkaTree, right: ZielonkaTree) -> bool:
    """Structural equality up to symbol names: same label sets, acceptance
    flags and child lists, compared recursively in canonical order."""

    def signature(node: ZielonkaTree):
        return (frozenset(node.label_names()), node.accepting,
                tuple(signature(child) for child in node.children))

    return signature(left) == signature(right)


def tree_to_json(tree: ZielonkaTree) -> dict:
    return {
        "label": list(tree.label_names()),
        "accepting": tree.accepting,
        "children": [tree_to_json(child) for child in tree.children],
    }


def tree_from_json(data: object, alphabet: Alphabet | None = None) -> ZielonkaTree:
    if not isinstance(data, dict):
        raise MalformedInput("tree must be a JSON object")
    if alphabet is None:
        label = data.get("label")
        if not isinstance(label, list):
            raise MalformedInput("tree field 'label' must be a list of symbols")
        alphabet = Alphabet(tuple(label))
    for field_name in ("label", "accepting", "children"):
        if field_name not in data:
            raise MalformedInput(f"tree is missing field '{field_name}'")
    if not isinstance(data["accepting"], bool):
        raise MalformedInput("tree field 'accepting' must be a boolean")
    if not isinstance(data["children"], list):
        raise MalformedInput("tree field 'children' must be a list")
    children = tuple(tree_from_json(child, alphabet) for child in data["children"])
    return ZielonkaTree(alphabet, alphabet.bits(data["label"]),
                        data["accepting"], children)
